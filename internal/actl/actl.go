// Package actl implements the active-learning comparison baseline of the
// paper's §VIII-C: a precision-constrained, recall-maximizing threshold
// classifier in the style of Arasu et al. (SIGMOD 2010) and Bellare et al.
// (KDD 2012). Given a target precision alpha, it finds the lowest similarity
// threshold whose induced match region still meets alpha, estimating
// precision from human-labeled samples. Unlike HUMO it can enforce only
// precision — recall degrades as the target rises — and its manual cost is
// the number of sampled labels.
package actl

import (
	"errors"
	"fmt"
	"math/rand"

	"humo/internal/core"
	"humo/internal/stats"
)

// ErrBadConfig reports an invalid baseline configuration.
var ErrBadConfig = errors.New("actl: invalid configuration")

// Strategy selects the threshold-search procedure.
type Strategy int

const (
	// StrategyBinary performs a monotone binary search over thresholds
	// (Arasu-style: each probe tests feasibility of a candidate precision
	// constraint).
	StrategyBinary Strategy = iota
	// StrategyScan descends from the highest threshold until the sampled
	// precision lower bound first falls below the target (Bellare-style
	// iterative refinement).
	StrategyScan
)

func (s Strategy) String() string {
	switch s {
	case StrategyBinary:
		return "binary"
	case StrategyScan:
		return "scan"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config parameterizes the search.
type Config struct {
	// Strategy selects binary search (default) or descending scan.
	Strategy Strategy
	// SampleSize is the number of pairs labeled per probed threshold.
	// 0 selects 50.
	SampleSize int
	// Theta is the confidence of the per-probe precision lower bound.
	// 0 selects 0.9.
	Theta float64
	// Steps bounds the number of probes for StrategyScan (the scan step is
	// the workload subset). 0 selects the number of subsets.
	Steps int
	// Rand drives sampling; required.
	Rand *rand.Rand
}

func (c Config) normalized() (Config, error) {
	if c.SampleSize == 0 {
		c.SampleSize = 50
	}
	if c.Theta == 0 {
		c.Theta = 0.9
	}
	if c.SampleSize < 0 || c.Steps < 0 {
		return c, fmt.Errorf("%w: %+v", ErrBadConfig, c)
	}
	if !(c.Theta > 0 && c.Theta < 1) {
		return c, fmt.Errorf("%w: Theta=%v", ErrBadConfig, c.Theta)
	}
	if c.Rand == nil {
		return c, fmt.Errorf("%w: Rand required", ErrBadConfig)
	}
	return c, nil
}

// Result reports the selected classifier and the manual cost spent finding
// it.
type Result struct {
	// CutSubset is the first workload subset labeled match: all pairs in
	// subsets >= CutSubset are classified as matches. CutSubset == m means
	// an empty match region (the target precision was unreachable).
	CutSubset int
	// ManualCost is the number of distinct pairs labeled during the search.
	ManualCost int
	// Probes is the number of thresholds whose precision was estimated.
	Probes int
}

// Labels materializes the classifier's labeling over the workload, indexed
// by sorted pair position.
func (r Result) Labels(w *core.Workload) []bool {
	labels := make([]bool, w.Len())
	if r.CutSubset >= w.Subsets() {
		return labels
	}
	start, _ := w.SubsetRange(r.CutSubset)
	for i := start; i < w.Len(); i++ {
		labels[i] = true
	}
	return labels
}

// Search finds the lowest cut subset whose match region meets the target
// precision with the configured confidence.
func Search(w *core.Workload, alpha float64, o core.Oracle, cfg Config) (Result, error) {
	if !(alpha > 0 && alpha <= 1) {
		return Result{}, fmt.Errorf("%w: alpha=%v", ErrBadConfig, alpha)
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return Result{}, err
	}
	switch cfg.Strategy {
	case StrategyBinary:
		return binarySearch(w, alpha, o, cfg)
	case StrategyScan:
		return scanSearch(w, alpha, o, cfg)
	default:
		return Result{}, fmt.Errorf("%w: unknown strategy %v", ErrBadConfig, cfg.Strategy)
	}
}

// probe estimates whether the match region starting at subset `cut` meets
// alpha: it samples pairs uniformly from the region and tests the Wilson
// lower bound of the match proportion. Distinct labels are tallied into
// cost.
func probe(w *core.Workload, o core.Oracle, cfg Config, labeled map[int]struct{}, cut int, alpha float64) (bool, error) {
	m := w.Subsets()
	if cut >= m {
		return true, nil // empty region is vacuously precise
	}
	start, _ := w.SubsetRange(cut)
	n := w.Len() - start
	take := cfg.SampleSize
	if take > n {
		take = n
	}
	matches := countMatches(w, o, labeled, start, cfg.Rand.Perm(n)[:take])
	lb, _, err := stats.WilsonInterval(matches, take, cfg.Theta)
	if err != nil {
		return false, err
	}
	return lb >= alpha, nil
}

// countMatches asks the oracle, in one batch, about the pairs at offsets
// offs from sorted position start, records them as labeled, and returns how
// many match.
func countMatches(w *core.Workload, o core.Oracle, labeled map[int]struct{}, start int, offs []int) int {
	ids := make([]int, len(offs))
	for i, off := range offs {
		ids[i] = w.Pair(start + off).ID
		labeled[ids[i]] = struct{}{}
	}
	matches := 0
	for _, m := range o.LabelAll(ids) {
		if m {
			matches++
		}
	}
	return matches
}

func binarySearch(w *core.Workload, alpha float64, o core.Oracle, cfg Config) (Result, error) {
	labeled := make(map[int]struct{})
	m := w.Subsets()
	probes := 0
	// Invariant: feasible(hi) holds (empty region at m is vacuously
	// feasible); find the smallest feasible cut under the monotonicity of
	// precision.
	lo, hi := 0, m
	ok, err := probe(w, o, cfg, labeled, 0, alpha)
	if err != nil {
		return Result{}, err
	}
	probes++
	if ok {
		return Result{CutSubset: 0, ManualCost: len(labeled), Probes: probes}, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := probe(w, o, cfg, labeled, mid, alpha)
		if err != nil {
			return Result{}, err
		}
		probes++
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return Result{CutSubset: hi, ManualCost: len(labeled), Probes: probes}, nil
}

// scanSearch descends from the top subset, pooling a small sample from each
// subset it passes. The candidate region [cut, m) is feasible when the
// Wilson lower bound of its pooled sample reaches alpha; the scan stops once
// the pooled point estimate falls below alpha, since by monotonicity lower
// cuts only dilute precision further. Pooling lets the bound tighten as the
// region grows, which a stop-at-first-failure scan cannot do.
func scanSearch(w *core.Workload, alpha float64, o core.Oracle, cfg Config) (Result, error) {
	labeled := make(map[int]struct{})
	m := w.Subsets()
	steps := cfg.Steps
	if steps == 0 || steps > m {
		steps = m
	}
	perSubset := cfg.SampleSize / 10
	if perSubset < 4 {
		perSubset = 4
	}
	probes := 0
	best := m
	sampled, matches := 0, 0
	for cut := m - 1; cut >= 0 && probes < steps; cut-- {
		start, end := w.SubsetRange(cut)
		n := end - start
		take := perSubset
		if take > n {
			take = n
		}
		matches += countMatches(w, o, labeled, start, cfg.Rand.Perm(n)[:take])
		sampled += take
		probes++
		lb, _, err := stats.WilsonInterval(matches, sampled, cfg.Theta)
		if err != nil {
			return Result{}, err
		}
		if lb >= alpha {
			best = cut
		}
		if float64(matches)/float64(sampled) < alpha {
			break
		}
	}
	return Result{CutSubset: best, ManualCost: len(labeled), Probes: probes}, nil
}
