// Package core implements the HUMO framework (paper §IV) and its three
// optimization approaches: the monotonicity-based baseline search (§V), the
// sampling-based searches (§VI: all-sampling and the Gaussian-process
// partial-sampling of Algorithm 1) and the hybrid search (§VII).
//
// A Workload is a set of instance pairs ordered by a machine metric (pair
// similarity by default). A search produces a Solution: the contiguous run
// of unit subsets assigned to the human (DH); pairs below it (D-) are
// machine-labeled unmatch and pairs above it (D+) machine-labeled match.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrBadWorkload reports an invalid workload or configuration.
var ErrBadWorkload = errors.New("core: invalid workload")

// ErrBadRequirement reports an invalid quality requirement.
var ErrBadRequirement = errors.New("core: invalid quality requirement")

// Pair is one instance pair of the ER workload: an opaque identifier and
// its machine metric value (e.g. aggregated pair similarity). The ground
// truth is *not* part of the pair; it is held by the Oracle.
type Pair struct {
	ID  int
	Sim float64
}

// Oracle reveals the ground-truth labels of pairs on demand. It models the
// human worker of the paper: "the ground-truth labels are originally hidden;
// whenever manual verification is called for, they are provided to the
// program" (§VIII-A). Implementations are expected to count distinct labeled
// pairs so that human cost can be measured.
//
// The searches funnel every fixed set of label requests (a whole subset, a
// per-subset sample, a bootstrap probe, the final DH resolution) through one
// LabelAll call, so implementations backed by humans or crowds see one
// review batch instead of answering pair by pair.
type Oracle interface {
	// LabelAll returns one answer per id, aligned with ids (true for a
	// matching pair), and must answer the ids in the given order:
	// stochastic oracles memoize per pair, and the order in which fresh
	// pairs consume randomness is part of the package's determinism
	// contract.
	LabelAll(ids []int) []bool
}

// DefaultSubsetSize is the number of pairs per unit subset used throughout
// the paper's evaluation (§VIII: "the number of instance pairs contained by
// each subset is set to be 200").
const DefaultSubsetSize = 200

// Workload is an ER workload: pairs sorted ascending by metric value and
// partitioned into equal-size unit subsets.
type Workload struct {
	pairs      []Pair
	subsetSize int
	m          int // number of subsets
	// fits memoizes the GP fits of Algorithm 1 on this workload. It holds
	// no state a search result or fingerprint depends on.
	fits *fitMemo
}

// NewWorkload builds a workload from pairs (copied and sorted ascending by
// Sim; ties broken by ID for determinism). subsetSize <= 0 selects
// DefaultSubsetSize.
func NewWorkload(pairs []Pair, subsetSize int) (*Workload, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("%w: empty pair set", ErrBadWorkload)
	}
	if subsetSize <= 0 {
		subsetSize = DefaultSubsetSize
	}
	sorted, err := sortedCopy(pairs, "pair")
	if err != nil {
		return nil, err
	}
	return newSortedWorkload(sorted, subsetSize), nil
}

// Extend returns the workload grown by delta, equal pair for pair to
// NewWorkload over the union with the same subset size; the receiver is
// left unmodified. Only the delta is sorted: it is merged into the
// existing order with one binary search per delta pair and one linear
// copy, so growing a large workload by a few pairs costs a copy, not a
// re-sort. The grown workload starts with an empty GP fit memo. An empty
// delta returns the receiver itself. Extend does not check ids for
// collisions; callers that need distinct ids check them.
func (w *Workload) Extend(delta []Pair) (*Workload, error) {
	if len(delta) == 0 {
		return w, nil
	}
	d, err := sortedCopy(delta, "delta pair")
	if err != nil {
		return nil, err
	}
	merged := make([]Pair, 0, len(w.pairs)+len(d))
	rest := w.pairs
	for _, p := range d {
		k, _ := slices.BinarySearchFunc(rest, p, comparePairs)
		merged = append(merged, rest[:k]...)
		merged = append(merged, p)
		rest = rest[k:]
	}
	merged = append(merged, rest...)
	return newSortedWorkload(merged, w.subsetSize), nil
}

// comparePairs is the workload order: Sim ascending, then ID. It is a total
// order on pairs with distinct ids, so every correct sort or merge under it
// produces the same sequence.
func comparePairs(a, b Pair) int {
	switch {
	case a.Sim < b.Sim:
		return -1
	case a.Sim > b.Sim:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// sortedCopy copies pairs, rejects non-finite similarities (what names the
// pairs in the error) and sorts the copy into workload order.
func sortedCopy(pairs []Pair, what string) ([]Pair, error) {
	sorted := slices.Clone(pairs)
	for i, p := range sorted {
		if math.IsNaN(p.Sim) || math.IsInf(p.Sim, 0) {
			return nil, fmt.Errorf("%w: %s %d has non-finite similarity %v", ErrBadWorkload, what, i, p.Sim)
		}
	}
	slices.SortFunc(sorted, comparePairs)
	return sorted, nil
}

func newSortedWorkload(sorted []Pair, subsetSize int) *Workload {
	m := (len(sorted) + subsetSize - 1) / subsetSize
	return &Workload{pairs: sorted, subsetSize: subsetSize, m: m, fits: newFitMemo()}
}

// Len returns the total number of pairs.
func (w *Workload) Len() int { return len(w.pairs) }

// SubsetSize returns the configured unit-subset size.
func (w *Workload) SubsetSize() int { return w.subsetSize }

// Subsets returns the number of unit subsets m.
func (w *Workload) Subsets() int { return w.m }

// SubsetRange returns the half-open pair-index range [start, end) of subset
// k. Subsets are ordered by similarity: subset 0 holds the least similar
// pairs.
func (w *Workload) SubsetRange(k int) (start, end int) {
	if k < 0 || k >= w.m {
		panic(fmt.Sprintf("core: subset %d out of range [0,%d)", k, w.m))
	}
	start = k * w.subsetSize
	end = start + w.subsetSize
	if end > len(w.pairs) {
		end = len(w.pairs)
	}
	return start, end
}

// SubsetLen returns the number of pairs in subset k.
func (w *Workload) SubsetLen(k int) int {
	s, e := w.SubsetRange(k)
	return e - s
}

// RangeLen returns the total number of pairs in subsets [a, b] inclusive.
// An empty range (a > b) has length 0.
func (w *Workload) RangeLen(a, b int) int {
	if a > b {
		return 0
	}
	s, _ := w.SubsetRange(a)
	_, e := w.SubsetRange(b)
	return e - s
}

// SubsetMeanSim returns the average similarity of subset k, the v value the
// Gaussian process regresses on (§VI-B uses "corresponding average
// similarity values").
func (w *Workload) SubsetMeanSim(k int) float64 {
	s, e := w.SubsetRange(k)
	var sum float64
	for _, p := range w.pairs[s:e] {
		sum += p.Sim
	}
	return sum / float64(e-s)
}

// Pair returns the pair at sorted position i.
func (w *Workload) Pair(i int) Pair { return w.pairs[i] }

// SubsetContaining returns the subset index of the first pair whose
// similarity is >= v, i.e. the subset where a threshold at similarity v
// falls. Values above every pair map to the last subset.
func (w *Workload) SubsetContaining(v float64) int {
	i := sort.Search(len(w.pairs), func(i int) bool { return w.pairs[i].Sim >= v })
	if i >= len(w.pairs) {
		i = len(w.pairs) - 1
	}
	return i / w.subsetSize
}

// labelSubset asks the oracle for every pair of subset k (as one batch) and
// returns the number of matching pairs. Oracles memoize, so repeated calls
// do not inflate human cost.
func (w *Workload) labelSubset(o Oracle, k int) int {
	s, e := w.SubsetRange(k)
	ids := make([]int, 0, e-s)
	for _, p := range w.pairs[s:e] {
		ids = append(ids, p.ID)
	}
	matches := 0
	for _, m := range o.LabelAll(ids) {
		if m {
			matches++
		}
	}
	return matches
}

// Requirement is the user-specified quality requirement of Definition 1:
// precision >= Alpha and recall >= Beta, each with confidence Theta.
type Requirement struct {
	Alpha float64 // required precision level
	Beta  float64 // required recall level
	Theta float64 // confidence level
}

// Validate checks the requirement is well-formed.
func (r Requirement) Validate() error {
	if !(r.Alpha > 0 && r.Alpha <= 1) {
		return fmt.Errorf("%w: precision alpha=%v must be in (0,1]", ErrBadRequirement, r.Alpha)
	}
	if !(r.Beta > 0 && r.Beta <= 1) {
		return fmt.Errorf("%w: recall beta=%v must be in (0,1]", ErrBadRequirement, r.Beta)
	}
	if !(r.Theta > 0 && r.Theta < 1) {
		return fmt.Errorf("%w: confidence theta=%v must be in (0,1)", ErrBadRequirement, r.Theta)
	}
	return nil
}

// Solution is a HUMO division of the workload: subsets [Lo, Hi] (inclusive)
// form DH; subsets below Lo form D- (machine: unmatch); subsets above Hi
// form D+ (machine: match). Lo > Hi encodes an empty DH.
type Solution struct {
	Method string // "BASE", "ALLSAMP", "SAMP" or "HYBR"
	Lo, Hi int

	// SampledPairs is the number of pairs the search labeled for estimation
	// purposes (sampling) before DH itself is verified. Pairs inside the
	// final DH are not double-counted by oracles that memoize.
	SampledPairs int
}

// Empty reports whether DH is empty.
func (s Solution) Empty() bool { return s.Lo > s.Hi }

// HumanPairs returns the number of pairs inside DH for workload w.
func (s Solution) HumanPairs(w *Workload) int {
	if s.Empty() {
		return 0
	}
	return w.RangeLen(s.Lo, s.Hi)
}

// Resolve produces the final labeling: D- unmatch, D+ match, DH labeled by
// the oracle. The returned slice is indexed by sorted pair position.
func (s Solution) Resolve(w *Workload, o Oracle) []bool {
	labels := make([]bool, w.Len())
	var hStart, hEnd int
	if s.Empty() {
		// Threshold sits between Hi and Lo: everything from subset Lo up is
		// machine-matched.
		hStart, _ = w.SubsetRange(s.Lo)
		hEnd = hStart
	} else {
		hStart, _ = w.SubsetRange(s.Lo)
		_, hEnd = w.SubsetRange(s.Hi)
	}
	ids := make([]int, 0, hEnd-hStart)
	for i := hStart; i < hEnd; i++ {
		ids = append(ids, w.pairs[i].ID)
	}
	for i, m := range o.LabelAll(ids) {
		labels[hStart+i] = m
	}
	for i := hEnd; i < len(labels); i++ {
		labels[i] = true
	}
	return labels
}

func (s Solution) String() string {
	if s.Empty() {
		return fmt.Sprintf("%s{DH: empty at subset %d}", s.Method, s.Lo)
	}
	return fmt.Sprintf("%s{DH: subsets [%d,%d]}", s.Method, s.Lo, s.Hi)
}
