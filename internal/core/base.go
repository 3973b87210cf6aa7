package core

import (
	"fmt"
)

// BaseConfig configures the baseline search of §V.
type BaseConfig struct {
	// Window is the number of consecutive subsets adjacent to a moving
	// bound whose averaged match proportion estimates R(I+) / R(I-). The
	// paper recommends 3–10 (§VIII, to cope with distribution
	// irregularity); 0 selects DefaultBaseWindow.
	Window int
	// StartSubset is the subset where the search begins (v0); the paper
	// suggests "the boundary value of a classifier or simply a median
	// value". A negative value bootstraps the classifier boundary: a
	// binary search that labels BootstrapSamples pairs per probed subset
	// to locate the subset whose match proportion crosses 0.5. The
	// bootstrap labels are charged as human cost like any others.
	StartSubset int
	// BootstrapSamples is the per-subset label count of the bootstrap
	// probe; 0 selects DefaultBootstrapSamples.
	BootstrapSamples int
}

// DefaultBaseWindow is the default number of consecutive subsets averaged
// for the baseline boundary estimates.
const DefaultBaseWindow = 5

// DefaultBootstrapSamples is the default number of pairs labeled per subset
// probed by the start-point bootstrap.
const DefaultBootstrapSamples = 24

func (c BaseConfig) normalized(w *Workload) (BaseConfig, error) {
	if c.Window == 0 {
		c.Window = DefaultBaseWindow
	}
	if c.Window < 1 {
		return c, fmt.Errorf("%w: baseline window %d must be >= 1", ErrBadWorkload, c.Window)
	}
	if c.BootstrapSamples == 0 {
		c.BootstrapSamples = DefaultBootstrapSamples
	}
	if c.BootstrapSamples < 1 {
		return c, fmt.Errorf("%w: bootstrap samples %d must be >= 1", ErrBadWorkload, c.BootstrapSamples)
	}
	if c.StartSubset >= w.Subsets() {
		return c, fmt.Errorf("%w: start subset %d out of range [0,%d)", ErrBadWorkload, c.StartSubset, w.Subsets())
	}
	return c, nil
}

// bootstrapStart locates the subset whose match proportion crosses 0.5 by
// binary search, probing each visited subset with `take` evenly spaced
// labels. This stands in for "the boundary value of a classifier" the paper
// suggests as v0: a handful of probes (log2(m) subsets) whose labels are
// charged to the oracle like any other manual work.
func bootstrapStart(w *Workload, o Oracle, take int) int {
	probe := func(k int) float64 {
		start, end := w.SubsetRange(k)
		n := end - start
		t := take
		if t > n {
			t = n
		}
		ids := make([]int, 0, t)
		for i := 0; i < t; i++ {
			// Evenly spaced positions keep the probe deterministic.
			ids = append(ids, w.Pair(start+i*n/t).ID)
		}
		matches := 0
		for _, m := range o.LabelAll(ids) {
			if m {
				matches++
			}
		}
		return float64(matches) / float64(t)
	}
	lo, hi := 0, w.Subsets()-1
	if probe(lo) >= 0.5 {
		return lo
	}
	if probe(hi) < 0.5 {
		return hi
	}
	// Invariant: probe(lo) < 0.5 <= probe(hi).
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if probe(mid) < 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// baseState tracks the manually labeled DH range during a baseline-style
// search: per-subset match counts plus the running total.
type baseState struct {
	w       *Workload
	o       Oracle
	lo, hi  int
	matches []int // matches per labeled subset; valid for [lo, hi]
	total   int   // total matches in [lo, hi]
}

func newBaseState(w *Workload, o Oracle, start int) *baseState {
	s := &baseState{w: w, o: o, lo: start, hi: start, matches: make([]int, w.Subsets())}
	s.matches[start] = w.labelSubset(o, start)
	s.total = s.matches[start]
	return s
}

func (s *baseState) extendUp() {
	s.hi++
	s.matches[s.hi] = s.w.labelSubset(s.o, s.hi)
	s.total += s.matches[s.hi]
}

func (s *baseState) extendDown() {
	s.lo--
	s.matches[s.lo] = s.w.labelSubset(s.o, s.lo)
	s.total += s.matches[s.lo]
}

// topWindowRate returns the observed match proportion of the `window` top
// subsets of DH — R(I+_i) of Eq. 6–7, averaged over several subsets as the
// paper recommends for irregular distributions.
func (s *baseState) topWindowRate(window int) float64 {
	a := s.hi - window + 1
	if a < s.lo {
		a = s.lo
	}
	return s.windowRate(a, s.hi)
}

// bottomWindowRate returns R(I-_j) of Eq. 8–9: the observed match
// proportion of the `window` bottom subsets of DH, with a Jeffreys
// correction ((k+1/2)/(n+1)). On heavily imbalanced workloads the bottom
// window frequently observes zero or one match out of a thousand pairs; the
// raw proportion then understates the matches hiding in D- and the recall
// condition fires too early. The correction costs almost nothing when
// matches are plentiful and guards the sparse regime.
func (s *baseState) bottomWindowRate(window int) float64 {
	b := s.lo + window - 1
	if b > s.hi {
		b = s.hi
	}
	pairs := s.w.RangeLen(s.lo, b)
	if pairs == 0 {
		return 0
	}
	m := 0
	for k := s.lo; k <= b; k++ {
		m += s.matches[k]
	}
	return (float64(m) + 0.5) / (float64(pairs) + 1)
}

func (s *baseState) windowRate(a, b int) float64 {
	pairs := s.w.RangeLen(a, b)
	if pairs == 0 {
		return 0
	}
	m := 0
	for k := a; k <= b; k++ {
		m += s.matches[k]
	}
	return float64(m) / float64(pairs)
}

// precisionLB evaluates the Eq. 6 lower bound on the achieved precision:
// (|DH| R(DH) + |D+| R(I+)) / (|DH| R(DH) + |D+|). An empty D+ yields 1:
// every match-labeled pair was verified by the human.
func (s *baseState) precisionLB(window int) float64 {
	m := s.w.Subsets()
	dPlusPairs := float64(s.w.RangeLen(s.hi+1, m-1))
	dhMatches := float64(s.total)
	if dPlusPairs == 0 {
		return 1
	}
	rPlus := s.topWindowRate(window)
	return (dhMatches + dPlusPairs*rPlus) / (dhMatches + dPlusPairs)
}

// recallLB evaluates the Eq. 8 lower bound on the achieved recall. An empty
// D- yields 1: no match can have been missed.
func (s *baseState) recallLB(window int) float64 {
	m := s.w.Subsets()
	dMinusPairs := float64(s.w.RangeLen(0, s.lo-1))
	if dMinusPairs == 0 {
		return 1
	}
	dPlusPairs := float64(s.w.RangeLen(s.hi+1, m-1))
	found := float64(s.total)
	if dPlusPairs > 0 {
		found += dPlusPairs * s.topWindowRate(window)
	}
	missed := dMinusPairs * s.bottomWindowRate(window)
	if found == 0 {
		if missed == 0 {
			return 1
		}
		return 0
	}
	return found / (found + missed)
}

// BaseSearch runs the baseline optimization of §V: starting from a medium
// similarity subset it alternately moves the upper bound of DH right until
// the Eq. 7 precision condition holds and the lower bound left until the
// Eq. 9 recall condition holds. Under the monotonicity assumption the
// returned solution satisfies the requirement with 100% confidence
// (Theorem 1); Theta in the requirement is therefore ignored.
func BaseSearch(w *Workload, req Requirement, o Oracle, cfg BaseConfig) (Solution, error) {
	if err := req.Validate(); err != nil {
		return Solution{}, err
	}
	cfg, err := cfg.normalized(w)
	if err != nil {
		return Solution{}, err
	}
	start := cfg.StartSubset
	if start < 0 {
		start = bootstrapStart(w, o, cfg.BootstrapSamples)
	}
	st := newBaseState(w, o, start)
	m := w.Subsets()
	for {
		pOK := st.precisionLB(cfg.Window) >= req.Alpha-1e-12
		rOK := st.recallLB(cfg.Window) >= req.Beta-1e-12
		if pOK && rOK {
			break
		}
		moved := false
		if !pOK && st.hi < m-1 {
			st.extendUp()
			moved = true
		}
		if !rOK && st.lo > 0 {
			st.extendDown()
			moved = true
		}
		if !moved {
			// Bounds pinned at the extremes: the failing side has an empty
			// machine region, whose bound is 1 by definition, so this is
			// unreachable; break defensively rather than loop forever.
			break
		}
	}
	return Solution{Method: "BASE", Lo: st.lo, Hi: st.hi}, nil
}
