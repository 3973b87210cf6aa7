package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"humo/internal/gp"
	"humo/internal/stats"
)

// mapOracle is a minimal in-package oracle for unit tests.
type mapOracle struct {
	truth map[int]bool
	asked map[int]struct{}
}

func newMapOracle(truth map[int]bool) *mapOracle {
	return &mapOracle{truth: truth, asked: make(map[int]struct{})}
}

func (o *mapOracle) Label(id int) bool {
	o.asked[id] = struct{}{}
	return o.truth[id]
}

func (o *mapOracle) LabelAll(ids []int) []bool {
	out := make([]bool, len(ids))
	for i, id := range ids {
		out[i] = o.Label(id)
	}
	return out
}

func (o *mapOracle) cost() int { return len(o.asked) }

// threshWorkload builds n pairs with sims i/n; pairs above the cut are
// matches (perfectly monotone ground truth).
func threshWorkload(t *testing.T, n, subsetSize int, cut float64) (*Workload, *mapOracle) {
	t.Helper()
	pairs := make([]Pair, n)
	truth := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		sim := float64(i) / float64(n)
		pairs[i] = Pair{ID: i, Sim: sim}
		truth[i] = sim >= cut
	}
	w, err := NewWorkload(pairs, subsetSize)
	if err != nil {
		t.Fatal(err)
	}
	return w, newMapOracle(truth)
}

func TestNewWorkloadValidation(t *testing.T) {
	if _, err := NewWorkload(nil, 0); !errors.Is(err, ErrBadWorkload) {
		t.Error("empty workload should fail")
	}
	if _, err := NewWorkload([]Pair{{ID: 1, Sim: math.NaN()}}, 0); !errors.Is(err, ErrBadWorkload) {
		t.Error("NaN similarity should fail")
	}
	if _, err := NewWorkload([]Pair{{ID: 1, Sim: math.Inf(1)}}, 0); !errors.Is(err, ErrBadWorkload) {
		t.Error("Inf similarity should fail")
	}
}

func TestWorkloadSortingAndSubsets(t *testing.T) {
	pairs := []Pair{{ID: 3, Sim: 0.9}, {ID: 1, Sim: 0.1}, {ID: 2, Sim: 0.5}, {ID: 0, Sim: 0.1}}
	w, err := NewWorkload(pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 4 || w.Subsets() != 2 || w.SubsetSize() != 2 {
		t.Fatalf("Len=%d Subsets=%d SubsetSize=%d", w.Len(), w.Subsets(), w.SubsetSize())
	}
	// Ascending by Sim, ties by ID.
	wantIDs := []int{0, 1, 2, 3}
	for i, want := range wantIDs {
		if w.Pair(i).ID != want {
			t.Errorf("Pair(%d).ID = %d, want %d", i, w.Pair(i).ID, want)
		}
	}
	s, e := w.SubsetRange(1)
	if s != 2 || e != 4 {
		t.Errorf("SubsetRange(1) = [%d,%d), want [2,4)", s, e)
	}
	if got := w.SubsetMeanSim(0); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("SubsetMeanSim(0) = %v, want 0.1", got)
	}
}

func TestWorkloadRaggedLastSubset(t *testing.T) {
	pairs := make([]Pair, 5)
	for i := range pairs {
		pairs[i] = Pair{ID: i, Sim: float64(i)}
	}
	w, err := NewWorkload(pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Subsets() != 3 {
		t.Fatalf("Subsets = %d, want 3", w.Subsets())
	}
	if w.SubsetLen(2) != 1 {
		t.Errorf("last subset len = %d, want 1", w.SubsetLen(2))
	}
	if w.RangeLen(0, 2) != 5 {
		t.Errorf("RangeLen(0,2) = %d, want 5", w.RangeLen(0, 2))
	}
	if w.RangeLen(2, 1) != 0 {
		t.Errorf("empty range len = %d, want 0", w.RangeLen(2, 1))
	}
}

func TestSubsetContaining(t *testing.T) {
	w, _ := threshWorkload(t, 100, 10, 0.5)
	if got := w.SubsetContaining(0.0); got != 0 {
		t.Errorf("SubsetContaining(0) = %d, want 0", got)
	}
	if got := w.SubsetContaining(0.55); got != 5 {
		t.Errorf("SubsetContaining(0.55) = %d, want 5", got)
	}
	if got := w.SubsetContaining(2.0); got != 9 {
		t.Errorf("SubsetContaining(2) = %d, want 9", got)
	}
}

func TestRequirementValidate(t *testing.T) {
	ok := Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid requirement failed: %v", err)
	}
	bad := []Requirement{
		{Alpha: 0, Beta: 0.9, Theta: 0.9},
		{Alpha: 1.1, Beta: 0.9, Theta: 0.9},
		{Alpha: 0.9, Beta: -1, Theta: 0.9},
		{Alpha: 0.9, Beta: 0.9, Theta: 0},
		{Alpha: 0.9, Beta: 0.9, Theta: 1},
	}
	for _, r := range bad {
		if err := r.Validate(); !errors.Is(err, ErrBadRequirement) {
			t.Errorf("requirement %+v should fail", r)
		}
	}
}

func TestSolutionResolve(t *testing.T) {
	w, o := threshWorkload(t, 100, 10, 0.5)
	sol := Solution{Method: "X", Lo: 4, Hi: 5}
	labels := sol.Resolve(w, o)
	// Pairs below subset 4 (positions < 40): unmatch.
	for i := 0; i < 40; i++ {
		if labels[i] {
			t.Fatalf("position %d should be unmatch", i)
		}
	}
	// DH positions 40..59: ground truth (cut at 0.5 -> position 50).
	for i := 40; i < 60; i++ {
		want := w.Pair(i).Sim >= 0.5
		if labels[i] != want {
			t.Fatalf("DH position %d = %v, want %v", i, labels[i], want)
		}
	}
	// D+ positions >= 60: match.
	for i := 60; i < 100; i++ {
		if !labels[i] {
			t.Fatalf("position %d should be match", i)
		}
	}
	if o.cost() != 20 {
		t.Errorf("oracle cost = %d, want 20 (only DH labeled)", o.cost())
	}
}

func TestSolutionResolveEmptyDH(t *testing.T) {
	w, o := threshWorkload(t, 100, 10, 0.5)
	sol := Solution{Method: "X", Lo: 5, Hi: 4} // empty DH at threshold 5
	labels := sol.Resolve(w, o)
	for i := 0; i < 50; i++ {
		if labels[i] {
			t.Fatalf("position %d should be unmatch", i)
		}
	}
	for i := 50; i < 100; i++ {
		if !labels[i] {
			t.Fatalf("position %d should be match", i)
		}
	}
	if o.cost() != 0 {
		t.Errorf("oracle cost = %d, want 0", o.cost())
	}
	if !sol.Empty() || sol.HumanPairs(w) != 0 {
		t.Error("solution should report empty DH")
	}
}

func TestBaseStateWindows(t *testing.T) {
	w, o := threshWorkload(t, 100, 10, 0.45)
	st := newBaseState(w, o, 5)
	// Subset 5 covers sims [0.5, 0.6): all matches.
	if st.total != 10 {
		t.Fatalf("subset 5 matches = %d, want 10", st.total)
	}
	st.extendDown() // subset 4: sims [0.4,0.5): matches at >= 0.45 -> 5
	if st.matches[4] != 5 {
		t.Fatalf("subset 4 matches = %d, want 5", st.matches[4])
	}
	if got := st.bottomWindowRate(1); got != 0.5 {
		t.Errorf("bottomWindowRate(1) = %v, want 0.5", got)
	}
	if got := st.topWindowRate(1); got != 1.0 {
		t.Errorf("topWindowRate(1) = %v, want 1.0", got)
	}
	if got := st.windowRate(4, 5); got != 0.75 {
		t.Errorf("windowRate(4,5) = %v, want 0.75", got)
	}
}

func TestBaseStateBoundsAtExtremes(t *testing.T) {
	w, o := threshWorkload(t, 40, 10, 0.5)
	st := newBaseState(w, o, 0)
	for st.hi < 3 {
		st.extendUp()
	}
	if got := st.precisionLB(2); got != 1 {
		t.Errorf("precisionLB with empty D+ = %v, want 1", got)
	}
	if got := st.recallLB(2); got != 1 {
		t.Errorf("recallLB with empty D- = %v, want 1", got)
	}
}

func TestStrataEstimatorConsistency(t *testing.T) {
	strata := []stats.Stratum{
		{Size: 100, Sampled: 100, Matches: 5},
		{Size: 100, Sampled: 100, Matches: 50},
		{Size: 100, Sampled: 100, Matches: 95},
	}
	e, err := newStrataEstimator(strata)
	if err != nil {
		t.Fatal(err)
	}
	// Census strata: intervals are exact.
	lo, hi, err := e.prefixInterval(2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 55 || hi != 55 {
		t.Errorf("prefix(2) = [%v,%v], want [55,55]", lo, hi)
	}
	lo, hi, err = e.suffixInterval(1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 145 || hi != 145 {
		t.Errorf("suffix(1) = [%v,%v], want [145,145]", lo, hi)
	}
	lo, hi, err = e.midInterval(1, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 50 || hi != 50 {
		t.Errorf("mid(1,1) = [%v,%v], want [50,50]", lo, hi)
	}
	// Empty ranges.
	if lo, hi, _ := e.prefixInterval(0, 0.9); lo != 0 || hi != 0 {
		t.Error("empty prefix should be [0,0]")
	}
	if lo, hi, _ := e.suffixInterval(3, 0.9); lo != 0 || hi != 0 {
		t.Error("empty suffix should be [0,0]")
	}
	if lo, hi, _ := e.midInterval(2, 1, 0.9); lo != 0 || hi != 0 {
		t.Error("empty mid should be [0,0]")
	}
}

func TestStrataEstimatorSampledWidth(t *testing.T) {
	strata := []stats.Stratum{
		{Size: 200, Sampled: 20, Matches: 10},
		{Size: 200, Sampled: 20, Matches: 10},
	}
	e, err := newStrataEstimator(strata)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := e.prefixInterval(2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < 200 && hi > 200) {
		t.Errorf("interval [%v,%v] should straddle the point estimate 200", lo, hi)
	}
	lo95, hi95, _ := e.prefixInterval(2, 0.95)
	if !(lo95 <= lo && hi95 >= hi) {
		t.Error("higher confidence must widen the interval")
	}
	// Rejects unsampled subsets.
	if _, err := newStrataEstimator([]stats.Stratum{{Size: 10}}); err == nil {
		t.Error("unsampled stratum should fail")
	}
}

// TestGPEstimatorAgainstBruteForce verifies the prefix/suffix/mid intervals
// against a direct per-subset sum of the independent aggregation, computed
// from the full joint posterior's diagonal rather than from the estimator's
// prefix sums.
func TestGPEstimatorAgainstBruteForce(t *testing.T) {
	w, _ := threshWorkload(t, 300, 20, 0.5) // 15 subsets
	// Fit a GP on a few centers of the true step function.
	var xs, ys []float64
	for k := 0; k < w.Subsets(); k += 3 {
		v := w.SubsetMeanSim(k)
		xs = append(xs, v)
		y := 0.0
		if v >= 0.5 {
			y = 1
		}
		ys = append(ys, y)
	}
	reg, err := gp.Fit(xs, ys, nil, gp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const bandVar = 1e-3
	est, err := newGPEstimator(w, reg, bandVar, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Subsets()
	centers := make([]float64, m)
	sizes := make([]float64, m)
	for k := 0; k < m; k++ {
		centers[k] = w.SubsetMeanSim(k)
		sizes[k] = float64(w.SubsetLen(k))
	}
	post, err := reg.Predict(centers)
	if err != nil {
		t.Fatal(err)
	}
	noiseVar := reg.Config().NoiseFloor + bandVar
	// brute returns the mean, variance and population of subsets [a,b).
	brute := func(a, b int) (mean, vari, pop float64) {
		for i := a; i < b; i++ {
			mu := min(max(post.Mean[i], 0), 1)
			mean += sizes[i] * mu
			vari += sizes[i]*sizes[i]*(max(post.Cov.At(i, i), 0)+noiseVar) + sizes[i]*mu*(1-mu)
			pop += sizes[i]
		}
		return mean, vari, pop
	}
	const theta = 0.9
	interior := 0 // intervals the [0, pop] clamp left untouched on both sides
	check := func(name string, a, b int, gotLo, gotHi float64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mean, vari, pop := brute(a, b)
		wantLo, wantHi, err := est.intervalFrom(mean, vari, pop, theta)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotLo-wantLo) > 1e-6*(1+wantLo) || math.Abs(gotHi-wantHi) > 1e-6*(1+wantHi) {
			t.Errorf("%s = [%v, %v], want [%v, %v]", name, gotLo, gotHi, wantLo, wantHi)
		}
		if wantLo > 0 && wantHi < pop {
			interior++
		}
	}
	for i := 1; i <= m; i++ {
		lo, hi, err := est.prefixInterval(i, theta)
		check(fmt.Sprintf("prefixInterval(%d)", i), 0, i, lo, hi, err)
	}
	for i := 0; i < m; i++ {
		lo, hi, err := est.suffixInterval(i, theta)
		check(fmt.Sprintf("suffixInterval(%d)", i), i, m, lo, hi, err)
	}
	for a := 0; a < m; a += 4 {
		for b := a; b < m; b++ {
			lo, hi, err := est.midInterval(a, b, theta)
			check(fmt.Sprintf("midInterval(%d,%d)", a, b), a, b+1, lo, hi, err)
		}
	}
	if interior < 10 {
		t.Errorf("only %d intervals escape the [0, pop] clamp; the comparison is vacuous", interior)
	}
	// Out-of-range mid query errors.
	if _, _, err := est.midInterval(0, m, 0.9); err == nil {
		t.Error("out-of-range mid query should fail")
	}
}

func TestGPEstimatorIntervalProperties(t *testing.T) {
	w, _ := threshWorkload(t, 400, 20, 0.5)
	var xs, ys []float64
	for k := 0; k < w.Subsets(); k += 2 {
		v := w.SubsetMeanSim(k)
		xs = append(xs, v)
		y := 0.0
		if v >= 0.5 {
			y = 1
		}
		ys = append(ys, y)
	}
	reg, err := gp.Fit(xs, ys, nil, gp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	est, err := newGPEstimator(w, reg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint8, thetaRaw float64) bool {
		m := w.Subsets()
		a := int(aRaw) % m
		b := int(bRaw) % m
		if a > b {
			a, b = b, a
		}
		theta := 0.5 + 0.49*math.Abs(math.Mod(thetaRaw, 1))
		lo, hi, err := est.midInterval(a, b, theta)
		if err != nil {
			return false
		}
		pop := float64(w.RangeLen(a, b))
		return lo >= 0 && hi <= pop && lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestSamplingConfigNormalization(t *testing.T) {
	if _, err := (SamplingConfig{PairsPerSubset: -1}).normalized(); err == nil {
		t.Error("negative PairsPerSubset should fail")
	}
	if _, err := (SamplingConfig{MinSampleFrac: 0.5, MaxSampleFrac: 0.1}).normalized(); err == nil {
		t.Error("inverted fraction range should fail")
	}
	if _, err := (SamplingConfig{Epsilon: -0.1}).normalized(); err == nil {
		t.Error("negative epsilon should fail")
	}
	if _, err := (SamplingConfig{PairsPerSubset: 10}).normalized(); err == nil {
		t.Error("partial sampling without Rand should fail")
	}
	cfg, err := (SamplingConfig{}).normalized()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MinSampleFrac != 0.01 || cfg.MaxSampleFrac != 0.05 || cfg.Epsilon != DefaultEpsilon {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestInsertSorted(t *testing.T) {
	xs := []int{1, 5, 9}
	xs = insertSorted(xs, 5) // duplicate: unchanged
	if len(xs) != 3 {
		t.Fatalf("duplicate insert changed slice: %v", xs)
	}
	xs = insertSorted(xs, 3)
	xs = insertSorted(xs, 11)
	xs = insertSorted(xs, 0)
	want := []int{0, 1, 3, 5, 9, 11}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("insertSorted = %v, want %v", xs, want)
		}
	}
}
