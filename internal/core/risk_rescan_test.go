package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"humo/internal/risk"
)

// riskBoundsFullScan is riskBounds without the critical-value-free
// rejection: every position runs the full Eq. 13/14 check. It is the oracle
// the rejection must reproduce exactly.
func riskBoundsFullScan(w *Workload, req Requirement, est rangeEstimator) (lo, hi int, err error) {
	m := w.Subsets()
	sqrtTheta := math.Sqrt(req.Theta)
	lo = 0
	for l := m - 1; l >= 1; l-- {
		ok, err := recallOKAt(req, est, sqrtTheta, l)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			lo = l
			break
		}
	}
	hi = m - 1
	for h := lo - 1; h < m-1; h++ {
		ok, err := precisionOKAt(w, req, est, sqrtTheta, lo, h)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			hi = h
			break
		}
	}
	return lo, hi, nil
}

// riskState is a random risk-search state: a workload, a GP posterior, a
// scheduler holding human strata, and an estimator refreshed over them.
type riskState struct {
	w     *Workload
	model *gpModel
	sched *risk.Scheduler
	req   Requirement
	p     []float64 // true match proportion per subset
	est   *riskEstimator
}

// randomRiskState draws a state over m subsets. The proportion curve is
// monotone, a step, or scattered (so envelope anchors cross); each subset's
// human sample is empty, a single answer, a handful, or at least
// monoMinSample answers (the envelope anchors).
func randomRiskState(t testing.TB, rng *rand.Rand, m int) riskState {
	t.Helper()
	u := []int{1, 4, 25, 60}[rng.Intn(4)]
	n := m*u - rng.Intn(u)
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{ID: i, Sim: float64(i) / float64(n)}
	}
	w, err := NewWorkload(pairs, u)
	if err != nil {
		t.Fatal(err)
	}
	if w.Subsets() != m {
		t.Fatalf("workload has %d subsets, want %d", w.Subsets(), m)
	}
	shape, tau := rng.Intn(3), 4+rng.Float64()*20
	p := make([]float64, m)
	for k := range p {
		x := w.SubsetMeanSim(k)
		switch shape {
		case 0:
			p[k] = 1 / (1 + math.Exp(-tau*(x-0.5)))
		case 1:
			if x >= 0.5 {
				p[k] = 0.95
			}
		default:
			p[k] = rng.Float64()
		}
	}
	g := &gpEstimator{
		n: make([]float64, m), mean: make([]float64, m),
		indepVar: make([]float64, m+1),
		ancK:     make([]float64, m+1), ancR: make([]float64, m+1), ancR2: make([]float64, m+1),
	}
	subsets := make([]risk.Subset, m)
	for k := 0; k < m; k++ {
		size := w.SubsetLen(k)
		g.n[k] = float64(size)
		g.mean[k] = min(max(p[k]+rng.NormFloat64()*0.1, 0), 1)
		g.indepVar[k+1] = g.indepVar[k] + g.n[k]*g.n[k]*rng.Float64()*0.01 + g.n[k]*g.mean[k]*(1-g.mean[k])
		g.ancK[k+1], g.ancR[k+1], g.ancR2[k+1] = g.ancK[k], g.ancR[k], g.ancR2[k]
		if rng.Intn(3) == 0 {
			r := rng.NormFloat64() * 0.1
			g.ancK[k+1]++
			g.ancR[k+1] += r
			g.ancR2[k+1] += r * r
		}
		start, end := w.SubsetRange(k)
		ids := make([]int, 0, size)
		for i := start; i < end; i++ {
			ids = append(ids, w.Pair(i).ID)
		}
		var observed int
		switch c := rng.Intn(10); {
		case c < 4:
		case c < 5:
			observed = 1
		case c < 7:
			observed = 2 + rng.Intn(monoMinSample-2)
		default:
			observed = monoMinSample + rng.Intn(size+1)
		}
		observed = min(observed, size)
		matches := 0
		for i := 0; i < observed; i++ {
			if rng.Float64() < p[k] {
				matches++
			}
		}
		subsets[k] = risk.Subset{IDs: ids, Prior: g.mean[k], Observed: observed, ObservedMatches: matches}
	}
	sched, err := risk.NewScheduler(subsets, risk.Config{})
	if err != nil {
		t.Fatal(err)
	}
	model := &gpModel{est: g, bandVar: []float64{0, 1e-4, 1e-2}[rng.Intn(3)]}
	level := func() float64 { return []float64{0.5, 0.8, 0.9, 0.95, 0.99}[rng.Intn(5)] }
	req := Requirement{Alpha: level(), Beta: level(), Theta: level()}
	if rng.Intn(10) == 0 {
		req.Alpha, req.Beta = 1, 1
	}
	est := newRiskEstimator(w, model, sched, req)
	est.refresh()
	return riskState{w: w, model: model, sched: sched, req: req, p: p, est: est}
}

// TestRiskBoundsMatchesFullScan pins the critical-value-free rejection:
// over random estimator states riskBounds returns exactly the full scan's
// (lo, hi), and every position the rejection skips — at any lower bound,
// not only the accepted one — also fails the full check.
func TestRiskBoundsMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var seen struct{ m1, zero, one, anchored, emptyDH, crossed, rejected, full int }
	for trial := 0; trial < 1500; trial++ {
		m := []int{1, 2, 3, 8, 20, 45}[rng.Intn(6)]
		st := randomRiskState(t, rng, m)
		est := st.est
		lo, hi, err := riskBounds(st.w, st.req, est)
		if err != nil {
			t.Fatal(err)
		}
		wantLo, wantHi, err := riskBoundsFullScan(st.w, st.req, est)
		if err != nil {
			t.Fatal(err)
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("trial %d (m=%d, req %+v): riskBounds = (%d,%d), full scan (%d,%d)", trial, m, st.req, lo, hi, wantLo, wantHi)
		}
		sqrtTheta := math.Sqrt(st.req.Theta)
		for l := 1; l < m; l++ {
			if !est.recallFails(st.req.Beta, l) {
				seen.full++
				continue
			}
			seen.rejected++
			if ok, err := recallOKAt(st.req, est, sqrtTheta, l); err != nil || ok {
				t.Fatalf("trial %d: recall rejected at l=%d but the full check passes (err %v)", trial, l, err)
			}
		}
		for a := 0; a < m; a++ {
			for h := a - 1; h < m-1; h++ {
				if !est.precisionFails(st.w, st.req.Alpha, a, h) {
					seen.full++
					continue
				}
				seen.rejected++
				if ok, err := precisionOKAt(st.w, st.req, est, sqrtTheta, a, h); err != nil || ok {
					t.Fatalf("trial %d: precision rejected at [%d,%d] but the full check passes (err %v)", trial, a, h, err)
				}
			}
		}
		if m == 1 {
			seen.m1++
		}
		if lo > hi {
			seen.emptyDH++
		}
		for k := 0; k < m; k++ {
			switch s := est.last[k].Sampled; {
			case s == 0:
				seen.zero++
				if est.rateLo[k] > est.rateHi[k] {
					seen.crossed++
				}
			case s == 1:
				seen.one++
			case s >= monoMinSample:
				seen.anchored++
			}
		}
	}
	t.Logf("coverage %+v", seen)
	if seen.m1 == 0 || seen.zero == 0 || seen.one == 0 || seen.anchored == 0 ||
		seen.emptyDH == 0 || seen.crossed == 0 || seen.rejected == 0 || seen.full == 0 {
		t.Fatalf("random states missed a case: %+v", seen)
	}
}

// TestRefreshMatchesFullRebuild pins the incremental refresh: after random
// answer batches every prefix array and envelope rate is bit for bit what a
// fresh estimator's first refresh builds over the same strata, including
// batches whose answers lower the upper envelope below their own subset.
func TestRefreshMatchesFullRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lowered := 0
	for trial := 0; trial < 200; trial++ {
		m := []int{1, 2, 8, 30}[rng.Intn(4)]
		st := randomRiskState(t, rng, m)
		assertFullRebuild(t, st)
		for batch := 0; batch < 25; batch++ {
			rateHi := slices.Clone(st.est.rateHi)
			touched := m
			for i := 1 + rng.Intn(10); i > 0; i-- {
				k := rng.Intn(m)
				if s := st.sched.Stratum(k); s.Sampled == s.Size {
					continue
				}
				st.sched.Observe(k, rng.Float64() < st.p[k])
				touched = min(touched, k)
			}
			st.est.refresh()
			for k := 0; k < touched; k++ {
				if st.est.rateHi[k] != rateHi[k] {
					lowered++
					break
				}
			}
			assertFullRebuild(t, st)
		}
	}
	if lowered == 0 {
		t.Fatal("no batch lowered the upper envelope below its own subsets")
	}
}

// assertFullRebuild compares st.est with a fresh estimator over the same
// strata under math.Float64bits.
func assertFullRebuild(t *testing.T, st riskState) {
	t.Helper()
	fresh := newRiskEstimator(st.w, st.model, st.sched, st.req)
	fresh.refresh()
	arrays := func(e *riskEstimator) map[string][]float64 {
		return map[string][]float64{
			"sMean": e.sMean, "sVar": e.sVar, "sPairs": e.sPairs, "sDF": e.sDF,
			"gMean": e.gMean, "gVar": e.gVar, "gPairs": e.gPairs,
			"gMonoLo": e.gMonoLo, "gMonoHi": e.gMonoHi,
			"anchorLo": e.anchorLo, "anchorHi": e.anchorHi,
			"rateLo": e.rateLo, "rateHi": e.rateHi,
		}
	}
	want := arrays(fresh)
	for name, got := range arrays(st.est) {
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[name][i]) {
				t.Fatalf("%s[%d] = %v, full rebuild %v", name, i, got[i], want[name][i])
			}
		}
	}
	if !slices.Equal(st.est.last, fresh.last) {
		t.Fatal("cached strata differ from the scheduler's")
	}
}

// rescanAnswer is one recorded human answer of a risk schedule.
type rescanAnswer struct {
	subset int
	match  bool
}

// rescanFixture is BenchmarkRiskRescan's input, built once per process: a
// search_mix-sized logistic workload (300k pairs, m = 1,500 subsets of
// 200), its partial-sampling GP fit, the scheduler's subsets, and every
// answer batch of one full risk schedule over it, in order.
var rescanFixture struct {
	once    sync.Once
	w       *Workload
	model   *gpModel
	subsets []risk.Subset
	req     Requirement
	batches [][]rescanAnswer
	err     error
}

func loadRescanFixture() error {
	f := &rescanFixture
	f.once.Do(func() {
		// Eq. 22's logistic proportion (tau 14) with a per-subset
		// perturbation (sigma 0.1), similarities uniform on [0, 1).
		const n, tau, sigma = 300000, 14.0, 0.1
		rng := rand.New(rand.NewSource(11))
		pairs := make([]Pair, n)
		truth := make(map[int]bool, n)
		eps := 0.0
		for i := range pairs {
			v := float64(i) / n
			p0 := 0.95 / (1 + math.Exp(-tau*(v-0.55)))
			if i%DefaultSubsetSize == 0 {
				eps = sigma * rng.NormFloat64() * 2 * math.Sqrt(p0*(1-p0))
			}
			pairs[i] = Pair{ID: i, Sim: v}
			truth[i] = rng.Float64() < p0+eps
		}
		if f.w, f.err = NewWorkload(pairs, 0); f.err != nil {
			return
		}
		f.req = Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
		o := newMapOracle(truth)
		sCfg, err := SamplingConfig{Rand: rand.New(rand.NewSource(1))}.normalized()
		if err != nil {
			f.err = err
			return
		}
		if f.model, f.err = fitPartialSampling(f.w, o, sCfg, false); f.err != nil {
			return
		}
		f.subsets, _ = riskSubsets(f.w, f.model, sCfg.Rand)
		sched, est, err := newRescan()
		if err != nil {
			f.err = err
			return
		}
		lo, hi, err := riskBounds(f.w, f.req, est)
		for err == nil && lo <= hi && sched.Remaining(lo, hi) > 0 {
			var batch []rescanAnswer
			for _, r := range sched.NextBatch(lo, hi, 0) {
				a := rescanAnswer{r.Subset, o.Label(r.ID)}
				sched.Observe(a.subset, a.match)
				batch = append(batch, a)
			}
			f.batches = append(f.batches, batch)
			est.refresh()
			lo, hi, err = riskBounds(f.w, f.req, est)
		}
		f.err = err
	})
	return f.err
}

// newRescan starts the fixture's schedule over: a scheduler holding only
// the sampling-phase answers and an estimator refreshed over it.
func newRescan() (*risk.Scheduler, *riskEstimator, error) {
	f := &rescanFixture
	sched, err := risk.NewScheduler(f.subsets, risk.Config{})
	if err != nil {
		return nil, nil, err
	}
	est := newRiskEstimator(f.w, f.model, sched, f.req)
	est.refresh()
	return sched, est, nil
}

// BenchmarkRiskRescan is the per-batch re-estimation of the risk search at
// m = 1,500: one op applies one recorded 10-answer batch, refreshes the
// estimator and rescans the certified bounds. The ops replay a whole
// schedule in order, so their mean covers every stage of it; starting the
// schedule over is not timed. scripts/bench_gate.sh fails a PR when its
// mean ns/op regresses by more than 20% against the base commit.
func BenchmarkRiskRescan(b *testing.B) {
	if err := loadRescanFixture(); err != nil {
		b.Fatal(err)
	}
	f := &rescanFixture
	if len(f.batches) == 0 {
		b.Fatal("the recorded schedule has no batches")
	}
	var est *riskEstimator
	var sched *risk.Scheduler
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := f.batches[i%len(f.batches)]
		if i%len(f.batches) == 0 {
			b.StopTimer()
			var err error
			if sched, est, err = newRescan(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		for _, a := range batch {
			sched.Observe(a.subset, a.match)
		}
		est.refresh()
		if _, _, err := riskBounds(f.w, f.req, est); err != nil {
			b.Fatal(err)
		}
	}
}
