package core

import (
	"fmt"
	"math"
	"math/rand"

	"humo/internal/risk"
	"humo/internal/stats"
)

// RiskConfig configures the risk-aware search (the r-HUMO refinement of the
// paper's framework): the sampling configuration of the initial
// partial-sampling fit plus the schedule knobs of internal/risk.
type RiskConfig struct {
	// Sampling configures the initial partial-sampling fit. The risk
	// certification bounds aggregate its GP part with the same independent
	// per-subset variance (plus the cluster hull) over the unanswered
	// subsets that remain once human strata replace GP estimates.
	Sampling SamplingConfig
	// Schedule tunes the risk scheduler (batch size, prior strength, the
	// CVaR-style tail knob, scoring workers).
	Schedule risk.Config
	// BudgetPairs, when positive, is the anytime budget: the risk schedule
	// stops after at most this many labels even if it has not converged.
	// The returned division still satisfies the requirement with confidence
	// theta once its DH is human-labeled (Resolve does that); the budget
	// only caps the refinement investment, trading a possibly larger DH for
	// a bounded schedule.
	BudgetPairs int
	// Progress, when non-nil, is invoked after every re-estimation round
	// (and once on termination) with the current schedule state. It is
	// called synchronously from the search; keep it fast.
	Progress func(RiskProgress)
}

// RiskProgress is a point-in-time snapshot of a running risk schedule.
type RiskProgress struct {
	// Lo, Hi are the currently certified DH bounds: labeling subsets
	// [Lo, Hi] meets the requirement with confidence theta under the
	// current estimates.
	Lo, Hi int
	// Remaining is the number of unanswered pairs inside the current DH.
	Remaining int
	// Answered is the number of pairs the schedule has labeled so far
	// (the GP sampling phase not included).
	Answered int
	// Batches is the number of completed re-estimation rounds.
	Batches int
	// Certified reports schedule convergence: every pair of the final DH is
	// answered, so the division is fully verified the moment it is returned.
	Certified bool
	// BudgetExhausted reports an anytime stop: the label budget ran out
	// before the schedule converged.
	BudgetExhausted bool
}

// monoMinSample is the minimal per-subset sample before its observed rate
// may anchor the monotone envelope: rates from a handful of answers are too
// noisy to extrapolate across subsets.
const monoMinSample = 20

// riskEstimator implements rangeEstimator by combining, per subset, the
// better of the available evidence sources: subsets with human answers
// contribute stratified random-sampling estimates (the answered prefix of
// the shuffled schedule order is a simple random sample; a fully answered
// subset is an exact census with zero variance), and untouched subsets
// contribute the Gaussian-process posterior of the partial-sampling fit.
// Range queries sum a Student-t interval over the stratified part and a
// normal interval over the GP part; the GP part is then
//
//   - widened with the anchor-residual cluster correction (scaled to the GP
//     part's population) that protects the smooth regressor against bursty
//     data — gpEstimator's protection, vanishing as answers replace GP
//     estimates, and
//   - tightened with the monotone envelope of the observed rates (§V's
//     monotonicity assumption, the same source of power HybridSearch taps
//     with its window-rate estimates): an unanswered subset's proportion is
//     at least the best well-supported observed rate below it and at most
//     the (Jeffreys-corrected) worst above it.
type riskEstimator struct {
	gp    *gpEstimator
	sched *risk.Scheduler
	m     int
	// monoTheta is the confidence of the per-anchor Wilson bounds feeding
	// the monotone envelope: at least the strongest level any interval
	// query runs at (sqrt of the requirement's Theta — searchBounds'
	// per-quantity level), so an envelope value never substitutes a weaker
	// confidence into a stronger bound, with a 0.95 floor for lenient
	// requirements.
	monoTheta float64
	// bandAdj is the monotone envelope's irregularity allowance: the true
	// per-subset proportions scatter around the monotone latent curve with
	// variance bandVar (the sigma^2 of the paper's synthetic generator), so
	// extrapolating one subset's observed rate to another must concede
	// ~2*sqrt(2*bandVar) — both subsets carry independent irregularity. On
	// near-monotone workloads the allowance is negligible and the envelope
	// bites; on irregular ones it widens until the envelope switches itself
	// off rather than certify on a violated assumption.
	bandAdj float64

	// Prefix sums over subsets [0, i), maintained by refresh().
	sMean, sVar, sPairs, sDF []float64 // stratified part (answered subsets)
	gMean, gVar, gPairs      []float64 // GP part (unanswered subsets)
	gMonoLo, gMonoHi         []float64 // monotone envelope of the GP part
	// Per-subset state refresh() keeps across batches so it recomputes only
	// what a batch changed: each subset's stratum as of the last refresh
	// (Sampled -1 before the first), its Wilson anchor rates (-Inf/+Inf
	// where it does not anchor), and the envelope rates the two sweeps
	// derive from them (running best lower / worst upper anchor rate).
	last               []stats.Stratum
	anchorLo, anchorHi []float64
	rateLo, rateHi     []float64

	// crit holds the shared critical-value tables: the Student-t quantile
	// is an iterative special function, and the full checks of a bound
	// rescan would otherwise spend most of their time in it. tab is crit's
	// table of the confidence interval last ran at (riskBounds runs every
	// query at one), so a query reads it directly instead of looking it up
	// in crit. Caching it makes the estimator unsafe for concurrent
	// queries, which RiskSearch never issues.
	crit stats.CritValues
	tab  *stats.TTable
}

func newRiskEstimator(w *Workload, model *gpModel, sched *risk.Scheduler, req Requirement) *riskEstimator {
	m := w.Subsets()
	e := &riskEstimator{
		gp: model.est, sched: sched, m: m,
		monoTheta: math.Max(0.95, math.Sqrt(req.Theta)),
		bandAdj:   2 * math.Sqrt(2*model.bandVar),
		sMean:     make([]float64, m+1), sVar: make([]float64, m+1),
		sPairs: make([]float64, m+1), sDF: make([]float64, m+1),
		gMean: make([]float64, m+1), gVar: make([]float64, m+1),
		gPairs:  make([]float64, m+1),
		gMonoLo: make([]float64, m+1), gMonoHi: make([]float64, m+1),
		last:     make([]stats.Stratum, m),
		anchorLo: make([]float64, m), anchorHi: make([]float64, m),
		rateLo: make([]float64, m), rateHi: make([]float64, m),
	}
	for k := range e.last {
		e.last[k].Sampled = -1
	}
	return e
}

// stratum returns the human-answer stratum for subset k. The scheduler's
// view is complete: RiskSearch pre-seeds every sampling-phase answer into
// it (as each subset's observed prefix), so the GP-phase evidence and the
// schedule's own answers accumulate in one place.
func (e *riskEstimator) stratum(k int) stats.Stratum {
	return e.sched.Stratum(k)
}

// refresh brings the prefix sums up to date with the current strata. It
// recomputes only what the answers since the last call changed, and the
// result is bit-identical to a from-scratch rebuild:
//
//   - a subset's Wilson anchors are recomputed only when its (Sampled,
//     Matches) changed;
//   - the lower envelope sweep resumes at the lowest changed subset, the
//     upper one at the highest; both note the lowest unanswered subset
//     whose envelope rate moved — an answer can lower rateHi far below
//     its own subset;
//   - each group of prefix sums (stratified, GP, envelope) is re-added
//     from the lowest subset that changes it, in the same left-to-right
//     order as the first build; the entries up to that subset depend only
//     on the subsets below it, so they are kept.
func (e *riskEstimator) refresh() {
	// Monotone envelope anchors: the best well-supported observed rate at
	// or below each subset, and the worst at or above. Each anchor rate is
	// its stratum's Wilson bound (never the raw proportion — an unbiased
	// estimate overshoots half the time, and the envelope multiplies that
	// error across whole regions), conceded by the irregularity allowance.
	// The upper sweep additionally requires a few observed matches: a
	// zero-match stratum says little about how many hide below it. Each
	// anchor's Wilson bounds are computed at the table's z of monoTheta
	// into anchorLo/anchorHi (-Inf/+Inf where a stratum does not anchor);
	// the two sweeps then turn them into running envelopes.
	z, zErr := e.crit.Z(e.monoTheta)
	// kS, kG and kM are the lowest subsets from which the stratified sums,
	// the GP sums and the envelope sums change; kTop is the highest subset
	// whose stratum changed.
	kS, kG, kTop := e.m, e.m, -1
	for k := 0; k < e.m; k++ {
		st, old := e.stratum(k), e.last[k]
		if st == old {
			continue
		}
		e.last[k] = st
		kS, kTop = min(kS, k), k
		if old.Sampled <= 0 { // first refresh, or the subset's first answer
			kG = min(kG, k)
		}
		lo, hi := math.Inf(-1), math.Inf(1)
		if zErr == nil && st.Sampled >= monoMinSample {
			if wLo, wHi, err := stats.WilsonIntervalZ(st.Matches, st.Sampled, z); err == nil {
				lo = wLo - e.bandAdj
				if st.Matches >= 3 {
					hi = wHi + e.bandAdj
				}
			}
		}
		e.anchorLo[k], e.anchorHi[k] = lo, hi
	}
	kM := kG
	// setRate stores subset k's envelope rate v. Only unanswered subsets
	// read the rates, so only their changes move kM.
	setRate := func(k int, rate *float64, v float64) {
		if math.Float64bits(*rate) != math.Float64bits(v) {
			*rate = v
			if e.last[k].Sampled == 0 {
				kM = min(kM, k)
			}
		}
	}
	// The running best below kS and the running worst above kTop read only
	// unchanged anchors, so the sweeps resume from them.
	best := 0.0
	if kS > 0 {
		best = e.rateLo[kS-1]
	}
	for k := kS; k < e.m; k++ {
		if r := e.anchorLo[k]; r > best {
			best = r
		}
		setRate(k, &e.rateLo[k], best)
	}
	worst := 1.0
	if kTop < e.m-1 {
		worst = e.rateHi[kTop+1]
	}
	for k := kTop; k >= 0; k-- {
		if r := e.anchorHi[k]; r < worst {
			worst = r
		}
		setRate(k, &e.rateHi[k], worst)
	}

	for k := kS; k < e.m; k++ {
		e.sMean[k+1], e.sVar[k+1], e.sPairs[k+1], e.sDF[k+1] = e.sMean[k], e.sVar[k], e.sPairs[k], e.sDF[k]
		st := e.last[k]
		if st.Sampled == 0 {
			continue
		}
		mean, v, d := st.Total()
		e.sMean[k+1] += mean
		e.sPairs[k+1] += float64(st.Size)
		e.sVar[k+1] += v
		e.sDF[k+1] += d
	}
	for k := kG; k < e.m; k++ {
		e.gMean[k+1], e.gVar[k+1], e.gPairs[k+1] = e.gMean[k], e.gVar[k], e.gPairs[k]
		if e.last[k].Sampled == 0 {
			n := e.gp.n[k]
			e.gMean[k+1] += n * e.gp.mean[k]
			e.gVar[k+1] += e.gp.indepVar[k+1] - e.gp.indepVar[k]
			e.gPairs[k+1] += n
		}
	}
	for k := kM; k < e.m; k++ {
		e.gMonoLo[k+1], e.gMonoHi[k+1] = e.gMonoLo[k], e.gMonoHi[k]
		if e.last[k].Sampled == 0 {
			n := e.gp.n[k]
			e.gMonoLo[k+1] += n * e.rateLo[k]
			e.gMonoHi[k+1] += n * e.rateHi[k]
		}
	}
}

// interval bounds the matching pairs of subsets [a, bEx) at confidence
// theta: the endpoint sum of the stratified part's Student-t interval and
// the GP part's (cluster-hulled) normal interval. Endpoint-summing two
// theta-level intervals of independent symmetric estimators is
// conservative, not a theta^2 box: the summed half-widths dominate the
// combined-variance half-width (crit_s*sd_s + crit_g*sd_g >=
// min(crit)*sqrt(sd_s^2+sd_g^2)), so the sum covers S+G with probability
// >= theta — errors cancel, they do not have to cover jointly.
func (e *riskEstimator) interval(a, bEx int, theta float64) (lo, hi float64, err error) {
	if a >= bEx {
		return 0, 0, nil
	}
	if a < 0 || bEx > e.m {
		return 0, 0, fmt.Errorf("%w: risk range [%d,%d) out of [0,%d]", ErrBadWorkload, a, bEx, e.m)
	}
	tab, err := e.table(theta)
	if err != nil {
		return 0, 0, err
	}
	var sLo, sHi float64
	if sPairs := e.sPairs[bEx] - e.sPairs[a]; sPairs > 0 {
		mean := e.sMean[bEx] - e.sMean[a]
		df := e.sDF[bEx] - e.sDF[a]
		if df < 1 {
			df = 1
		}
		crit, err := e.critT(tab, df)
		if err != nil {
			return 0, 0, err
		}
		sd := math.Sqrt(e.sVar[bEx] - e.sVar[a])
		sLo, sHi, err = clampCount(mean-crit*sd, mean+crit*sd, sPairs)
		if err != nil {
			return 0, 0, err
		}
	}
	var gLo, gHi float64
	if gPairs := e.gPairs[bEx] - e.gPairs[a]; gPairs > 0 {
		mean := e.gMean[bEx] - e.gMean[a]
		z := tab.Z()
		sd := math.Sqrt(e.gVar[bEx] - e.gVar[a])
		gLo, gHi, err = clampCount(mean-z*sd, mean+z*sd, gPairs)
		if err != nil {
			return 0, 0, err
		}
		// Cluster-sample hull on the GP part: the anchors inside the range
		// estimate the regressor's local bias (see gpEstimator), applied to
		// the GP-estimated population only — census evidence needs no such
		// protection, so the hull's conservatism shrinks as answers arrive.
		if k := e.gp.ancK[bEx] - e.gp.ancK[a]; k >= 2 {
			rMean := (e.gp.ancR[bEx] - e.gp.ancR[a]) / k
			s2 := ((e.gp.ancR2[bEx] - e.gp.ancR2[a]) - k*rMean*rMean) / (k - 1)
			if s2 < 0 {
				s2 = 0
			}
			crit, err := e.critT(tab, k-1)
			if err != nil {
				return 0, 0, err
			}
			total := mean + gPairs*rMean
			margin := crit * gPairs * math.Sqrt(s2/k)
			cLo, cHi, err := clampCount(total-margin, total+margin, gPairs)
			if err != nil {
				return 0, 0, err
			}
			gLo, gHi = math.Min(gLo, cLo), math.Max(gHi, cHi)
		}
		// Monotone-envelope tightening: the better of the sampling-based and
		// the monotonicity-based bound, the hybrid search's move applied per
		// subset. A noise-crossed envelope concedes the lower bound.
		if mLo := e.gMonoLo[bEx] - e.gMonoLo[a]; mLo > gLo {
			gLo = mLo
		}
		if mHi := e.gMonoHi[bEx] - e.gMonoHi[a]; mHi < gHi {
			gHi = mHi
		}
		if gLo > gHi {
			gLo = gHi
		}
	}
	return sLo + gLo, sHi + gHi, nil
}

// table returns the held table of confidence theta.
func (e *riskEstimator) table(theta float64) (*stats.TTable, error) {
	if e.tab != nil && e.tab.Theta() == theta {
		return e.tab, nil
	}
	tab, err := e.crit.Table(theta)
	if err != nil {
		return nil, err
	}
	e.tab = tab
	return tab, nil
}

// critT returns crit.T(tab.Theta(), df): a direct read of the table within
// its range, crit's own memo beyond it.
func (e *riskEstimator) critT(tab *stats.TTable, df float64) (float64, error) {
	if df > stats.TTableMaxDF {
		return e.crit.T(tab.Theta(), df)
	}
	return tab.At(df)
}

// loMax and hiMin bound interval(a, bEx, theta) at every theta from the
// prefix sums alone, with no critical value: loMax >= lo and hiMin <= hi.
// An interval endpoint moves away from its part's mean by crit*sd >= 0 and
// is then clamped to [0, pairs]; the GP part's lo is at most the higher of
// that and the envelope's lower sum, its hi at least the lower of that and
// the envelope's upper sum. The differences are the very expressions
// interval evaluates, and rounding is monotone, so the bounds hold in IEEE
// arithmetic too; a NaN in a sum makes the bound NaN. Every lo is also
// >= 0: each prefix array is a running sum of nonnegative terms (the GP
// means are clamped to [0, 1], the envelope rates are >= 0), so no range
// sum is negative.
func (e *riskEstimator) loMax(a, bEx int) float64 {
	return max(e.sMean[bEx]-e.sMean[a], 0) +
		max(e.gMean[bEx]-e.gMean[a], 0, e.gMonoLo[bEx]-e.gMonoLo[a])
}

func (e *riskEstimator) hiMin(a, bEx int) float64 {
	return min(e.sMean[bEx]-e.sMean[a], e.sPairs[bEx]-e.sPairs[a]) +
		min(e.gMean[bEx]-e.gMean[a], e.gPairs[bEx]-e.gPairs[a], e.gMonoHi[bEx]-e.gMonoHi[a])
}

// rejectSlack is the relative margin by which a critical-value-free bound
// must miss its target before riskBounds skips a position. It absorbs the
// few roundings by which the full check's ratio can exceed the bound's.
const rejectSlack = 1e-9

// recallFails reports that recallOKAt(req, e, theta, l) is false at every
// theta. found (the suffix's lo) is at most loMax(l, m) and missed (the
// prefix's hi) at least hiMin(0, l) > 0, so the condition's ratio
// found/(found+missed) is at most loMax/(loMax+hiMin), and found == 0 fails
// on missed > 0. false means "not proven", never "passes"; a NaN bound
// proves nothing.
func (e *riskEstimator) recallFails(beta float64, l int) bool {
	missed := e.hiMin(0, l)
	if !(missed > 0) {
		return false
	}
	found := e.loMax(l, e.m)
	return found/(found+missed)*(1+rejectSlack) < beta-1e-12
}

// precisionFails reports that precisionOKAt(w, req, e, theta, lo, h) is
// false at every theta. With D+'s pairs P > 0, the condition's ratio
// (dh+plus)/(dh+P) grows with dh >= 0 and with plus <= P, so it is at most
// the ratio at dh = loMax(lo, h+1) and plus = min(loMax(h+1, m), P).
func (e *riskEstimator) precisionFails(w *Workload, alpha float64, lo, h int) bool {
	plusPairs := float64(w.RangeLen(h+1, e.m-1))
	if !(plusPairs > 0) {
		return false
	}
	dh := e.loMax(lo, h+1)
	plus := min(e.loMax(h+1, e.m), plusPairs)
	return (dh+plus)/(dh+plusPairs)*(1+rejectSlack) < alpha-1e-12
}

func (e *riskEstimator) prefixInterval(hiEx int, theta float64) (float64, float64, error) {
	return e.interval(0, hiEx, theta)
}

func (e *riskEstimator) suffixInterval(loIn int, theta float64) (float64, float64, error) {
	return e.interval(loIn, e.m, theta)
}

func (e *riskEstimator) midInterval(a, b int, theta float64) (float64, float64, error) {
	return e.interval(a, b+1, theta)
}

// riskBounds locates the minimal certified DH like searchBounds, but scans
// the full candidate range instead of stopping at the first failing subset.
// searchBounds' early stop is conservative streak-finding: with hulled,
// evidence-mixed intervals the conditions are not monotone in the bound (a
// bursty region below a candidate threshold can fail recall at l while
// every later l passes), and the risk loop would then schedule the whole
// spurious gap. Each Eq. 13/14 condition is a self-contained certification
// of its own bound, so taking the best passing candidate is equally sound —
// and lets incoming answers move the bounds past local evidence gaps. For
// the same reason no binary search or early stop may shorten the scans.
//
// Most positions fail by a wide margin, so each is first tested against a
// necessary condition read off the prefix sums (recallFails,
// precisionFails); only a position that condition cannot reject runs the
// full check with its critical values. The rejection never skips a
// position the full check would accept, so (lo, hi) is exactly the full
// scan's.
func riskBounds(w *Workload, req Requirement, est *riskEstimator) (lo, hi int, err error) {
	m := w.Subsets()
	sqrtTheta := math.Sqrt(req.Theta)
	lo = 0
	for l := m - 1; l >= 1; l-- {
		if est.recallFails(req.Beta, l) {
			continue
		}
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
		if est.precisionFails(w, req.Alpha, lo, h) {
			continue
		}
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

// riskSubsets lays out the scheduler's subsets: the pairs the sampling phase
// already labeled lead each subset's order as an observed prefix (so their
// evidence seeds the posteriors and they are never re-scheduled — re-asks
// would be free at a memoizing oracle but would still burn the anytime
// budget), followed by the rest in seeded-shuffle order. The sampling-phase
// ids and the shuffle are both uniform draws, so every answered prefix
// remains a simple random sample of its subset. Priors come from the GP
// posterior. preSeeded holds each subset's sampling-phase answer count.
func riskSubsets(w *Workload, model *gpModel, rnd *rand.Rand) (subsets []risk.Subset, preSeeded []int) {
	m := w.Subsets()
	subsets = make([]risk.Subset, m)
	preSeeded = make([]int, m)
	inSample := make(map[int]struct{})
	for k := 0; k < m; k++ {
		start, end := w.SubsetRange(k)
		n := end - start
		sampled := model.sampledIDs[k]
		clear(inSample)
		for _, id := range sampled {
			inSample[id] = struct{}{}
		}
		rest := make([]int, 0, n-len(sampled))
		for i := start; i < end; i++ {
			if _, ok := inSample[w.Pair(i).ID]; !ok {
				rest = append(rest, w.Pair(i).ID)
			}
		}
		ids := make([]int, 0, n)
		ids = append(ids, sampled...)
		for _, off := range rnd.Perm(len(rest)) {
			ids = append(ids, rest[off])
		}
		subsets[k] = risk.Subset{IDs: ids, Prior: model.est.mean[k]}
		if st, ok := model.strata[k]; ok {
			subsets[k].Observed = st.Sampled
			subsets[k].ObservedMatches = st.Matches
			preSeeded[k] = st.Sampled
		}
	}
	return subsets, preSeeded
}

// RiskSearch runs the risk-aware optimization (r-HUMO): it fits the
// partial-sampling Gaussian process exactly like PartialSamplingSearch, then
// — instead of handing the whole certified DH to the human at once — labels
// it rarest-risk-first in small batches, re-estimating the per-subset
// posteriors after every batch. Human answers replace GP estimates with
// (eventually exact) stratified evidence, the certified DH shrinks, and the
// schedule stops the moment every pair of the currently certified DH is
// answered. The returned division satisfies the requirement with confidence
// theta (its DH is already fully human-verified at that point; Resolve
// re-reads the memoized answers at no extra cost).
//
// Determinism: for a fixed workload, requirement and configuration (with
// Sampling.Rand seeded identically), the schedule — every batch's pair ids
// in order — and the returned Solution are bit-identical across runs and
// across any Workers values; worker counts trade wall-clock time only.
func RiskSearch(w *Workload, req Requirement, o Oracle, cfg RiskConfig) (Solution, error) {
	if err := req.Validate(); err != nil {
		return Solution{}, err
	}
	if cfg.BudgetPairs < 0 {
		return Solution{}, fmt.Errorf("%w: negative anytime budget %d", ErrBadWorkload, cfg.BudgetPairs)
	}
	sCfg, err := cfg.Sampling.normalized()
	if err != nil {
		return Solution{}, err
	}
	if sCfg.Rand == nil {
		// Full-subset sampling is deterministic, but the per-subset schedule
		// shuffles still need a source; mirror PartialSamplingSearch.
		sCfg.Rand = rand.New(rand.NewSource(1))
	}
	model, err := fitPartialSampling(w, o, sCfg, false)
	if err != nil {
		return Solution{}, err
	}

	m := w.Subsets()
	subsets, preSeeded := riskSubsets(w, model, sCfg.Rand)
	sched, err := risk.NewScheduler(subsets, cfg.Schedule)
	if err != nil {
		return Solution{}, err
	}

	est := newRiskEstimator(w, model, sched, req)
	est.refresh()
	lo, hi, err := riskBounds(w, req, est)
	if err != nil {
		return Solution{}, err
	}

	answered, batches := 0, 0
	exhausted := false
	report := func(done bool) {
		if cfg.Progress == nil {
			return
		}
		remaining := 0
		if lo <= hi {
			remaining = sched.Remaining(lo, hi)
		}
		cfg.Progress(RiskProgress{
			Lo: lo, Hi: hi,
			Remaining: remaining,
			Answered:  answered,
			Batches:   batches,
			Certified: done && !exhausted,

			BudgetExhausted: exhausted,
		})
	}
	for lo <= hi && sched.Remaining(lo, hi) > 0 {
		limit := 0
		if cfg.BudgetPairs > 0 {
			limit = cfg.BudgetPairs - answered
			if limit <= 0 {
				exhausted = true
				break
			}
		}
		reqs := sched.NextBatch(lo, hi, limit)
		ids := make([]int, len(reqs))
		for i, r := range reqs {
			ids[i] = r.ID
		}
		for i, match := range o.LabelAll(ids) {
			sched.Observe(reqs[i].Subset, match)
		}
		answered += len(reqs)
		batches++
		est.refresh()
		if lo, hi, err = riskBounds(w, req, est); err != nil {
			return Solution{}, err
		}
		report(false)
	}
	report(true)

	// SampledPairs is the estimation investment: the GP sampling phase plus
	// every label the schedule itself added (sampling-phase answers are
	// already in model.sampledPairs and pre-seeded into the scheduler, so
	// nothing is counted twice) that did not end up inside the final DH —
	// labels inside it are that DH's verification, already done.
	outside := 0
	for k := 0; k < m; k++ {
		if lo <= k && k <= hi {
			continue
		}
		outside += sched.Stratum(k).Sampled - preSeeded[k]
	}
	return Solution{Method: "RISK", Lo: lo, Hi: hi, SampledPairs: model.sampledPairs + outside}, nil
}
