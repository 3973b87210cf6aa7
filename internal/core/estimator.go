package core

import (
	"fmt"
	"math"
	"sync"

	"humo/internal/gp"
	"humo/internal/parallel"
	"humo/internal/stats"
)

// rangeEstimator answers confidence-interval queries about the number of
// matching pairs inside contiguous subset ranges. The sampling-based and
// hybrid searches are generic over it: the all-sampling search plugs in a
// stratified estimator (Eq. 12), the partial-sampling search a
// Gaussian-process estimator (Eq. 19–21).
type rangeEstimator interface {
	// prefixInterval bounds the matching pairs in subsets [0, hiEx) at
	// confidence theta.
	prefixInterval(hiEx int, theta float64) (lo, hi float64, err error)
	// suffixInterval bounds the matching pairs in subsets [loIn, m) at
	// confidence theta.
	suffixInterval(loIn int, theta float64) (lo, hi float64, err error)
	// midInterval bounds the matching pairs in subsets [a, b] inclusive at
	// confidence theta.
	midInterval(a, b int, theta float64) (lo, hi float64, err error)
}

// strataEstimator implements rangeEstimator from independent per-subset
// samples using stratified random-sampling margins with Student-t critical
// values (paper Eq. 12).
type strataEstimator struct {
	strata []stats.Stratum
	// Prefix sums over subsets [0, i): estimated matches, variance of the
	// estimate, degrees of freedom and population pairs.
	mean, vari, df []float64
	pairs          []int
	crit           stats.CritValues // Student-t critical values of interval
}

func newStrataEstimator(strata []stats.Stratum) (*strataEstimator, error) {
	m := len(strata)
	e := &strataEstimator{
		strata: strata,
		mean:   make([]float64, m+1),
		vari:   make([]float64, m+1),
		df:     make([]float64, m+1),
		pairs:  make([]int, m+1),
	}
	for i, s := range strata {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: subset %d: %w", i, err)
		}
		if s.Size > 0 && s.Sampled == 0 {
			return nil, fmt.Errorf("%w: subset %d unsampled in all-sampling estimator", ErrBadWorkload, i)
		}
		n, si := float64(s.Size), float64(s.Sampled)
		p := s.Proportion()
		var v, d float64
		if s.Sampled > 1 {
			fpc := 1 - si/n
			if fpc < 0 {
				fpc = 0
			}
			v = n * n * fpc * p * (1 - p) / (si - 1)
			d = si - 1
		} else if s.Sampled == 1 {
			v = n * n * (1 - si/n) * 0.25
		}
		e.mean[i+1] = e.mean[i] + n*p
		e.vari[i+1] = e.vari[i] + v
		e.df[i+1] = e.df[i] + d
		e.pairs[i+1] = e.pairs[i] + s.Size
	}
	return e, nil
}

func (e *strataEstimator) interval(a, bEx int, theta float64) (lo, hi float64, err error) {
	if a >= bEx {
		return 0, 0, nil
	}
	mean := e.mean[bEx] - e.mean[a]
	vari := e.vari[bEx] - e.vari[a]
	df := e.df[bEx] - e.df[a]
	if df < 1 {
		df = 1
	}
	pop := float64(e.pairs[bEx] - e.pairs[a])
	crit, err := e.crit.T(theta, df)
	if err != nil {
		return 0, 0, err
	}
	sd := math.Sqrt(vari)
	lo, hi = mean-crit*sd, mean+crit*sd
	return clampCount(lo, hi, pop)
}

func (e *strataEstimator) prefixInterval(hiEx int, theta float64) (float64, float64, error) {
	return e.interval(0, hiEx, theta)
}

func (e *strataEstimator) suffixInterval(loIn int, theta float64) (float64, float64, error) {
	return e.interval(loIn, len(e.strata), theta)
}

func (e *strataEstimator) midInterval(a, b int, theta float64) (float64, float64, error) {
	return e.interval(a, b+1, theta)
}

func clampCount(lo, hi, pop float64) (float64, float64, error) {
	if lo < 0 {
		lo = 0
	}
	if hi > pop {
		hi = pop
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi, nil
}

// gpEstimator implements rangeEstimator from a fitted Gaussian process over
// subset centers. Range sums follow Eq. 19 (mean); intervals use the normal
// critical value of Eq. 21. Two variance models are supported:
//
//   - independent (default): Var = sum_i [ n_i^2 var_i + n_i mu_i (1-mu_i) ],
//     treating per-subset posterior errors as independent across subsets and
//     adding the binomial realization noise of the actual labels. In the
//     fitted regime the posterior is observation-noise dominated, so
//     residuals are close to independent — this mirrors how the stratified
//     all-sampling estimator treats its strata.
//   - coherent: the literal Eq. 20 with full posterior cross-covariances.
//     It is far more conservative on pair-heavy flat regions, whose errors
//     it assumes can float up in unison.
//
// Coherent prefix and suffix variances for every split point are precomputed
// incrementally in O(m·(m+t)) — the O(m²) kernel sums fan out across workers
// — and mid-range variances for a fixed lower bound are built on demand (the
// upper-bound scan uses a single lower bound).
//
// Interval queries are safe for concurrent use: prefixInterval and
// suffixInterval only read precomputed state and the (concurrency-safe)
// critical-value tables, and midInterval guards its lazily rebuilt cache
// with a mutex. For best performance still prefer one estimator per
// goroutine — concurrent midInterval queries with different
// lower bounds thrash the shared cache (correct, but repeatedly rebuilt).
type gpEstimator struct {
	reg      *gp.Regressor
	coherent bool
	workers  int         // concurrency of the O(m²) precomputes; <= 0 = GOMAXPROCS
	x        []float64   // subset centers
	n        []float64   // subset sizes
	white    [][]float64 // whitened cross-covariance per subset
	mean     []float64   // posterior mean per subset, clamped to [0,1]

	prefMean  []float64 // prefix sums of n_i * mean_i, length m+1
	prefPairs []float64
	prefVar   []float64 // Var of sum over [0, i)
	sufVar    []float64 // Var of sum over [i, m)
	indepVar  []float64 // prefix sums of independent per-subset variance

	// Cluster-sample prefix statistics over the anchor subsets: count of
	// anchors, sum and sum of squares of their *residuals* against the GP
	// mean (detrended, so the curve's own variation does not inflate the
	// between-anchor variance).
	ancK, ancR, ancR2 []float64

	midMu  sync.Mutex // guards midLo and midVar
	midLo  int        // lower bound the mid cache is built for (-1 = none)
	midVar []float64

	crit stats.CritValues // Student-t critical values of clusterInterval
}

// newGPEstimator builds the range estimator. bandVar is the estimated
// between-subset irregularity variance of the true proportions around the
// smooth curve (sigma^2 in the paper's synthetic generator), measured from
// adjacent-anchor residuals; it enters the independent aggregation as an
// extra per-subset variance term.
// newGPEstimator builds the range estimator. strata holds the sampled
// (censused) subsets by index: they double as a cluster sample whose range
// means are unbiased even when matches are bursty — a regime where a smooth
// GP systematically flattens rare positive observations into the noise.
// Interval queries return the outer hull of the GP interval and the
// cluster-sample interval.
//
// workers bounds the goroutines of the coherent O(m²) variance precomputes;
// <= 0 selects GOMAXPROCS. The result is bit-identical for every worker
// count: each subset's kernel sum is accumulated in the same index order,
// only across goroutines.
func newGPEstimator(w *Workload, reg *gp.Regressor, coherent bool, bandVar float64, strata map[int]stats.Stratum, workers int) (*gpEstimator, error) {
	m := w.Subsets()
	e := &gpEstimator{
		reg:       reg,
		coherent:  coherent,
		workers:   workers,
		x:         make([]float64, m),
		n:         make([]float64, m),
		white:     make([][]float64, m),
		mean:      make([]float64, m),
		prefMean:  make([]float64, m+1),
		prefPairs: make([]float64, m+1),
		prefVar:   make([]float64, m+1),
		sufVar:    make([]float64, m+1),
		indepVar:  make([]float64, m+1),
		ancK:      make([]float64, m+1),
		ancR:      make([]float64, m+1),
		ancR2:     make([]float64, m+1),
		midLo:     -1,
	}
	for i := 0; i < m; i++ {
		e.x[i] = w.SubsetMeanSim(i)
		e.n[i] = float64(w.SubsetLen(i))
		mu := reg.PredictMean(e.x[i])
		if mu < 0 {
			mu = 0
		}
		if mu > 1 {
			mu = 1
		}
		e.mean[i] = mu
		wv, err := reg.Whiten(e.x[i])
		if err != nil {
			return nil, err
		}
		e.white[i] = wv
	}
	// The independent variance of one subset's realized match count has
	// three parts: the latent posterior variance of the smooth curve at its
	// center, the fitted homoscedastic noise (which is how the model
	// represents per-subset irregularity of the true proportions around the
	// curve — independent across subsets by construction), and the binomial
	// realization noise of the labels themselves.
	noiseVar := reg.Config().NoiseFloor + bandVar
	for i := 0; i < m; i++ {
		e.prefMean[i+1] = e.prefMean[i] + e.n[i]*e.mean[i]
		e.prefPairs[i+1] = e.prefPairs[i] + e.n[i]
		e.indepVar[i+1] = e.indepVar[i] +
			e.n[i]*e.n[i]*(e.pointVar(i)+noiseVar) +
			e.n[i]*e.mean[i]*(1-e.mean[i])
		e.ancK[i+1] = e.ancK[i]
		e.ancR[i+1] = e.ancR[i]
		e.ancR2[i+1] = e.ancR2[i]
		if s, ok := strata[i]; ok && s.Sampled > 0 {
			r := s.Proportion() - e.mean[i]
			e.ancK[i+1]++
			e.ancR[i+1] += r
			e.ancR2[i+1] += r * r
		}
	}
	if !e.coherent {
		return e, nil
	}
	// Incremental prefix variances. With S_k = sum_{i<k} n_i f_i:
	// Var(S_{k+1}) = Var(S_k) + 2 Cov(S_k, n_k f_k) + n_k^2 Var(f_k), and
	// Cov(S_k, n_k f_k) = n_k (sum_{i<k} n_i K(x_i,x_k) - U_k . w_k) where
	// U_k = sum_{i<k} n_i w_i. The kernel sums dominate (O(m²) against the
	// recurrence's O(m·t)) and are independent per k, so they are hoisted
	// into a parallel precompute.
	t := 0
	if m > 0 {
		t = len(e.white[0])
	}
	covPref := e.kernelRangeSums(func(k int) (int, int) { return 0, k })
	u := make([]float64, t)
	for k := 0; k < m; k++ {
		var uw float64
		for j := 0; j < t; j++ {
			uw += u[j] * e.white[k][j]
		}
		cov := e.n[k] * (covPref[k] - uw)
		varK := e.pointVar(k)
		e.prefVar[k+1] = e.prefVar[k] + 2*cov + e.n[k]*e.n[k]*varK
		if e.prefVar[k+1] < 0 {
			e.prefVar[k+1] = 0
		}
		for j := 0; j < t; j++ {
			u[j] += e.n[k] * e.white[k][j]
		}
	}
	// Suffix variances, mirrored.
	covSuf := e.kernelRangeSums(func(k int) (int, int) { return k + 1, m })
	for j := range u {
		u[j] = 0
	}
	for k := m - 1; k >= 0; k-- {
		var uw float64
		for j := 0; j < t; j++ {
			uw += u[j] * e.white[k][j]
		}
		cov := e.n[k] * (covSuf[k] - uw)
		varK := e.pointVar(k)
		e.sufVar[k] = e.sufVar[k+1] + 2*cov + e.n[k]*e.n[k]*varK
		if e.sufVar[k] < 0 {
			e.sufVar[k] = 0
		}
		for j := 0; j < t; j++ {
			u[j] += e.n[k] * e.white[k][j]
		}
	}
	return e, nil
}

// kernelRangeSums returns, for every subset k, the pair-weighted kernel sum
// sum_{i in [bounds(k))} n_i K(x_i, x_k) — the O(m²) half of the coherent
// variance recurrences. Rows are independent and fan out across the
// estimator's workers; within a row the accumulation order is always
// ascending i, so the sums are bit-identical for any worker count.
func (e *gpEstimator) kernelRangeSums(bounds func(k int) (lo, hiEx int)) []float64 {
	m := len(e.x)
	out := make([]float64, m)
	// fn never fails, so ForEach cannot return an error.
	_ = parallel.ForEach(e.workers, m, func(k int) error {
		lo, hiEx := bounds(k)
		var s float64
		for i := lo; i < hiEx; i++ {
			s += e.n[i] * e.reg.KernelValue(e.x[i], e.x[k])
		}
		out[k] = s
		return nil
	})
	return out
}

// pointVar is the posterior variance of subset k's match proportion.
func (e *gpEstimator) pointVar(k int) float64 {
	v := e.reg.KernelValue(e.x[k], e.x[k])
	for _, wj := range e.white[k] {
		v -= wj * wj
	}
	if v < 0 {
		v = 0
	}
	return v
}

// clusterInterval estimates the matching pairs of subsets [a, bEx) as the
// GP range mean plus a cluster-sample correction from the anchors inside
// the range: the anchors' residuals against the GP mean estimate the
// regressor's local bias (smooth kernels flatten bursty rare matches toward
// zero), and their between-anchor variance gives a Student-t margin. It
// returns ok=false when fewer than two anchors fall inside the range.
func (e *gpEstimator) clusterInterval(a, bEx int, theta float64) (lo, hi float64, ok bool, err error) {
	k := e.ancK[bEx] - e.ancK[a]
	if k < 2 {
		return 0, 0, false, nil
	}
	sumR := e.ancR[bEx] - e.ancR[a]
	sumR2 := e.ancR2[bEx] - e.ancR2[a]
	rMean := sumR / k
	s2 := (sumR2 - k*rMean*rMean) / (k - 1)
	if s2 < 0 {
		s2 = 0
	}
	pop := e.prefPairs[bEx] - e.prefPairs[a]
	crit, err := e.crit.T(theta, k-1)
	if err != nil {
		return 0, 0, false, err
	}
	total := (e.prefMean[bEx] - e.prefMean[a]) + pop*rMean
	margin := crit * pop * math.Sqrt(s2/k)
	lo, hi, err = clampCount(total-margin, total+margin, pop)
	return lo, hi, true, err
}

// hullInterval widens a GP interval to the outer hull with the cluster
// interval of the same range, protecting the bounds against the smooth
// regressor's bias on bursty data.
func (e *gpEstimator) hullInterval(gLo, gHi float64, a, bEx int, theta float64) (float64, float64, error) {
	cLo, cHi, ok, err := e.clusterInterval(a, bEx, theta)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return gLo, gHi, nil
	}
	return math.Min(gLo, cLo), math.Max(gHi, cHi), nil
}

func (e *gpEstimator) intervalFrom(mean, vari, pop, theta float64) (float64, float64, error) {
	z, err := stats.TwoSidedZ(theta)
	if err != nil {
		return 0, 0, err
	}
	sd := math.Sqrt(math.Max(vari, 0))
	return clampCount(mean-z*sd, mean+z*sd, pop)
}

func (e *gpEstimator) prefixInterval(hiEx int, theta float64) (float64, float64, error) {
	if hiEx <= 0 {
		return 0, 0, nil
	}
	vari := e.indepVar[hiEx]
	if e.coherent {
		vari = e.prefVar[hiEx]
	}
	gLo, gHi, err := e.intervalFrom(e.prefMean[hiEx], vari, e.prefPairs[hiEx], theta)
	if err != nil {
		return 0, 0, err
	}
	return e.hullInterval(gLo, gHi, 0, hiEx, theta)
}

func (e *gpEstimator) suffixInterval(loIn int, theta float64) (float64, float64, error) {
	m := len(e.x)
	if loIn >= m {
		return 0, 0, nil
	}
	mean := e.prefMean[m] - e.prefMean[loIn]
	pop := e.prefPairs[m] - e.prefPairs[loIn]
	vari := e.indepVar[m] - e.indepVar[loIn]
	if e.coherent {
		vari = e.sufVar[loIn]
	}
	gLo, gHi, err := e.intervalFrom(mean, vari, pop, theta)
	if err != nil {
		return 0, 0, err
	}
	return e.hullInterval(gLo, gHi, loIn, m, theta)
}

func (e *gpEstimator) midInterval(a, b int, theta float64) (float64, float64, error) {
	if a > b {
		return 0, 0, nil
	}
	m := len(e.x)
	if a < 0 || b >= m {
		return 0, 0, fmt.Errorf("%w: mid range [%d,%d] out of [0,%d)", ErrBadWorkload, a, b, m)
	}
	mean := e.prefMean[b+1] - e.prefMean[a]
	pop := e.prefPairs[b+1] - e.prefPairs[a]
	vari := e.indepVar[b+1] - e.indepVar[a]
	if e.coherent {
		// The mid cache is keyed by the lower bound and rebuilt lazily on
		// query; the lock makes concurrent midInterval calls (one estimator
		// shared across workers) safe.
		e.midMu.Lock()
		if e.midLo != a {
			e.buildMidCache(a)
		}
		vari = e.midVar[b]
		e.midMu.Unlock()
	}
	gLo, gHi, err := e.intervalFrom(mean, vari, pop, theta)
	if err != nil {
		return 0, 0, err
	}
	return e.hullInterval(gLo, gHi, a, b+1, theta)
}

// boundarySubset returns the first subset in [lo, hi] whose posterior mean
// match proportion reaches 0.5, or the midpoint when the curve never
// crosses inside the range.
func (e *gpEstimator) boundarySubset(lo, hi int) int {
	for k := lo; k <= hi; k++ {
		if e.mean[k] >= 0.5 {
			return k
		}
	}
	return (lo + hi) / 2
}

// buildMidCache computes Var of the sum over [a, b] for every b >= a. The
// caller must hold midMu. Like the prefix/suffix precomputes, the O(m²)
// kernel sums fan out across workers while the O(m·t) recurrence stays
// sequential.
func (e *gpEstimator) buildMidCache(a int) {
	m := len(e.x)
	e.midLo = a
	e.midVar = make([]float64, m)
	t := 0
	if m > 0 {
		t = len(e.white[0])
	}
	covMid := e.kernelRangeSums(func(k int) (int, int) {
		if k < a {
			return 0, 0
		}
		return a, k
	})
	u := make([]float64, t)
	prev := 0.0
	for k := a; k < m; k++ {
		var uw float64
		for j := 0; j < t; j++ {
			uw += u[j] * e.white[k][j]
		}
		cov := e.n[k] * (covMid[k] - uw)
		v := prev + 2*cov + e.n[k]*e.n[k]*e.pointVar(k)
		if v < 0 {
			v = 0
		}
		e.midVar[k] = v
		prev = v
		for j := 0; j < t; j++ {
			u[j] += e.n[k] * e.white[k][j]
		}
	}
}
