package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"humo/internal/gp"
	"humo/internal/stats"
)

// SamplingConfig configures the sampling-based searches of §VI.
type SamplingConfig struct {
	// PairsPerSubset is the number of pairs labeled per sampled subset;
	// 0 labels the whole subset (exact proportion). The all-sampling search
	// defaults to DefaultAllSamplingPairs when 0 is given, since labeling
	// every pair of every subset would be a full census.
	PairsPerSubset int
	// MinSampleFrac / MaxSampleFrac are the [p_l, p_u] range of Algorithm 1:
	// the proportion of subsets the partial-sampling search may sample.
	// Zero values select the paper's defaults of 1% and 5% (§VIII).
	MinSampleFrac float64
	MaxSampleFrac float64
	// Epsilon is Algorithm 1's approximation-error threshold between the
	// regressed and the sampled match proportion of a probe subset. 0
	// selects DefaultEpsilon.
	Epsilon float64
	// GPGrid holds candidate GP hyperparameters; nil selects
	// gp.DefaultGrid(GPNoiseFloor).
	GPGrid []gp.Config
	// GPNoiseFloor is the homoscedastic noise variance added on top of the
	// per-subset binomial sampling variance. 0 selects 1e-6.
	GPNoiseFloor float64
	// Rand drives subset sampling. It must be non-nil for partial labeling
	// (PairsPerSubset > 0); full-subset labeling is deterministic.
	Rand *rand.Rand
}

// DefaultAllSamplingPairs is the per-subset sample size of the all-sampling
// search when none is configured.
const DefaultAllSamplingPairs = 50

// DefaultEpsilon is Algorithm 1's default approximation-error threshold.
const DefaultEpsilon = 0.05

func (c SamplingConfig) normalized() (SamplingConfig, error) {
	if c.MinSampleFrac == 0 {
		c.MinSampleFrac = 0.01
	}
	if c.MaxSampleFrac == 0 {
		c.MaxSampleFrac = 0.05
	}
	if c.Epsilon == 0 {
		c.Epsilon = DefaultEpsilon
	}
	if c.GPNoiseFloor == 0 {
		c.GPNoiseFloor = 1e-6
	}
	if c.PairsPerSubset < 0 {
		return c, fmt.Errorf("%w: PairsPerSubset=%d", ErrBadWorkload, c.PairsPerSubset)
	}
	if !(c.MinSampleFrac > 0 && c.MinSampleFrac <= 1) || !(c.MaxSampleFrac > 0 && c.MaxSampleFrac <= 1) || c.MinSampleFrac > c.MaxSampleFrac {
		return c, fmt.Errorf("%w: sample fraction range [%v,%v]", ErrBadWorkload, c.MinSampleFrac, c.MaxSampleFrac)
	}
	if c.Epsilon < 0 {
		return c, fmt.Errorf("%w: Epsilon=%v", ErrBadWorkload, c.Epsilon)
	}
	if c.PairsPerSubset > 0 && c.Rand == nil {
		return c, fmt.Errorf("%w: Rand required for partial per-subset sampling", ErrBadWorkload)
	}
	return c, nil
}

// sampleSubset labels `take` pairs of subset k through the oracle (all of
// them when take <= 0 or take >= subset size) and returns the resulting
// stratum plus the ids it labeled, in labeling order (the risk search seeds
// its schedule with them).
func sampleSubset(w *Workload, o Oracle, rng *rand.Rand, k, take int) (stats.Stratum, []int) {
	start, end := w.SubsetRange(k)
	n := end - start
	var ids []int
	if take <= 0 || take >= n {
		take = n
		ids = make([]int, 0, n)
		for i := start; i < end; i++ {
			ids = append(ids, w.Pair(i).ID)
		}
	} else {
		perm := rng.Perm(n)
		ids = make([]int, 0, take)
		for _, off := range perm[:take] {
			ids = append(ids, w.Pair(start+off).ID)
		}
	}
	matches := 0
	for _, m := range o.LabelAll(ids) {
		if m {
			matches++
		}
	}
	return stats.Stratum{Size: n, Sampled: take, Matches: matches}, ids
}

// recallOKAt evaluates the Eq. 13 recall condition for a DH starting at
// subset l (D- = [0, l), covered = [l, m)) at per-quantity confidence
// theta. It is the certification both searchBounds and riskBounds rely on.
func recallOKAt(req Requirement, est rangeEstimator, theta float64, l int) (bool, error) {
	found, _, err := est.suffixInterval(l, theta)
	if err != nil {
		return false, err
	}
	_, missed, err := est.prefixInterval(l, theta)
	if err != nil {
		return false, err
	}
	if found == 0 {
		return missed == 0, nil
	}
	return found/(found+missed) >= req.Beta-1e-12, nil
}

// precisionOKAt evaluates the Eq. 14 precision condition for DH = [lo, h]
// (D+ = (h, m); h may be lo-1 for an empty DH) at per-quantity confidence
// theta.
func precisionOKAt(w *Workload, req Requirement, est rangeEstimator, theta float64, lo, h int) (bool, error) {
	dhLB, _, err := est.midInterval(lo, h, theta)
	if err != nil {
		return false, err
	}
	plusLB, _, err := est.suffixInterval(h+1, theta)
	if err != nil {
		return false, err
	}
	plusPairs := float64(w.RangeLen(h+1, w.Subsets()-1))
	denom := dhLB + plusPairs
	if denom == 0 {
		return true, nil
	}
	return (dhLB+plusLB)/denom >= req.Alpha-1e-12, nil
}

// searchBounds runs the two scans shared by every sampling-based search
// (§VI-A): first the maximal lower bound satisfying the Eq. 13 recall
// condition, then — with that lower bound fixed — the minimal upper bound
// satisfying the Eq. 14 precision condition. Both use confidence sqrt(theta)
// per estimated quantity so the conjunction holds with confidence theta.
func searchBounds(w *Workload, req Requirement, est rangeEstimator) (lo, hi int, err error) {
	m := w.Subsets()
	sqrtTheta := math.Sqrt(req.Theta)
	lo = 0
	for lo+1 < m {
		ok, err := recallOKAt(req, est, sqrtTheta, lo+1)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		lo++
	}
	hi = m - 1
	for hi-1 >= lo-1 {
		ok, err := precisionOKAt(w, req, est, sqrtTheta, lo, hi-1)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		hi--
	}
	return lo, hi, nil
}

// AllSamplingSearch runs the all-sampling solution of §VI-A: it samples
// every unit subset, builds stratified error margins (Eq. 12) and scans for
// the minimal DH satisfying Eq. 13–14. The returned solution meets the
// requirement with confidence theta (Theorem 2).
func AllSamplingSearch(w *Workload, req Requirement, o Oracle, cfg SamplingConfig) (Solution, error) {
	if err := req.Validate(); err != nil {
		return Solution{}, err
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return Solution{}, err
	}
	take := cfg.PairsPerSubset
	if take == 0 {
		take = DefaultAllSamplingPairs
		if cfg.Rand == nil {
			return Solution{}, fmt.Errorf("%w: Rand required for all-sampling", ErrBadWorkload)
		}
	}
	m := w.Subsets()
	strata := make([]stats.Stratum, m)
	sampled := 0
	for k := 0; k < m; k++ {
		strata[k], _ = sampleSubset(w, o, cfg.Rand, k, take)
		sampled += strata[k].Sampled
	}
	est, err := newStrataEstimator(strata)
	if err != nil {
		return Solution{}, err
	}
	lo, hi, err := searchBounds(w, req, est)
	if err != nil {
		return Solution{}, err
	}
	return Solution{Method: "ALLSAMP", Lo: lo, Hi: hi, SampledPairs: sampled}, nil
}

// gpModel bundles the fitted Gaussian process with the sampling bookkeeping
// the hybrid and risk searches reuse.
type gpModel struct {
	est          *gpEstimator
	strata       map[int]stats.Stratum // sampled subsets by index
	sampledIDs   map[int][]int         // the labeled pair ids per sampled subset, in labeling order
	sampledPairs int
	bandVar      float64 // between-subset irregularity variance (see bandIrregularity)
}

// fitPartialSampling implements Algorithm 1: sample an equidistant seed set
// of subsets, fit a GP to their observed match proportions, then adaptively
// probe midpoints whose prediction error exceeds Epsilon until the queue is
// empty or the sampling budget p_u is exhausted. refineVariance additionally
// spends any remaining budget pinning the highest pair-weighted posterior
// variance (see the loop below) — the one-shot searches need that, because
// they get no second chance at their error margins; the risk-aware search
// passes false and lets its schedule buy evidence exactly where the margins
// turn out to bind.
//
// Every fit goes through the workload's GP fit memo (fitmemo.go): a fit
// whose inputs match an earlier one on this workload bit for bit — the
// same search at the same seed again, as in a checkpoint→restore replay or
// the hybrid and risk searches of one seed — returns that fit's regressor,
// which is the one FitSelect would build again.
func fitPartialSampling(w *Workload, o Oracle, cfg SamplingConfig, refineVariance bool) (*gpModel, error) {
	m := w.Subsets()
	seed := int(math.Ceil(float64(m) * cfg.MinSampleFrac))
	if seed < 5 {
		seed = 5 // the similarity axis needs a few anchors regardless of m
	}
	if seed > m {
		seed = m
	}
	budget := int(math.Floor(float64(m) * cfg.MaxSampleFrac))
	if budget < 12 {
		budget = 12 // Algorithm 1 needs some adaptive probes to converge
	}
	if budget > m {
		budget = m
	}
	if budget < seed {
		budget = seed
	}

	model := &gpModel{strata: make(map[int]stats.Stratum), sampledIDs: make(map[int][]int)}
	sample := func(k int) stats.Stratum {
		if s, ok := model.strata[k]; ok {
			return s
		}
		s, ids := sampleSubset(w, o, cfg.Rand, k, cfg.PairsPerSubset)
		model.strata[k] = s
		model.sampledIDs[k] = ids
		model.sampledPairs += s.Sampled
		return s
	}

	// Seed with subsets whose centers are equidistant in *similarity*
	// space, endpoints included. Equidistance in subset index would pile
	// seeds onto the similarity band holding the most pairs (real ER
	// workloads are heavily skewed toward low similarities) and leave the
	// match-proportion transition region uncovered; the GP regresses on
	// similarity, so coverage must be on that axis.
	loSim := w.SubsetMeanSim(0)
	hiSim := w.SubsetMeanSim(m - 1)
	var train []int
	if seed == 1 || hiSim <= loSim {
		train = []int{m / 2}
	} else {
		for k := 0; k < seed; k++ {
			target := loSim + (hiSim-loSim)*float64(k)/float64(seed-1)
			idx := subsetNearSim(w, target)
			train = insertSorted(train, idx)
		}
	}
	for _, k := range train {
		sample(k)
	}

	grid := cfg.GPGrid
	if grid == nil {
		// The homoscedastic noise floor doubles as the model of per-subset
		// proportion irregularity (the sigma of the paper's synthetic
		// generator): leave-one-out selection picks the level the workload
		// actually exhibits, on top of the per-point binomial variance.
		for _, nf := range []float64{cfg.GPNoiseFloor, 1e-3, 4e-3, 1e-2, 2.5e-2} {
			grid = append(grid, gp.DefaultGrid(nf)...)
		}
	}
	fit := func(indices []int) (*gp.Regressor, error) {
		xs := make([]float64, len(indices))
		ys := make([]float64, len(indices))
		noise := make([]float64, len(indices))
		for i, k := range indices {
			s := model.strata[k]
			xs[i] = w.SubsetMeanSim(k)
			ys[i] = s.Proportion()
			noise[i] = binomialNoise(s)
		}
		// Slope-based heteroscedastic inflation: where the proportion curve
		// moves fast between adjacent anchors, a smooth kernel cannot pin
		// the anchor exactly; tolerating the local discretization error
		// there keeps leave-one-out selection from inflating the *global*
		// noise level (which would widen the error margins of every flat
		// region). indices are sorted by subset, hence by similarity.
		for i := range ys {
			var d float64
			if i > 0 {
				d = math.Abs(ys[i] - ys[i-1])
			}
			if i+1 < len(ys) {
				if d2 := math.Abs(ys[i+1] - ys[i]); d2 > d {
					d = d2
				}
			}
			noise[i] += (d / 2) * (d / 2)
		}
		return w.fits.fitSelect(xs, ys, noise, grid)
	}
	reg, err := fit(train)
	if err != nil {
		return nil, err
	}

	type interval struct{ a, b int }
	var queue []interval
	for i := 0; i+1 < len(train); i++ {
		queue = append(queue, interval{train[i], train[i+1]})
	}
	// The sampling budget p_u counts sampled subsets — a probe that is
	// rejected by the epsilon test still cost human labels. Probe
	// midpoints are chosen in similarity space for the same coverage
	// reason as the seeds.
	for len(queue) > 0 && len(model.strata) < budget {
		iv := queue[0]
		queue = queue[1:]
		target := (w.SubsetMeanSim(iv.a) + w.SubsetMeanSim(iv.b)) / 2
		x := subsetNearSim(w, target)
		if x <= iv.a || x >= iv.b {
			x = (iv.a + iv.b) / 2 // degenerate gap: fall back to index midpoint
		}
		if x == iv.a || x == iv.b {
			continue
		}
		if _, already := model.strata[x]; already {
			continue
		}
		s := sample(x)
		predicted := reg.PredictMean(w.SubsetMeanSim(x))
		if math.Abs(predicted-s.Proportion()) >= cfg.Epsilon {
			train = insertSorted(train, x)
			queue = append(queue, interval{iv.a, x}, interval{x, iv.b})
			if reg, err = fit(train); err != nil {
				return nil, err
			}
		}
	}

	// From here on, every sampled subset anchors the regression — including
	// probes the epsilon test rejected. Their labels are already paid for,
	// and extra anchors only tighten the posterior the bound computation
	// aggregates. (Algorithm 1 as printed keeps only the accepted probes in
	// its training set; see DESIGN.md.)
	anchors := sortedKeys(model.strata)
	if len(anchors) > len(train) {
		if reg, err = fit(anchors); err != nil {
			return nil, err
		}
	}

	// Variance-targeted refinement: Algorithm 1's epsilon test only probes
	// where the predicted *mean* is off, so pair-dense regions whose mean is
	// fine but whose posterior variance is large never get pinned — and it
	// is exactly those regions that dominate the aggregate error margins of
	// Eq. 20 (each subset contributes n_i * sd_i). Spend any remaining
	// sampling budget on the unsampled subset with the largest pair-weighted
	// posterior standard deviation between adjacent anchors.
	for refineVariance && len(model.strata) < budget {
		bestScore := 0.0
		bestMid := -1
		for i := 0; i+1 < len(anchors); i++ {
			a, b := anchors[i], anchors[i+1]
			if b-a < 2 {
				continue
			}
			mid := subsetNearSim(w, (w.SubsetMeanSim(a)+w.SubsetMeanSim(b))/2)
			if mid <= a || mid >= b {
				mid = (a + b) / 2
			}
			if _, already := model.strata[mid]; already {
				// The nearest-in-similarity subset is taken; bisect the
				// index range instead so dense regions can still split.
				mid = (a + b) / 2
				if _, also := model.strata[mid]; also {
					continue
				}
			}
			sd, err := reg.PredictVar(w.SubsetMeanSim(mid))
			if err != nil {
				return nil, err
			}
			// Weight by the pairs the gap spans: that is the margin mass
			// this probe can remove.
			score := float64(w.RangeLen(a+1, b-1)) * math.Sqrt(sd)
			if score > bestScore {
				bestScore = score
				bestMid = mid
			}
		}
		if bestMid < 0 || bestScore == 0 {
			break
		}
		sample(bestMid)
		anchors = insertSorted(anchors, bestMid)
		if reg, err = fit(anchors); err != nil {
			return nil, err
		}
	}

	model.bandVar = bandIrregularity(w, model, anchors)
	est, err := newGPEstimator(w, reg, model.bandVar, model.strata)
	if err != nil {
		return nil, err
	}
	model.est = est
	return model, nil
}

// bandIrregularity estimates the between-subset variance of the true match
// proportions around the smooth latent curve (the sigma^2 of the paper's
// synthetic generator) from pairs of anchors that are close on the
// similarity axis: for such a pair the curve contributes little to the
// difference, so E[(y_a - y_b)^2 / 2] ~= bandVar + binomial noise. The
// median over pairs is robust against the few pairs straddling a sharp
// transition.
func bandIrregularity(w *Workload, model *gpModel, anchors []int) float64 {
	var diffs, noises []float64
	for i := 0; i+1 < len(anchors); i++ {
		a, b := anchors[i], anchors[i+1]
		sa, sb := model.strata[a], model.strata[b]
		d := sa.Proportion() - sb.Proportion()
		diffs = append(diffs, d*d/2)
		noises = append(noises, (binomialNoise(sa)+binomialNoise(sb))/2)
	}
	if len(diffs) == 0 {
		return 0
	}
	v := median(diffs) - median(noises)
	if v < 0 {
		v = 0
	}
	return v
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// binomialNoise is the per-point observation noise of a subset's observed
// match proportion, used by the GP. Even a full census is a noisy
// observation of the *latent* smooth proportion curve: the subset's labels
// are (approximately) Bernoulli draws from the curve, so the observed
// proportion deviates from it with variance p(1-p)/s. Without this term the
// GP is forced to interpolate binomial jitter exactly and every smooth
// kernel misfits badly.
func binomialNoise(s stats.Stratum) float64 {
	if s.Sampled < 1 {
		return 1e-5
	}
	p := s.Proportion()
	v := p * (1 - p) / float64(s.Sampled)
	if v < 1e-5 {
		v = 1e-5
	}
	return v
}

// sortedKeys returns the keys of a set of sampled strata in ascending order.
func sortedKeys(strata map[int]stats.Stratum) []int {
	out := make([]int, 0, len(strata))
	for k := range strata {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// subsetNearSim returns the subset whose mean similarity is closest to the
// target value.
func subsetNearSim(w *Workload, target float64) int {
	lo, hi := 0, w.Subsets()-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w.SubsetMeanSim(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	if math.Abs(w.SubsetMeanSim(hi)-target) < math.Abs(w.SubsetMeanSim(lo)-target) {
		return hi
	}
	return lo
}

func insertSorted(xs []int, v int) []int {
	for i, x := range xs {
		if v < x {
			xs = append(xs, 0)
			copy(xs[i+1:], xs[i:])
			xs[i] = v
			return xs
		}
		if v == x {
			return xs
		}
	}
	return append(xs, v)
}

// PartialSamplingSearch runs the partial-sampling solution of §VI-B
// (Algorithm 1 + the Eq. 19–21 Gaussian aggregation): the SAMP approach of
// the paper's evaluation.
func PartialSamplingSearch(w *Workload, req Requirement, o Oracle, cfg SamplingConfig) (Solution, error) {
	if err := req.Validate(); err != nil {
		return Solution{}, err
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return Solution{}, err
	}
	if cfg.PairsPerSubset == 0 && cfg.Rand == nil {
		// Full-subset sampling is deterministic, but normalization rules for
		// partial labeling still require a source; accept nil here.
		cfg.Rand = rand.New(rand.NewSource(1))
	}
	model, err := fitPartialSampling(w, o, cfg, true)
	if err != nil {
		return Solution{}, err
	}
	lo, hi, err := searchBounds(w, req, model.est)
	if err != nil {
		return Solution{}, err
	}
	return Solution{Method: "SAMP", Lo: lo, Hi: hi, SampledPairs: model.sampledPairs}, nil
}
