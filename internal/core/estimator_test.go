package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"humo/internal/stats"
)

// strataTotal builds the stratified estimator of Eq. 12 over strata and
// returns it with its whole-range mean, variance and degrees of freedom.
func strataTotal(t *testing.T, strata []stats.Stratum) (e *strataEstimator, mean, vari, df float64) {
	t.Helper()
	e, err := newStrataEstimator(strata)
	if err != nil {
		t.Fatal(err)
	}
	m := len(strata)
	return e, e.mean[m], e.vari[m], e.df[m]
}

// wholeInterval is the interval over every subset of e at confidence theta.
func wholeInterval(t *testing.T, e *strataEstimator, theta float64) (lo, hi float64) {
	t.Helper()
	lo, hi, err := e.prefixInterval(len(e.strata), theta)
	if err != nil {
		t.Fatal(err)
	}
	return lo, hi
}

func TestStrataEstimatorFullCensus(t *testing.T) {
	// Fully labeled strata: estimate is exact with zero variance.
	e, mean, vari, _ := strataTotal(t, []stats.Stratum{
		{Size: 100, Sampled: 100, Matches: 30},
		{Size: 50, Sampled: 50, Matches: 50},
		{Size: 80, Sampled: 80, Matches: 0},
	})
	if mean != 80 {
		t.Errorf("mean = %v, want 80", mean)
	}
	if vari != 0 {
		t.Errorf("variance = %v, want 0 (census)", vari)
	}
	if lo, hi := wholeInterval(t, e, 0.95); lo != 80 || hi != 80 {
		t.Errorf("census interval = [%v,%v], want [80,80]", lo, hi)
	}
}

func TestStrataEstimatorErrors(t *testing.T) {
	if _, err := newStrataEstimator([]stats.Stratum{{Size: 10, Sampled: 0}}); err == nil {
		t.Error("unsampled nonempty stratum should fail")
	}
	if _, err := newStrataEstimator([]stats.Stratum{{Size: -5}}); err == nil {
		t.Error("invalid stratum should fail")
	}
}

func TestStrataEstimatorIntervalClamped(t *testing.T) {
	e, _, _, _ := strataTotal(t, []stats.Stratum{{Size: 10, Sampled: 2, Matches: 1}})
	lo, hi := wholeInterval(t, e, 0.99)
	if lo < 0 || hi > 10 {
		t.Errorf("interval [%v,%v] escapes [0,10]", lo, hi)
	}
	if lo > hi {
		t.Errorf("lo %v > hi %v", lo, hi)
	}
}

// TestStrataEstimatorCoverage draws many synthetic populations, samples
// them, and verifies the t-interval covers the true total at least ~theta of
// the time. This is the statistical contract Eq. 12 relies on.
func TestStrataEstimatorCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage simulation is slow")
	}
	rng := rand.New(rand.NewSource(42))
	const (
		trials = 400
		theta  = 0.90
	)
	covered := 0
	for trial := 0; trial < trials; trial++ {
		// Population: 20 strata of 200 pairs with varying proportions.
		var strata []stats.Stratum
		trueTotal := 0
		for i := 0; i < 20; i++ {
			p := rng.Float64()
			matchesPop := 0
			labels := make([]bool, 200)
			for j := range labels {
				if rng.Float64() < p {
					labels[j] = true
					matchesPop++
				}
			}
			trueTotal += matchesPop
			// Sample 30 without replacement.
			perm := rng.Perm(200)
			sampleMatches := 0
			for _, idx := range perm[:30] {
				if labels[idx] {
					sampleMatches++
				}
			}
			strata = append(strata, stats.Stratum{Size: 200, Sampled: 30, Matches: sampleMatches})
		}
		e, _, _, _ := strataTotal(t, strata)
		lo, hi := wholeInterval(t, e, theta)
		if float64(trueTotal) >= lo && float64(trueTotal) <= hi {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < theta-0.05 {
		t.Errorf("coverage %.3f below theta %.2f (minus tolerance)", rate, theta)
	}
}

// TestStrataEstimatorBoundsOrdered checks lo <= point estimate <= hi inside
// [0, pairs] for every contiguous range of random partial samples.
func TestStrataEstimatorBoundsOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var strata []stats.Stratum
		for i := 0; i < 5; i++ {
			size := 50 + rng.Intn(200)
			sampled := 2 + rng.Intn(size-1)
			matches := rng.Intn(sampled + 1)
			strata = append(strata, stats.Stratum{Size: size, Sampled: sampled, Matches: matches})
		}
		e, err := newStrataEstimator(strata)
		if err != nil {
			return false
		}
		for a := range strata {
			for b := a; b < len(strata); b++ {
				lo, hi, err := e.midInterval(a, b, 0.9)
				if err != nil {
					return false
				}
				mean := e.mean[b+1] - e.mean[a]
				pop := float64(e.pairs[b+1] - e.pairs[a])
				if !(lo <= mean+1e-9 && mean <= hi+1e-9 && lo >= 0 && hi <= pop) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStrataEstimatorHigherConfidenceWiderInterval(t *testing.T) {
	e, _, _, _ := strataTotal(t, []stats.Stratum{
		{Size: 200, Sampled: 20, Matches: 7},
		{Size: 200, Sampled: 20, Matches: 13},
	})
	lo90, hi90 := wholeInterval(t, e, 0.90)
	lo99, hi99 := wholeInterval(t, e, 0.99)
	if !(lo99 <= lo90 && hi99 >= hi90) {
		t.Errorf("99%% interval [%v,%v] should contain 90%% interval [%v,%v]", lo99, hi99, lo90, hi90)
	}
}

// TestStrataEstimatorSingleStratum pins the single-stratum workload (a whole
// resolution inside one unit subset): the estimate must degrade to the
// plain binomial case, with the finite-population correction vanishing on
// a census.
func TestStrataEstimatorSingleStratum(t *testing.T) {
	// Partial sample: 30 of 100 pairs, 12 matches.
	e, mean, vari, df := strataTotal(t, []stats.Stratum{{Size: 100, Sampled: 30, Matches: 12}})
	if want := 40.0; math.Abs(mean-want) > 1e-9 {
		t.Errorf("mean %v, want %v", mean, want)
	}
	if vari <= 0 {
		t.Errorf("partial single stratum must carry variance, got %v", vari)
	}
	if want := 29.0; df != want {
		t.Errorf("df %v, want %v", df, want)
	}
	if lo, hi := wholeInterval(t, e, 0.9); lo < 0 || hi > 100 || lo > mean || hi < mean {
		t.Errorf("interval [%v,%v] inconsistent with mean %v over 100 pairs", lo, hi, mean)
	}

	// Census: zero variance, interval collapses to the exact count.
	e, _, vari, _ = strataTotal(t, []stats.Stratum{{Size: 100, Sampled: 100, Matches: 37}})
	if vari != 0 {
		t.Errorf("census variance %v, want 0", vari)
	}
	if lo, hi := wholeInterval(t, e, 0.99); lo != 37 || hi != 37 {
		t.Errorf("census interval [%v,%v], want exactly 37", lo, hi)
	}
}

// TestStrataEstimatorDegenerateStrata pins all-match and all-nonmatch
// strata: p(1-p) = 0 makes their sample variance vanish even for partial
// samples, and the bounds must stay clamped inside [0, pairs].
func TestStrataEstimatorDegenerateStrata(t *testing.T) {
	e, mean, vari, _ := strataTotal(t, []stats.Stratum{
		{Size: 200, Sampled: 50, Matches: 50}, // all-match
		{Size: 200, Sampled: 50, Matches: 0},  // all-nonmatch
	})
	if want := 200.0; math.Abs(mean-want) > 1e-9 {
		t.Errorf("mean %v, want %v", mean, want)
	}
	if vari != 0 {
		t.Errorf("degenerate strata variance %v, want 0 (p(1-p) vanishes)", vari)
	}
	if lo, hi := wholeInterval(t, e, 0.95); lo != 200 || hi != 200 {
		t.Errorf("interval [%v,%v], want exactly the point estimate", lo, hi)
	}

	// A single observed pair must widen, not shrink, the margin (worst-case
	// Bernoulli variance), even when that one pair matched.
	e, _, vari, _ = strataTotal(t, []stats.Stratum{{Size: 100, Sampled: 1, Matches: 1}})
	if vari <= 0 {
		t.Error("single-sample stratum must assume worst-case variance")
	}
	if lo, hi := wholeInterval(t, e, 0.9); lo < 0 || hi > 100 {
		t.Errorf("interval [%v,%v] escapes [0,100]", lo, hi)
	}

	// Empty strata (Size 0) contribute nothing and must not error.
	e, mean, _, _ = strataTotal(t, []stats.Stratum{{}, {Size: 10, Sampled: 10, Matches: 3}})
	if mean != 3 || e.pairs[2] != 10 {
		t.Errorf("estimate with empty stratum: mean %v over %d pairs, want 3 over 10", mean, e.pairs[2])
	}
}
