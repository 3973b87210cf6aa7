package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStratumValidate(t *testing.T) {
	cases := []struct {
		s  Stratum
		ok bool
	}{
		{Stratum{Size: 200, Sampled: 20, Matches: 5}, true},
		{Stratum{Size: 200, Sampled: 200, Matches: 200}, true},
		{Stratum{Size: 0, Sampled: 0, Matches: 0}, true},
		{Stratum{Size: 10, Sampled: 20, Matches: 5}, false},
		{Stratum{Size: 10, Sampled: 5, Matches: 6}, false},
		{Stratum{Size: -1, Sampled: 0, Matches: 0}, false},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v): err=%v, want ok=%v", c.s, err, c.ok)
		}
	}
}

func TestStratumProportion(t *testing.T) {
	s := Stratum{Size: 200, Sampled: 40, Matches: 10}
	if got := s.Proportion(); got != 0.25 {
		t.Errorf("Proportion = %v, want 0.25", got)
	}
	if got := (Stratum{}).Proportion(); got != 0 {
		t.Errorf("empty Proportion = %v, want 0", got)
	}
}

func TestEstimateTotalFullCensus(t *testing.T) {
	// Fully labeled strata: estimate is exact with zero variance.
	strata := []Stratum{
		{Size: 100, Sampled: 100, Matches: 30},
		{Size: 50, Sampled: 50, Matches: 50},
		{Size: 80, Sampled: 80, Matches: 0},
	}
	est, err := EstimateTotal(strata)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 80 {
		t.Errorf("Mean = %v, want 80", est.Mean)
	}
	if est.StdDev != 0 {
		t.Errorf("StdDev = %v, want 0 (census)", est.StdDev)
	}
	lo, hi, err := est.Interval(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 80 || hi != 80 {
		t.Errorf("census interval = [%v,%v], want [80,80]", lo, hi)
	}
}

func TestEstimateTotalErrors(t *testing.T) {
	if _, err := EstimateTotal([]Stratum{{Size: 10, Sampled: 0}}); err == nil {
		t.Error("unsampled nonempty stratum should fail")
	}
	if _, err := EstimateTotal([]Stratum{{Size: -5}}); err == nil {
		t.Error("invalid stratum should fail")
	}
}

func TestEstimateTotalIntervalClamped(t *testing.T) {
	strata := []Stratum{{Size: 10, Sampled: 2, Matches: 1}}
	est, err := EstimateTotal(strata)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := est.Interval(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 0 || hi > 10 {
		t.Errorf("interval [%v,%v] escapes [0,10]", lo, hi)
	}
	if lo > hi {
		t.Errorf("lo %v > hi %v", lo, hi)
	}
}

// TestEstimateTotalCoverage draws many synthetic populations, samples them,
// and verifies the t-interval covers the true total at least ~theta of the
// time. This is the statistical contract Eq. 12 relies on.
func TestEstimateTotalCoverage(t *testing.T) {
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
		var strata []Stratum
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
			strata = append(strata, Stratum{Size: 200, Sampled: 30, Matches: sampleMatches})
		}
		est, err := EstimateTotal(strata)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := est.Interval(theta)
		if err != nil {
			t.Fatal(err)
		}
		if float64(trueTotal) >= lo && float64(trueTotal) <= hi {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < theta-0.05 {
		t.Errorf("coverage %.3f below theta %.2f (minus tolerance)", rate, theta)
	}
}

func TestEstimateTotalBoundsOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var strata []Stratum
		for i := 0; i < 5; i++ {
			size := 50 + rng.Intn(200)
			sampled := 2 + rng.Intn(size-1)
			matches := rng.Intn(sampled + 1)
			strata = append(strata, Stratum{Size: size, Sampled: sampled, Matches: matches})
		}
		est, err := EstimateTotal(strata)
		if err != nil {
			return false
		}
		lo, err1 := est.LowerBound(0.9)
		hi, err2 := est.UpperBound(0.9)
		if err1 != nil || err2 != nil {
			return false
		}
		return lo <= est.Mean+1e-9 && est.Mean <= hi+1e-9 && lo >= 0 && hi <= float64(est.Pairs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEstimateTotalHigherConfidenceWiderInterval(t *testing.T) {
	strata := []Stratum{
		{Size: 200, Sampled: 20, Matches: 7},
		{Size: 200, Sampled: 20, Matches: 13},
	}
	est, err := EstimateTotal(strata)
	if err != nil {
		t.Fatal(err)
	}
	lo90, hi90, _ := est.Interval(0.90)
	lo99, hi99, _ := est.Interval(0.99)
	if !(lo99 <= lo90 && hi99 >= hi90) {
		t.Errorf("99%% interval [%v,%v] should contain 90%% interval [%v,%v]", lo99, hi99, lo90, hi90)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi, err := WilsonInterval(50, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < 0.5 && hi > 0.5) {
		t.Errorf("Wilson(50/100) = [%v,%v] should straddle 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("Wilson(50/100) width %v too wide", hi-lo)
	}
	// Extreme proportions stay in [0,1].
	lo, hi, err = WilsonInterval(0, 10, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 0 || hi > 1 {
		t.Errorf("Wilson(0/10) = [%v,%v] escapes [0,1]", lo, hi)
	}
	if _, _, err := WilsonInterval(5, 0, 0.9); err == nil {
		t.Error("n=0 should fail")
	}
	if _, _, err := WilsonInterval(11, 10, 0.9); err == nil {
		t.Error("k>n should fail")
	}
}

func TestWilsonIntervalZMatchesTable(t *testing.T) {
	for _, theta := range []float64{0.9, math.Sqrt(0.9), 0.95, 0.99} {
		tab, err := TTableFor(theta)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 120; n++ {
			for k := 0; k <= n; k++ {
				wLo, wHi, err := WilsonInterval(k, n, theta)
				if err != nil {
					t.Fatal(err)
				}
				lo, hi, err := WilsonIntervalZ(k, n, tab.Z())
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(lo) != math.Float64bits(wLo) || math.Float64bits(hi) != math.Float64bits(wHi) {
					t.Fatalf("theta=%v k=%d n=%d: WilsonIntervalZ [%v,%v], WilsonInterval [%v,%v]", theta, k, n, lo, hi, wLo, wHi)
				}
			}
		}
	}
	if _, _, err := WilsonIntervalZ(3, 2, 1.96); !errors.Is(err, ErrBadParam) {
		t.Errorf("k>n: err = %v, want ErrBadParam", err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	want := math.Sqrt(32.0 / 7.0)
	if s := StdDev(xs); !almostEqual(s, want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", s, want)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

// TestEstimateTotalSingleStratum pins the single-stratum workload (a whole
// resolution inside one unit subset): the estimate must degrade to the
// plain binomial case, with the finite-population correction vanishing on
// a census.
func TestEstimateTotalSingleStratum(t *testing.T) {
	// Partial sample: 30 of 100 pairs, 12 matches.
	est, err := EstimateTotal([]Stratum{{Size: 100, Sampled: 30, Matches: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := est.Mean, 40.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean %v, want %v", got, want)
	}
	if est.StdDev <= 0 {
		t.Errorf("partial single stratum must carry variance, got %v", est.StdDev)
	}
	if got, want := est.DF, 29.0; got != want {
		t.Errorf("df %v, want %v", got, want)
	}
	lo, hi, err := est.Interval(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 0 || hi > 100 || lo > est.Mean || hi < est.Mean {
		t.Errorf("interval [%v,%v] inconsistent with mean %v over 100 pairs", lo, hi, est.Mean)
	}

	// Census: zero variance, interval collapses to the exact count.
	est, err = EstimateTotal([]Stratum{{Size: 100, Sampled: 100, Matches: 37}})
	if err != nil {
		t.Fatal(err)
	}
	if est.StdDev != 0 {
		t.Errorf("census stddev %v, want 0", est.StdDev)
	}
	lo, hi, err = est.Interval(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 37 || hi != 37 {
		t.Errorf("census interval [%v,%v], want exactly 37", lo, hi)
	}
}

// TestEstimateTotalDegenerateStrata pins all-match and all-nonmatch strata:
// p(1-p) = 0 makes their sample variance vanish even for partial samples,
// and the bounds must stay clamped inside [0, Pairs].
func TestEstimateTotalDegenerateStrata(t *testing.T) {
	est, err := EstimateTotal([]Stratum{
		{Size: 200, Sampled: 50, Matches: 50}, // all-match
		{Size: 200, Sampled: 50, Matches: 0},  // all-nonmatch
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := est.Mean, 200.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean %v, want %v", got, want)
	}
	if est.StdDev != 0 {
		t.Errorf("degenerate strata stddev %v, want 0 (p(1-p) vanishes)", est.StdDev)
	}
	lo, hi, err := est.Interval(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 200 || hi != 200 {
		t.Errorf("interval [%v,%v], want exactly the point estimate", lo, hi)
	}

	// A single observed pair must widen, not shrink, the margin (worst-case
	// Bernoulli variance), even when that one pair matched.
	est, err = EstimateTotal([]Stratum{{Size: 100, Sampled: 1, Matches: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if est.StdDev <= 0 {
		t.Error("single-sample stratum must assume worst-case variance")
	}
	lo, hi, err = est.Interval(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 0 || hi > 100 {
		t.Errorf("interval [%v,%v] escapes [0,100]", lo, hi)
	}

	// Empty strata (Size 0) contribute nothing and must not error.
	est, err = EstimateTotal([]Stratum{{}, {Size: 10, Sampled: 10, Matches: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 3 || est.Pairs != 10 {
		t.Errorf("estimate with empty stratum: %+v", est)
	}
}
