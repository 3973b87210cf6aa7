package stats

import (
	"errors"
	"math"
	"testing"
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

func TestStratumTotal(t *testing.T) {
	cases := []struct {
		s                  Stratum
		mean, variance, df float64
	}{
		// n·p = 50; variance 200²·(1-40/200)·0.25·0.75/39; df 39.
		{Stratum{Size: 200, Sampled: 40, Matches: 10}, 50, 200 * 200 * 0.8 * 0.25 * 0.75 / 39, 39},
		// A census has no sampling variance left.
		{Stratum{Size: 200, Sampled: 200, Matches: 30}, 30, 0, 199},
		// One answer: maximal Bernoulli variance, no degrees of freedom.
		{Stratum{Size: 100, Sampled: 1, Matches: 1}, 100, 100 * 100 * 0.99 * 0.25, 0},
		{Stratum{Size: 100}, 0, 0, 0},
	}
	for _, c := range cases {
		mean, variance, df := c.s.Total()
		if mean != c.mean || math.Abs(variance-c.variance) > 1e-9*c.variance || df != c.df {
			t.Errorf("%+v.Total() = (%v, %v, %v), want (%v, %v, %v)",
				c.s, mean, variance, df, c.mean, c.variance, c.df)
		}
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
