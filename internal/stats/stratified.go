package stats

import (
	"fmt"
	"math"
)

// Stratum describes one sampled stratum (one unit subset of the workload in
// HUMO's terms): its population size, how many pairs were sampled from it,
// and how many of those samples were matching pairs.
type Stratum struct {
	Size    int // N_i: pairs in the stratum
	Sampled int // s_i: pairs drawn (without replacement) and labeled
	Matches int // matching pairs among the sampled
}

// Proportion returns the observed match proportion of the stratum.
func (s Stratum) Proportion() float64 {
	if s.Sampled == 0 {
		return 0
	}
	return float64(s.Matches) / float64(s.Sampled)
}

// Validate reports whether the stratum is internally consistent.
func (s Stratum) Validate() error {
	switch {
	case s.Size < 0 || s.Sampled < 0 || s.Matches < 0:
		return fmt.Errorf("%w: negative stratum field %+v", ErrBadParam, s)
	case s.Sampled > s.Size:
		return fmt.Errorf("%w: sampled %d exceeds stratum size %d", ErrBadParam, s.Sampled, s.Size)
	case s.Matches > s.Sampled:
		return fmt.Errorf("%w: matches %d exceed sampled %d", ErrBadParam, s.Matches, s.Sampled)
	}
	return nil
}

// StratifiedTotal is the stratified random-sampling estimate of the total
// number of matching pairs across a union of strata, with its estimated
// standard deviation and the degrees of freedom used for Student-t margins.
type StratifiedTotal struct {
	Mean   float64 // estimated total matching pairs
	StdDev float64 // estimated standard deviation of the total
	DF     float64 // degrees of freedom, sum over strata of (s_i - 1)
	Pairs  int     // total population size of the union
}

// EstimateTotal combines per-stratum sample proportions into an estimate of
// the total number of matching pairs in the union of the given strata,
// following Cochran's stratified estimator with finite-population correction:
//
//	mean = sum N_i * p_i
//	var  = sum N_i^2 * (1 - s_i/N_i) * p_i(1-p_i) / (s_i - 1)
//
// Strata with a single sample contribute a worst-case variance term
// (p=1/2 over s_i=1) so that tiny samples widen rather than silently shrink
// the margin.
func EstimateTotal(strata []Stratum) (StratifiedTotal, error) {
	var out StratifiedTotal
	for i, s := range strata {
		if err := s.Validate(); err != nil {
			return out, fmt.Errorf("stratum %d: %w", i, err)
		}
		out.Pairs += s.Size
		if s.Sampled == 0 {
			if s.Size > 0 {
				return out, fmt.Errorf("%w: stratum %d has size %d but no samples", ErrBadParam, i, s.Size)
			}
			continue
		}
		n := float64(s.Size)
		si := float64(s.Sampled)
		p := s.Proportion()
		out.Mean += n * p
		fpc := 1 - si/n
		if fpc < 0 {
			fpc = 0
		}
		var v float64
		if s.Sampled > 1 {
			v = n * n * fpc * p * (1 - p) / (si - 1)
			out.DF += si - 1
		} else {
			// Single observation: no variance information; assume the
			// maximal Bernoulli variance.
			v = n * n * fpc * 0.25
		}
		out.StdDev += v
	}
	out.StdDev = math.Sqrt(out.StdDev)
	if out.DF < 1 {
		out.DF = 1
	}
	return out, nil
}

// Interval returns the two-sided confidence interval of the estimated total
// at the given confidence level, using the Student-t critical value
// (Eq. 12 in the paper). Bounds are clamped to [0, Pairs]: a count of
// matching pairs cannot be negative nor exceed the population.
func (t StratifiedTotal) Interval(theta float64) (lo, hi float64, err error) {
	crit, err := TwoSidedT(theta, t.DF)
	if err != nil {
		return 0, 0, err
	}
	lo = t.Mean - crit*t.StdDev
	hi = t.Mean + crit*t.StdDev
	if lo < 0 {
		lo = 0
	}
	if max := float64(t.Pairs); hi > max {
		hi = max
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi, nil
}

// LowerBound returns the one-sided-style lower bound lb(n+, theta) used by
// Eq. 13–14: the lower endpoint of the two-sided theta interval.
func (t StratifiedTotal) LowerBound(theta float64) (float64, error) {
	lo, _, err := t.Interval(theta)
	return lo, err
}

// UpperBound returns ub(n+, theta), the upper endpoint of the two-sided
// theta interval.
func (t StratifiedTotal) UpperBound(theta float64) (float64, error) {
	_, hi, err := t.Interval(theta)
	return hi, err
}

// WilsonInterval returns the Wilson score interval for a simple binomial
// proportion: k successes out of n trials at confidence theta. The ACTL
// baseline uses it to bound the precision of a candidate classifier from a
// labeled sample.
func WilsonInterval(k, n int, theta float64) (lo, hi float64, err error) {
	if n <= 0 || k < 0 || k > n {
		return 0, 0, fmt.Errorf("%w: WilsonInterval k=%d n=%d", ErrBadParam, k, n)
	}
	z, err := TwoSidedZ(theta)
	if err != nil {
		return 0, 0, err
	}
	return WilsonIntervalZ(k, n, z)
}

// WilsonIntervalZ is WilsonInterval at the normal critical value z =
// TwoSidedZ(theta), for callers that hold z (a TTable's Z) and bound many
// proportions at one confidence.
func WilsonIntervalZ(k, n int, z float64) (lo, hi float64, err error) {
	if n <= 0 || k < 0 || k > n {
		return 0, 0, fmt.Errorf("%w: WilsonInterval k=%d n=%d", ErrBadParam, k, n)
	}
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 when len < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}
