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

// Total returns the stratum's term of the stratified estimator (Eq. 12):
// the estimated match total n·p, its finite-population-corrected variance
// and its degrees of freedom. A single answer carries no variance
// information, so it gets the maximal Bernoulli variance and no degrees of
// freedom; an unsampled stratum contributes nothing.
func (s Stratum) Total() (mean, variance, df float64) {
	n, si := float64(s.Size), float64(s.Sampled)
	p := s.Proportion()
	switch {
	case s.Sampled > 1:
		fpc := 1 - si/n
		if fpc < 0 {
			fpc = 0
		}
		return n * p, n * n * fpc * p * (1 - p) / (si - 1), si - 1
	case s.Sampled == 1:
		return n * p, n * n * (1 - si/n) * 0.25, 0
	}
	return 0, 0, 0
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
