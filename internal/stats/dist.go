// Package stats provides the statistical machinery HUMO's sampling-based
// optimizers rely on: normal and Student-t quantiles (with a process-wide,
// bit-identical table of Student-t critical values, TTableFor), the
// regularized incomplete beta function, and stratified random-sampling
// estimators in the style of Cochran (Sampling Techniques, 3rd ed.), which
// the paper cites for its error-margin computation (Eq. 12).
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadParam reports an out-of-domain parameter to a statistical routine.
var ErrBadParam = errors.New("stats: parameter out of domain")

// NormalQuantile returns the p-quantile of the standard normal distribution,
// i.e. the value z with P(Z <= z) = p. It panics only for NaN input; p
// outside (0,1) returns +/-Inf.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) {
		panic("stats: NormalQuantile called with NaN")
	}
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	}
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// TwoSidedZ returns the critical value z such that a standard normal variable
// falls within (-z, z) with probability theta. This is the Z_(1-theta) factor
// of Eq. 21 in the paper.
func TwoSidedZ(theta float64) (float64, error) {
	if !(theta > 0 && theta < 1) {
		return 0, fmt.Errorf("%w: confidence theta=%v must be in (0,1)", ErrBadParam, theta)
	}
	return NormalQuantile(0.5 + theta/2), nil
}

// LnGamma is the natural log of the gamma function (thin wrapper that drops
// the sign, which is always +1 for positive arguments used here).
func LnGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes "betacf" form).
// It returns an error when a, b <= 0 or x is outside [0, 1].
func RegIncBeta(a, b, x float64) (float64, error) {
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("%w: RegIncBeta a=%v b=%v must be > 0", ErrBadParam, a, b)
	}
	if x < 0 || x > 1 {
		return 0, fmt.Errorf("%w: RegIncBeta x=%v must be in [0,1]", ErrBadParam, x)
	}
	return regIncBeta(a, b, x, lnBeta(a, b))
}

// lnBeta is ln B(a, b), the log of the complete beta function.
func lnBeta(a, b float64) float64 {
	return LnGamma(a) + LnGamma(b) - LnGamma(a+b)
}

// regIncBeta is RegIncBeta for validated a, b, x with ln B(a, b)
// precomputed by lnBeta, so a caller evaluating many x at fixed (a, b) —
// StudentTQuantile's bisection — pays the three log-gamma calls once. The
// result is bit-identical to RegIncBeta's.
func regIncBeta(a, b, x, lnB float64) (float64, error) {
	switch x {
	case 0:
		return 0, nil
	case 1:
		return 1, nil
	}
	// Prefactor x^a (1-x)^b / (a B(a,b)).
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lnB)
	// Use the symmetry relation to keep the continued fraction convergent.
	if x < (a+1)/(a+b+2) {
		cf, err := betaCF(a, b, x)
		if err != nil {
			return 0, err
		}
		return front * cf / a, nil
	}
	cf, err := betaCF(b, a, 1-x)
	if err != nil {
		return 0, err
	}
	return 1 - front*cf/b, nil
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) (float64, error) {
	const (
		maxIter = 500
		eps     = 3e-14
		fpMin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h, nil
		}
	}
	return h, fmt.Errorf("%w: incomplete beta continued fraction did not converge (a=%v b=%v x=%v)", ErrBadParam, a, b, x)
}

// StudentTCDF returns P(T <= t) for a Student-t variable with df degrees of
// freedom.
func StudentTCDF(t, df float64) (float64, error) {
	if df <= 0 {
		return 0, fmt.Errorf("%w: StudentTCDF df=%v must be > 0", ErrBadParam, df)
	}
	if math.IsInf(t, 1) {
		return 1, nil
	}
	if math.IsInf(t, -1) {
		return 0, nil
	}
	return studentTCDF(t, df, lnBeta(df/2, 0.5))
}

// studentTCDF is StudentTCDF for finite t and df > 0, with the incomplete
// beta function's ln B(df/2, 1/2) precomputed by the caller.
func studentTCDF(t, df, lnB float64) (float64, error) {
	// x is in (0, 1] for finite t and df > 0, so RegIncBeta's domain checks
	// cannot fire.
	x := df / (df + t*t)
	ib, err := regIncBeta(df/2, 0.5, x, lnB)
	if err != nil {
		return 0, err
	}
	if t >= 0 {
		return 1 - ib/2, nil
	}
	return ib / 2, nil
}

// StudentTQuantile returns the p-quantile of the Student-t distribution with
// df degrees of freedom, computed by monotone bisection on the CDF seeded
// with the normal quantile. Accuracy is ~1e-10, far beyond what the bound
// computations need.
func StudentTQuantile(p, df float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("%w: StudentTQuantile p=%v must be in (0,1)", ErrBadParam, p)
	}
	if df <= 0 {
		return 0, fmt.Errorf("%w: StudentTQuantile df=%v must be > 0", ErrBadParam, df)
	}
	if p == 0.5 {
		return 0, nil
	}
	// Exploit symmetry: solve for p > 0.5 and mirror.
	if p < 0.5 {
		q, err := StudentTQuantile(1-p, df)
		return -q, err
	}
	// Bracket the root. The normal quantile is a lower bound for the t
	// quantile when p > 0.5 (t has heavier tails).
	lo := NormalQuantile(p)
	if lo < 0 {
		lo = 0
	}
	lnB := lnBeta(df/2, 0.5) // fixed across every CDF evaluation below
	hi := lo + 1
	for {
		c, err := studentTCDF(hi, df, lnB)
		if err != nil {
			return 0, err
		}
		if c >= p {
			break
		}
		hi *= 2
		if hi > 1e12 {
			return 0, fmt.Errorf("%w: StudentTQuantile failed to bracket p=%v df=%v", ErrBadParam, p, df)
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		c, err := studentTCDF(mid, df, lnB)
		if err != nil {
			return 0, err
		}
		if c < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// TwoSidedT returns the Student-t critical value t~ such that
// P(-t~ < T < t~) = theta for df degrees of freedom. This is the
// t_(1-theta, d.f.) factor of Eq. 12 in the paper. Very large df fall back
// to the normal critical value.
//
// Every call runs the quantile bisection afresh. Hot paths read the same
// bits from TTableFor(theta), which memoises integral 1 <= df <=
// TTableMaxDF and computes any other df through this function.
func TwoSidedT(theta, df float64) (float64, error) {
	if !(theta > 0 && theta < 1) {
		return 0, fmt.Errorf("%w: confidence theta=%v must be in (0,1)", ErrBadParam, theta)
	}
	if df <= 0 {
		return 0, fmt.Errorf("%w: df=%v must be > 0", ErrBadParam, df)
	}
	if df > 1e7 {
		return TwoSidedZ(theta)
	}
	return StudentTQuantile(0.5+theta/2, df)
}
