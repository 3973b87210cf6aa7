// Package gp implements one-dimensional Gaussian-process regression with a
// squared-exponential (RBF) kernel. HUMO's partial-sampling optimizer
// (paper §VI-B) uses it to approximate the match-proportion function over
// similarity values from a handful of sampled subsets, and to propagate
// sampling-error margins into the aggregate bounds of Eq. 19–21.
package gp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"humo/internal/mat"
)

// ErrBadInput reports invalid training or prediction input.
var ErrBadInput = errors.New("gp: invalid input")

// Config holds the RBF kernel hyperparameters and the noise model.
type Config struct {
	// LengthScale is the RBF length scale l in k(v,v') =
	// SignalVar * exp(-(v-v')^2 / (2 l^2)). Must be > 0.
	LengthScale float64
	// SignalVar is the signal variance (kernel amplitude). Must be > 0.
	SignalVar float64
	// NoiseFloor is a homoscedastic observation-noise variance added to the
	// kernel diagonal for numerical stability and regularization. Must be
	// >= 0; a small positive value is recommended.
	NoiseFloor float64
	// EmpiricalMean centers the prior on the empirical mean of the training
	// targets instead of zero. The paper's formulation (Eq. 15) is
	// zero-mean, which is also the right choice for match-proportion
	// curves: regions far from any sample revert to proportion 0 rather
	// than to the average of wherever sampling happened to land.
	EmpiricalMean bool
}

// DefaultConfig returns hyperparameters that work well for match-proportion
// curves over the [0,1] similarity axis: correlations decay over roughly a
// tenth of the axis, and proportions vary on the order of +-0.5.
func DefaultConfig() Config {
	return Config{LengthScale: 0.08, SignalVar: 0.25, NoiseFloor: 1e-4}
}

func (c Config) validate() error {
	if !(c.LengthScale > 0) {
		return fmt.Errorf("%w: LengthScale=%v must be > 0", ErrBadInput, c.LengthScale)
	}
	if !(c.SignalVar > 0) {
		return fmt.Errorf("%w: SignalVar=%v must be > 0", ErrBadInput, c.SignalVar)
	}
	if c.NoiseFloor < 0 {
		return fmt.Errorf("%w: NoiseFloor=%v must be >= 0", ErrBadInput, c.NoiseFloor)
	}
	return nil
}

// kernel evaluates the RBF kernel between two scalar inputs.
func (c Config) kernel(a, b float64) float64 {
	d := a - b
	return c.SignalVar * math.Exp(-d*d/(2*c.LengthScale*c.LengthScale))
}

// Regressor is a fitted Gaussian process. It is immutable after Fit.
type Regressor struct {
	cfg   Config
	x     []float64
	alpha []float64 // K^-1 (y - mean)
	chol  *mat.Cholesky
	mean  float64 // constant prior mean (empirical mean of y)
	lml   float64 // log marginal likelihood of the training data
}

// Fit trains a GP on observations (x[i], y[i]) with optional per-point
// observation-noise variances. noise may be nil (interpreted as zeros); when
// present it must have the same length as x. Per-point noise lets callers
// encode binomial sampling variance of each observed match proportion, which
// is how the paper "smoothly integrates sampling error margins" (§VI-B).
func Fit(x, y, noise []float64, cfg Config) (*Regressor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := checkInput(x, y, noise); err != nil {
		return nil, err
	}
	k := mat.NewDense(len(x), len(x))
	fillKernel(k, rbfExp(x, cfg.LengthScale), noise, cfg)
	r, err := fitKernel(x, y, k, cfg)
	if err != nil {
		return nil, err
	}
	r.x = append([]float64(nil), x...)
	return r, nil
}

// checkInput validates the training observations shared by every
// candidate configuration.
func checkInput(x, y, noise []float64) error {
	n := len(x)
	if n == 0 {
		return fmt.Errorf("%w: no training points", ErrBadInput)
	}
	if len(y) != n {
		return fmt.Errorf("%w: len(x)=%d len(y)=%d", ErrBadInput, n, len(y))
	}
	if noise != nil && len(noise) != n {
		return fmt.Errorf("%w: len(noise)=%d, want %d", ErrBadInput, len(noise), n)
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			return fmt.Errorf("%w: NaN at index %d", ErrBadInput, i)
		}
		if noise != nil && noise[i] < 0 {
			return fmt.Errorf("%w: negative noise at index %d", ErrBadInput, i)
		}
	}
	return nil
}

// rbfExp returns exp(-(x_i-x_j)^2 / (2 l^2)) over the lower triangle
// (j <= i), row by row: the kernel's exponential factor for length scale l,
// computed as Config.kernel computes it.
func rbfExp(x []float64, l float64) []float64 {
	n := len(x)
	e := make([]float64, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := x[i] - x[j]
			e = append(e, math.Exp(-d*d/(2*l*l)))
		}
	}
	return e
}

// fillKernel writes the lower triangle of the kernel matrix from the
// exponentials e of cfg's length scale: SignalVar * e, the expression
// Config.kernel evaluates, plus on the diagonal the noise floor, the point's
// own noise variance, and a jitter that keeps the factorization stable even
// with duplicate inputs.
func fillKernel(k *mat.Dense, e, noise []float64, cfg Config) {
	n, _ := k.Dims()
	kd := k.Data()
	for i, p := 0, 0; i < n; i++ {
		for j := 0; j <= i; j, p = j+1, p+1 {
			kd[i*n+j] = cfg.SignalVar * e[p]
		}
		diag := cfg.NoiseFloor
		if noise != nil {
			diag += noise[i]
		}
		kd[i*n+i] += diag + 1e-10
	}
}

// fitKernel factorizes the kernel matrix k (only its lower triangle is
// read) and fits the regressor's weights and marginal likelihood. The
// returned regressor aliases x; callers that keep it store a copy.
func fitKernel(x, y []float64, k *mat.Dense, cfg Config) (*Regressor, error) {
	chol, err := mat.NewCholesky(k)
	if err != nil {
		return nil, fmt.Errorf("gp: kernel matrix factorization failed: %w", err)
	}
	n := len(x)
	meanY := 0.0
	if cfg.EmpiricalMean {
		for _, v := range y {
			meanY += v
		}
		meanY /= float64(n)
	}
	centered := make([]float64, n)
	for i, v := range y {
		centered[i] = v - meanY
	}
	alpha, err := chol.SolveVec(centered)
	if err != nil {
		return nil, err
	}

	quad, err := mat.Dot(centered, alpha)
	if err != nil {
		return nil, err
	}
	lml := -0.5*quad - 0.5*chol.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
	return &Regressor{cfg: cfg, x: x, alpha: alpha, chol: chol, mean: meanY, lml: lml}, nil
}

// Config returns the hyperparameters the regressor was fitted with.
func (r *Regressor) Config() Config { return r.cfg }

// LogMarginalLikelihood returns the log marginal likelihood of the training
// observations under the fitted model. Higher is better; the grid search in
// FitSelect maximizes it.
func (r *Regressor) LogMarginalLikelihood() float64 { return r.lml }

// PredictMean returns the posterior mean at a single input (Eq. 16).
func (r *Regressor) PredictMean(v float64) float64 {
	var sum float64
	for i, xi := range r.x {
		sum += r.cfg.kernel(v, xi) * r.alpha[i]
	}
	return r.mean + sum
}

// PredictVar returns the posterior variance at a single input (Eq. 17).
// It is never negative.
func (r *Regressor) PredictVar(v float64) (float64, error) {
	ks := make([]float64, len(r.x))
	for i, xi := range r.x {
		ks[i] = r.cfg.kernel(v, xi)
	}
	w, err := r.chol.SolveTriLowerVec(ks)
	if err != nil {
		return 0, err
	}
	q, err := mat.Dot(w, w)
	if err != nil {
		return 0, err
	}
	variance := r.cfg.kernel(v, v) - q
	if variance < 0 {
		variance = 0
	}
	return variance, nil
}

// Posterior holds the joint posterior over a set of query points: the mean
// vector and the full predictive covariance matrix. HUMO aggregates subsets
// of it via Eq. 19–20.
type Posterior struct {
	X    []float64
	Mean []float64
	Cov  *mat.Dense
}

// Predict computes the joint posterior at the query points (Eq. 16–17
// generalized to a vector of test inputs; the cross-covariances are exactly
// the matrix K(V*,V*) - K(V*,V) K(V,V)^-1 K(V,V*) referenced below Eq. 20).
func (r *Regressor) Predict(xs []float64) (*Posterior, error) {
	m := len(xs)
	if m == 0 {
		return nil, fmt.Errorf("%w: no query points", ErrBadInput)
	}
	n := len(r.x)
	mean := make([]float64, m)
	// W holds whitened cross-covariance columns: W[:,j] = L^-1 k(X, xs[j]).
	w := make([][]float64, m)
	for j, v := range xs {
		ks := make([]float64, n)
		var dot float64
		for i, xi := range r.x {
			ks[i] = r.cfg.kernel(v, xi)
			dot += ks[i] * r.alpha[i]
		}
		mean[j] = r.mean + dot
		col, err := r.chol.SolveTriLowerVec(ks)
		if err != nil {
			return nil, err
		}
		w[j] = col
	}
	cov := mat.NewDense(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			d, err := mat.Dot(w[i], w[j])
			if err != nil {
				return nil, err
			}
			v := r.cfg.kernel(xs[i], xs[j]) - d
			if i == j && v < 0 {
				v = 0
			}
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	out := &Posterior{X: append([]float64(nil), xs...), Mean: mean, Cov: cov}
	return out, nil
}

// LOOLogDensity returns the leave-one-out log predictive density of the
// training set under the fitted hyperparameters, computed in closed form
// from the Cholesky factor (Rasmussen & Williams, §5.4.2): with
// r_i = alpha_i / (K^-1)_ii and v_i = 1 / (K^-1)_ii, the score is
// sum_i [ -0.5 log(2 pi v_i) - r_i^2 / (2 v_i) ]. Higher is better. It is a
// far more robust model-selection criterion than marginal likelihood when
// the training set is a handful of (nearly) noiseless anchors, because it
// directly scores between-anchor interpolation. The diagonal of K^-1 comes
// from mat.Cholesky.InverseDiag, ~n³/3 multiply-adds for n training points,
// bit for bit the diagonal that n column solves of the identity would give.
func (r *Regressor) LOOLogDensity() (float64, error) {
	var score float64
	for i, kinv := range r.chol.InverseDiag() {
		if kinv <= 0 {
			return 0, fmt.Errorf("%w: non-positive K^-1 diagonal", ErrBadInput)
		}
		v := 1 / kinv
		res := r.alpha[i] * v
		score += -0.5*math.Log(2*math.Pi*v) - res*res/(2*v)
	}
	return score, nil
}

// KernelValue evaluates the prior covariance k(a, b) under the fitted
// hyperparameters.
func (r *Regressor) KernelValue(a, b float64) float64 { return r.cfg.kernel(a, b) }

// Whiten returns w = L^-1 k(X, v), the whitened cross-covariance of query
// point v against the training inputs. Posterior covariances between any two
// query points a, b can then be formed as k(a,b) - dot(w_a, w_b), which lets
// callers aggregate large numbers of query points without materializing the
// full posterior covariance matrix.
func (r *Regressor) Whiten(v float64) ([]float64, error) {
	ks := make([]float64, len(r.x))
	for i, xi := range r.x {
		ks[i] = r.cfg.kernel(v, xi)
	}
	return r.chol.SolveTriLowerVec(ks)
}

// FitSelect fits one GP per hyperparameter candidate and returns the one
// with the highest leave-one-out log predictive density (falling back to
// log marginal likelihood when fewer than three training points make LOO
// meaningless). Candidates that fail to factorize are skipped; an error is
// returned only if every candidate fails.
//
// Each candidate's fit is bit for bit the one Fit would return, at a
// fraction of the cost: the RBF exponentials are computed once per distinct
// length scale, and every candidate scales them by its signal variance into
// one reused kernel matrix.
func FitSelect(x, y, noise []float64, candidates []Config) (*Regressor, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w: no candidate configurations", ErrBadInput)
	}
	inputErr := checkInput(x, y, noise)
	n := len(x)
	k := mat.NewDense(n, n) // every candidate's kernel matrix, in turn
	var (
		scales  []float64   // distinct length scales seen so far
		expTabs [][]float64 // their exponentials over the lower triangle
	)
	var best *Regressor
	bestScore := math.Inf(-1)
	var firstErr error
	for _, cfg := range candidates {
		err := cfg.validate()
		if err == nil {
			err = inputErr
		}
		var r *Regressor
		if err == nil {
			t := slices.Index(scales, cfg.LengthScale)
			if t < 0 {
				t = len(scales)
				scales = append(scales, cfg.LengthScale)
				expTabs = append(expTabs, rbfExp(x, cfg.LengthScale))
			}
			fillKernel(k, expTabs[t], noise, cfg)
			r, err = fitKernel(x, y, k, cfg)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		score := r.lml
		if n >= 3 {
			if loo, err := r.LOOLogDensity(); err == nil {
				score = loo
			}
		}
		if best == nil || score > bestScore {
			best = r
			bestScore = score
		}
	}
	if best == nil {
		return nil, fmt.Errorf("gp: all candidates failed: %w", firstErr)
	}
	best.x = append([]float64(nil), x...)
	return best, nil
}

// DefaultGrid returns a hyperparameter grid suitable for match-proportion
// curves on the [0,1] similarity axis. The signal variances reach down to
// 1e-3: on heavily imbalanced workloads the proportion curve is nearly flat
// at ~0 across most of the axis, and the marginal likelihood must be able to
// select an amplitude small enough that between-anchor posterior uncertainty
// does not swamp the workload's few hundred matching pairs.
func DefaultGrid(noiseFloor float64) []Config {
	var out []Config
	for _, l := range []float64{0.03, 0.06, 0.1, 0.18, 0.3} {
		for _, s := range []float64{0.001, 0.01, 0.05, 0.15, 0.4} {
			out = append(out, Config{LengthScale: l, SignalVar: s, NoiseFloor: noiseFloor})
		}
	}
	return out
}

// String renders the hyperparameters compactly.
func (c Config) String() string {
	return fmt.Sprintf("gp.Config{l=%g sf2=%g nf=%g empMean=%v}", c.LengthScale, c.SignalVar, c.NoiseFloor, c.EmpiricalMean)
}
