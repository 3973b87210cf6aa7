package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"humo/internal/mat"
)

// refFit is Fit as defined by the per-entry kernel: every entry of K through
// Config.kernel and bounds-checked Set/Add, then the factorization, weights
// and marginal likelihood.
func refFit(x, y, noise []float64, cfg Config) (*Regressor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := checkInput(x, y, noise); err != nil {
		return nil, err
	}
	n := len(x)
	k := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := cfg.kernel(x[i], x[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		diag := cfg.NoiseFloor
		if noise != nil {
			diag += noise[i]
		}
		k.Add(i, i, diag+1e-10)
	}
	chol, err := mat.NewCholesky(k)
	if err != nil {
		return nil, fmt.Errorf("gp: kernel matrix factorization failed: %w", err)
	}
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
	return &Regressor{cfg: cfg, x: append([]float64(nil), x...), alpha: alpha, chol: chol, mean: meanY, lml: lml}, nil
}

// refLOO is the leave-one-out log density with diag(K^-1) taken from n
// column solves of the identity.
func refLOO(r *Regressor) (float64, error) {
	n := len(r.x)
	e := make([]float64, n)
	var score float64
	for i := 0; i < n; i++ {
		if i > 0 {
			e[i-1] = 0
		}
		e[i] = 1
		col, err := r.chol.SolveVec(e)
		if err != nil {
			return 0, err
		}
		kinv := col[i]
		if kinv <= 0 {
			return 0, fmt.Errorf("%w: non-positive K^-1 diagonal", ErrBadInput)
		}
		v := 1 / kinv
		res := r.alpha[i] * v
		score += -0.5*math.Log(2*math.Pi*v) - res*res/(2*v)
	}
	return score, nil
}

// refFitSelect is FitSelect as one refFit per candidate scored by refLOO.
// It returns the winner, its index in candidates and its score.
func refFitSelect(x, y, noise []float64, candidates []Config) (*Regressor, int, float64, error) {
	var best *Regressor
	bestIdx, bestScore := -1, math.Inf(-1)
	var firstErr error
	for c, cfg := range candidates {
		r, err := refFit(x, y, noise, cfg)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		score := r.lml
		if len(x) >= 3 {
			if loo, err := refLOO(r); err == nil {
				score = loo
			}
		}
		if best == nil || score > bestScore {
			best, bestIdx, bestScore = r, c, score
		}
	}
	if best == nil {
		return nil, -1, 0, fmt.Errorf("gp: all candidates failed: %w", firstErr)
	}
	return best, bestIdx, bestScore, nil
}

// selectionGrid is the grid the partial-sampling search builds: five noise
// floors times DefaultGrid.
func selectionGrid() []Config {
	var grid []Config
	for _, nf := range []float64{1e-6, 1e-3, 4e-3, 1e-2, 2.5e-2} {
		grid = append(grid, DefaultGrid(nf)...)
	}
	return grid
}

// anchors draws n sorted-ish training points on a logistic curve with
// binomial-style per-point noise; about one in five inputs duplicates an
// earlier one.
func anchors(rng *rand.Rand, n int) (x, y, noise []float64) {
	x, y, noise = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(5) == 0 {
			x[i] = x[rng.Intn(i)]
		} else {
			x[i] = 0.2 + 0.75*rng.Float64()
		}
		p := logistic(14, x[i]) + 0.05*rng.NormFloat64()
		y[i] = math.Min(1, math.Max(0, p))
		noise[i] = y[i] * (1 - y[i]) / float64(10+rng.Intn(200))
	}
	return x, y, noise
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSameSelection asserts FitSelect returns the reference's pick with
// bit-identical marginal likelihood, LOO score and anchor posterior means,
// or the reference's error text.
func checkSameSelection(t *testing.T, what string, x, y, noise []float64, grid []Config) {
	t.Helper()
	want, wantIdx, wantScore, wantErr := refFitSelect(x, y, noise, grid)
	got, err := FitSelect(x, y, noise, grid)
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: FitSelect err = %v, reference err = %v", what, err, wantErr)
		}
		return
	}
	if got.Config() != want.Config() {
		t.Fatalf("%s: FitSelect picked %v, reference picked candidate %d %v", what, got.Config(), wantIdx, want.Config())
	}
	if !sameBits(got.LogMarginalLikelihood(), want.LogMarginalLikelihood()) {
		t.Fatalf("%s: LML %v, reference %v", what, got.LogMarginalLikelihood(), want.LogMarginalLikelihood())
	}
	fit, err := Fit(x, y, noise, want.Config())
	if err != nil {
		t.Fatalf("%s: Fit of the pick: %v", what, err)
	}
	if !sameBits(fit.LogMarginalLikelihood(), want.LogMarginalLikelihood()) {
		t.Fatalf("%s: Fit of the pick: LML %v, reference %v", what, fit.LogMarginalLikelihood(), want.LogMarginalLikelihood())
	}
	if len(x) >= 3 {
		loo, err := got.LOOLogDensity()
		if err != nil {
			t.Fatalf("%s: LOO: %v", what, err)
		}
		if !sameBits(loo, wantScore) {
			t.Fatalf("%s: LOO %v, reference %v", what, loo, wantScore)
		}
	}
	for _, v := range x {
		if g, w := got.PredictMean(v), want.PredictMean(v); !sameBits(g, w) {
			t.Fatalf("%s: PredictMean(%v) = %v, reference %v", what, v, g, w)
		}
	}
}

func TestFitSelectMatchesPerCandidateFits(t *testing.T) {
	grid := selectionGrid()
	// An invalid candidate in the middle of the grid is skipped.
	withBad := append(append(append([]Config(nil), grid[:60]...), Config{LengthScale: 0, SignalVar: 0.1}), grid[60:]...)
	rng := rand.New(rand.NewSource(5))
	// Every size up to 32, then every eighth: the reference costs ~n³ per
	// candidate.
	for n := 1; n <= 80; n++ {
		if n > 32 && n%8 != 0 {
			continue
		}
		x, y, noise := anchors(rng, n)
		checkSameSelection(t, fmt.Sprintf("n=%d", n), x, y, noise, grid)
		if n%7 == 1 {
			checkSameSelection(t, fmt.Sprintf("n=%d invalid candidate", n), x, y, noise, withBad)
			checkSameSelection(t, fmt.Sprintf("n=%d nil noise", n), x, y, nil, grid)
		}
	}
}

func TestFitSelectAllFailingSameError(t *testing.T) {
	x := []float64{0.2, 0.4, 0.4, 0.7}
	y := []float64{0, 0.3, 0.3, 0.9}
	cases := map[string]struct {
		x, y, noise []float64
		grid        []Config
	}{
		"invalid configs": {x, y, nil, []Config{{LengthScale: 0, SignalVar: 1}, {LengthScale: 1, SignalVar: -1}}},
		"bad input":       {[]float64{0.1, math.NaN()}, []float64{0, 1}, nil, DefaultGrid(1e-4)},
		"invalid then bad input": {[]float64{0.1, 0.2}, []float64{0}, nil,
			[]Config{{LengthScale: 0.1, SignalVar: 0.1, NoiseFloor: -1}, DefaultConfig()}},
		// Duplicate inputs at this amplitude cancel the pivot to exactly 0.
		"not positive definite": {x, y, nil, []Config{{LengthScale: 0.1, SignalVar: 1e300}}},
		"empty grid":            {x, y, nil, nil},
	}
	for name, c := range cases {
		_, wantErr := FitSelect(c.x, c.y, c.noise, c.grid)
		if wantErr == nil {
			t.Fatalf("%s: FitSelect succeeded", name)
		}
		if strings.HasPrefix(name, "not positive") && !errors.Is(wantErr, mat.ErrNotSPD) {
			t.Fatalf("%s: err = %v, want mat.ErrNotSPD", name, wantErr)
		}
		if len(c.grid) > 0 {
			checkSameSelection(t, name, c.x, c.y, c.noise, c.grid)
		}
	}
}

// BenchmarkFitSelect times one model selection over the 125-candidate grid
// the partial-sampling search builds, at anchor counts that search reaches.
func BenchmarkFitSelect(b *testing.B) {
	grid := selectionGrid()
	for _, n := range []int{15, 40, 75} {
		x, y, noise := anchors(rand.New(rand.NewSource(int64(n))), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FitSelect(x, y, noise, grid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
