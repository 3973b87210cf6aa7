package core

import (
	"math"
	"slices"
	"testing"

	"humo/internal/gp"
)

// fitInput is one FitSelect input, shaped like Algorithm 1's: subset mean
// similarities, their match proportions (a logistic curve) and small
// binomial noise variances. x[0], y[0] and noise[0] are +0, so a test can
// flip their signs.
type fitInput struct {
	x, y, noise []float64
	grid        []gp.Config
}

func newFitInput(n int) fitInput {
	in := fitInput{grid: append(gp.DefaultGrid(1e-4), gp.DefaultGrid(4e-3)...)}
	for i := 0; i < n; i++ {
		v := float64(i) / float64(n-1)
		p := 1 / (1 + math.Exp(-14*(v-0.6)))
		in.x = append(in.x, v)
		in.y = append(in.y, p)
		in.noise = append(in.noise, p*(1-p)/200)
	}
	in.y[0], in.noise[0] = 0, 0
	return in
}

// clone deep-copies the input, so a variant shares no memory with it.
func (in fitInput) clone() fitInput {
	return fitInput{slices.Clone(in.x), slices.Clone(in.y), slices.Clone(in.noise), slices.Clone(in.grid)}
}

// regBits collects the bits of everything a regressor reports: its
// hyperparameters, likelihoods, and posterior mean, variance and whitened
// cross-covariance over a probe grid. Two regressors with equal regBits
// are interchangeable for every caller.
func regBits(t *testing.T, r *gp.Regressor) []uint64 {
	t.Helper()
	c := r.Config()
	var mean uint64
	if c.EmpiricalMean {
		mean = 1
	}
	out := []uint64{math.Float64bits(c.LengthScale), math.Float64bits(c.SignalVar), math.Float64bits(c.NoiseFloor), mean,
		math.Float64bits(r.LogMarginalLikelihood())}
	loo, err := r.LOOLogDensity()
	if err != nil {
		loo = math.Inf(-1)
	}
	out = append(out, math.Float64bits(loo))
	for i := -2; i <= 22; i++ {
		v := float64(i) / 20
		pv, err := r.PredictVar(v)
		if err != nil {
			t.Fatal(err)
		}
		w, err := r.Whiten(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, math.Float64bits(r.PredictMean(v)), math.Float64bits(pv))
		for _, x := range w {
			out = append(out, math.Float64bits(x))
		}
	}
	return out
}

// checkFit fits in through the memo and requires the result to be bit for
// bit a cold gp.FitSelect's, errors included.
func checkFit(t *testing.T, m *fitMemo, name string, in fitInput) *gp.Regressor {
	t.Helper()
	got, err := m.fitSelect(in.x, in.y, in.noise, in.grid)
	cold, coldErr := gp.FitSelect(in.x, in.y, in.noise, in.grid)
	if (err != nil) != (coldErr != nil) {
		t.Fatalf("%s: memo error %v, cold error %v", name, err, coldErr)
	}
	if err != nil {
		return nil
	}
	if !slices.Equal(regBits(t, got), regBits(t, cold)) {
		t.Fatalf("%s: memo fit differs from a cold FitSelect", name)
	}
	return got
}

// TestFitMemoHit: a second fit of the same bits, from freshly allocated
// slices, is a hit (the stored regressor itself), and that regressor is
// bit for bit a cold fit.
func TestFitMemoHit(t *testing.T) {
	m := newFitMemo()
	in := newFitInput(24)
	first := checkFit(t, m, "miss", in)
	hit := checkFit(t, m, "hit", in.clone())
	if first == nil || hit != first {
		t.Fatalf("second fit of identical bits was not served from the memo")
	}
	if len(m.regs) != 1 {
		t.Fatalf("memo holds %d entries, want 1", len(m.regs))
	}
}

// TestFitMemoKeysExactBits: inputs that differ only where == cannot see it
// (signed zeros, NaN payloads), in one grid field, or in length each get
// their own key and entry, and each entry is its own input's cold fit. A
// NaN noise variance fails every candidate's factorization, so the two NaN
// inputs are checked by their keys and by erroring like a cold fit.
func TestFitMemoKeysExactBits(t *testing.T) {
	base := newFitInput(24)
	negZero := math.Copysign(0, -1)
	variant := func(edit func(in *fitInput)) fitInput {
		in := base.clone()
		edit(&in)
		return in
	}
	inputs := []struct {
		name string
		in   fitInput
	}{
		{"base", base},
		{"x[0] -0", variant(func(in *fitInput) { in.x[0] = negZero })},
		{"y[0] -0", variant(func(in *fitInput) { in.y[0] = negZero })},
		{"noise[0] -0", variant(func(in *fitInput) { in.noise[0] = negZero })},
		{"noise NaN payload 1", variant(func(in *fitInput) { in.noise[5] = math.Float64frombits(0x7ff8000000000001) })},
		{"noise NaN payload 2", variant(func(in *fitInput) { in.noise[5] = math.Float64frombits(0x7ff8000000000002) })},
		{"grid NoiseFloor last bit", variant(func(in *fitInput) {
			in.grid[7].NoiseFloor = math.Float64frombits(math.Float64bits(in.grid[7].NoiseFloor) ^ 1)
		})},
		{"grid EmpiricalMean", variant(func(in *fitInput) { in.grid[7].EmpiricalMean = true })},
		{"nil noise", variant(func(in *fitInput) { in.noise = nil })},
		{"shorter", variant(func(in *fitInput) { in.x, in.y, in.noise = in.x[:23], in.y[:23], in.noise[:23] })},
		{"shorter grid", variant(func(in *fitInput) { in.grid = in.grid[:49] })},
	}
	keys := make(map[string]string)
	for _, c := range inputs {
		k := fitKey(c.in.x, c.in.y, c.in.noise, c.in.grid)
		if prev, dup := keys[k]; dup {
			t.Fatalf("%s and %s share a key", c.name, prev)
		}
		keys[k] = c.name
	}
	m := newFitMemo()
	served := make(map[*gp.Regressor]string)
	for _, c := range inputs {
		r := checkFit(t, m, c.name, c.in)
		if r == nil {
			continue
		}
		if prev, ok := served[r]; ok {
			t.Fatalf("%s was served %s's regressor", c.name, prev)
		}
		served[r] = c.name
	}
	if len(served) != len(inputs)-2 {
		t.Fatalf("%d of %d inputs fitted, want all but the two NaN-noise ones", len(served), len(inputs))
	}
	// Every entry is still there and is still its own input's.
	for _, c := range inputs {
		r, err := m.fitSelect(c.in.x, c.in.y, c.in.noise, c.in.grid)
		if err == nil && served[r] != c.name {
			t.Fatalf("refit of %s served %q's regressor", c.name, served[r])
		}
	}
}

// TestFitMemoBudget: a memo filled past its budget clears itself, never
// holds more than the budget, keeps returning cold-fit bits, and does not
// store an entry larger than the whole budget.
func TestFitMemoBudget(t *testing.T) {
	in := newFitInput(24)
	one := len(fitKey(in.x, in.y, in.noise, in.grid)) + 8*(24*24+3*24)
	m := &fitMemo{budget: 3 * one}
	for round := 0; round < 2; round++ {
		for i := 0; i < 8; i++ {
			v := in.clone()
			v.y[3] += float64(i) / 1000
			checkFit(t, m, "fill", v)
			if m.bytes > m.budget || len(m.regs) > 3 {
				t.Fatalf("memo holds %d bytes in %d entries, budget %d", m.bytes, len(m.regs), m.budget)
			}
		}
	}
	tiny := &fitMemo{budget: one - 1}
	checkFit(t, tiny, "oversized", in)
	if len(tiny.regs) != 0 || tiny.bytes != 0 {
		t.Fatalf("an entry larger than the budget was stored")
	}
}
