package core

import (
	"encoding/binary"
	"math"
	"sync"

	"humo/internal/gp"
)

// fitMemoBudget bounds the bytes one workload's GP fit memo holds. An entry
// costs about 8·(n² + 3n) bytes for its n×n Cholesky factor and weights
// (~45 KB at Algorithm 1's largest training sets of n = 75) plus its key,
// so one search's few dozen distinct fits take well under a megabyte.
const fitMemoBudget = 32 << 20

// fitMemo remembers gp.FitSelect results on one workload, keyed by the
// exact bits of their inputs. A FitSelect result is a pure function of
// those bits and a *gp.Regressor is read-only after its fit, so a hit
// returns the very regressor a miss would build: searches that repeat a fit
// (the hybrid and risk searches at one seed, a session's checkpoint→restore
// replay, an experiment's runs over one bundle) read it instead of
// refitting, and their results cannot move. Errors are not remembered.
//
// The memo is safe for concurrent use. Fits run outside the lock, so two
// concurrent misses on one key may both compute; the first store wins, and
// both hold identical bits. When an insert would pass the budget, the memo
// is cleared.
type fitMemo struct {
	budget int // fitMemoBudget; a field so that a test can fill the memo cheaply

	mu    sync.Mutex
	regs  map[string]*gp.Regressor
	bytes int
}

func newFitMemo() *fitMemo { return &fitMemo{budget: fitMemoBudget} }

// fitSelect returns gp.FitSelect(x, y, noise, grid), from the memo when an
// input of identical bits was fitted before.
func (m *fitMemo) fitSelect(x, y, noise []float64, grid []gp.Config) (*gp.Regressor, error) {
	key := fitKey(x, y, noise, grid)
	m.mu.Lock()
	r, ok := m.regs[key]
	m.mu.Unlock()
	if ok {
		return r, nil
	}
	r, err := gp.FitSelect(x, y, noise, grid)
	if err != nil {
		return nil, err
	}
	n := len(x)
	cost := len(key) + 8*(n*n+3*n)
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.regs[key]; ok {
		return prev, nil
	}
	if cost > m.budget {
		return r, nil
	}
	if m.regs == nil || m.bytes+cost > m.budget {
		m.regs = make(map[string]*gp.Regressor)
		m.bytes = 0
	}
	m.regs[key] = r
	m.bytes += cost
	return r, nil
}

// fitKey encodes the exact bits of FitSelect's inputs: the lengths, then
// the float64 bits of x, y and noise, then every grid field. Keys compare
// byte for byte, so +0 and −0 differ and a NaN matches only the same NaN
// payload. Nil noise (all zeros) is told apart from an empty slice by its
// length word.
func fitKey(x, y, noise []float64, grid []gp.Config) string {
	noiseLen := uint64(len(noise))
	if noise == nil {
		noiseLen = math.MaxUint64
	}
	b := make([]byte, 0, 8*(4+len(x)+len(y)+len(noise))+25*len(grid))
	for _, v := range []uint64{uint64(len(x)), uint64(len(y)), noiseLen, uint64(len(grid))} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, s := range [][]float64{x, y, noise} {
		for _, v := range s {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, c := range grid {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.LengthScale))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.SignalVar))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.NoiseFloor))
		var mean byte
		if c.EmpiricalMean {
			mean = 1
		}
		b = append(b, mean)
	}
	return string(b)
}
