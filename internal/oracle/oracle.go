// Package oracle simulates the human side of HUMO. The ground-truth labels
// of an ER workload are held out from the optimization algorithms and
// revealed one pair at a time, exactly as in the paper's protocol: "the
// ground-truth labels are originally hidden; whenever manual verification is
// called for, they are provided to the program" (§VIII-A).
//
// Every oracle memoizes, so asking about the same pair twice (e.g. a pair
// that is first sampled and later falls inside DH) costs one inspection —
// matching the paper's human-cost metric, the number of manually inspected
// instance pairs.
package oracle

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// ErrUnknownPair reports a label request for a pair id outside the truth set.
var ErrUnknownPair = errors.New("oracle: unknown pair id")

// Simulated is the simulated human: a memoizing labeler over a fixed ground
// truth. It answers perfectly unless built by NewNoisy with a positive error
// rate. It is safe for concurrent use.
type Simulated struct {
	mu        sync.Mutex
	truth     map[int]bool
	labeled   map[int]bool // memoized answers (also the cost ledger)
	errorRate float64
	rng       *rand.Rand
}

// NewSimulated builds an oracle over ground truth: truth[id] reports whether
// pair id is a matching pair.
func NewSimulated(truth map[int]bool) *Simulated {
	copied := make(map[int]bool, len(truth))
	for id, v := range truth {
		copied[id] = v
	}
	return &Simulated{truth: copied, labeled: make(map[int]bool)}
}

// NewNoisy builds a Simulated oracle with symmetric label noise: each
// pair's human answer is flipped with probability errorRate, decided once
// per pair and then memoized (a human does not flip-flop on the same pair).
// It supports the §IV discussion of human errors in DH and the
// corresponding ablation experiment. errorRate must be in [0, 1); rng must
// be non-nil when errorRate > 0.
func NewNoisy(truth map[int]bool, errorRate float64, rng *rand.Rand) (*Simulated, error) {
	if errorRate < 0 || errorRate >= 1 {
		return nil, fmt.Errorf("oracle: error rate %v must be in [0,1)", errorRate)
	}
	if errorRate > 0 && rng == nil {
		return nil, errors.New("oracle: rng required for errorRate > 0")
	}
	o := NewSimulated(truth)
	o.errorRate, o.rng = errorRate, rng
	return o, nil
}

// Label reveals the pair's label (flipped by the noise, if any), recording
// it as one unit of human cost on first inspection. Unknown ids panic: they
// indicate a wiring bug between workload and oracle, not a user error.
func (o *Simulated) Label(id int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.labelLocked(id)
}

// LabelAll reveals the batch's labels in id order under one lock
// acquisition. Fresh pairs consume the error stream in id order, so a
// batched run is bit-identical to calling Label per id.
func (o *Simulated) LabelAll(ids []int) []bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]bool, len(ids))
	for i, id := range ids {
		out[i] = o.labelLocked(id)
	}
	return out
}

func (o *Simulated) labelLocked(id int) bool {
	if v, ok := o.labeled[id]; ok {
		return v
	}
	v, ok := o.truth[id]
	if !ok {
		panic(fmt.Sprintf("%v: %d", ErrUnknownPair, id))
	}
	if o.errorRate > 0 && o.rng.Float64() < o.errorRate {
		v = !v
	}
	o.labeled[id] = v
	return v
}

// Cost returns the number of distinct pairs manually inspected so far —
// the paper's human-cost metric.
func (o *Simulated) Cost() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.labeled)
}

// Reset clears the inspection ledger (the ground truth is kept), so one
// truth set can serve several independent runs.
func (o *Simulated) Reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.labeled = make(map[int]bool)
}

// Truth returns the error-free ground-truth label without charging human
// cost. It is for evaluation code only (computing achieved precision/recall).
func (o *Simulated) Truth(id int) (bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, ok := o.truth[id]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrUnknownPair, id)
	}
	return v, nil
}
