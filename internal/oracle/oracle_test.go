package oracle

import (
	"math/rand"
	"sync"
	"testing"
)

func sampleTruth(n int, seed int64) map[int]bool {
	rng := rand.New(rand.NewSource(seed))
	truth := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		truth[i] = rng.Float64() < 0.5
	}
	return truth
}

func TestSimulatedLabelAndCost(t *testing.T) {
	truth := map[int]bool{1: true, 2: false, 3: true}
	o := NewSimulated(truth)
	if o.Cost() != 0 {
		t.Fatalf("initial cost = %d", o.Cost())
	}
	if !o.Label(1) || o.Label(2) {
		t.Error("labels disagree with truth")
	}
	if o.Cost() != 2 {
		t.Errorf("cost = %d, want 2", o.Cost())
	}
	// Repeat labeling is free.
	o.Label(1)
	if o.Cost() != 2 {
		t.Errorf("repeat label charged: cost = %d", o.Cost())
	}
	o.Reset()
	if o.Cost() != 0 {
		t.Error("reset should clear the ledger")
	}
	if !o.Label(3) {
		t.Error("label after reset wrong")
	}
}

func TestSimulatedTruthDoesNotCharge(t *testing.T) {
	o := NewSimulated(map[int]bool{1: true})
	v, err := o.Truth(1)
	if err != nil || !v {
		t.Fatalf("Truth(1) = %v, %v", v, err)
	}
	if o.Cost() != 0 {
		t.Error("Truth must not charge cost")
	}
	if _, err := o.Truth(99); err == nil {
		t.Error("unknown id should error")
	}
}

func TestSimulatedUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown pair should panic")
		}
	}()
	NewSimulated(map[int]bool{}).Label(42)
}

func TestSimulatedImmuneToCallerMutation(t *testing.T) {
	truth := map[int]bool{1: true}
	o := NewSimulated(truth)
	truth[1] = false // caller mutates their map
	if !o.Label(1) {
		t.Error("oracle must copy the truth map")
	}
}

func TestSimulatedConcurrent(t *testing.T) {
	truth := sampleTruth(1000, 1)
	o := NewSimulated(truth)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if o.Label(i) != truth[i] {
					t.Errorf("label mismatch at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if o.Cost() != 1000 {
		t.Errorf("cost = %d, want 1000", o.Cost())
	}
}

func TestNoisyValidation(t *testing.T) {
	if _, err := NewNoisy(nil, -0.1, nil); err == nil {
		t.Error("negative error rate should fail")
	}
	if _, err := NewNoisy(nil, 1.0, nil); err == nil {
		t.Error("error rate 1 should fail")
	}
	if _, err := NewNoisy(nil, 0.1, nil); err == nil {
		t.Error("missing rng should fail")
	}
	if _, err := NewNoisy(map[int]bool{}, 0, nil); err != nil {
		t.Errorf("zero error rate without rng should work: %v", err)
	}
}

func TestNoisyErrorRateApproximate(t *testing.T) {
	truth := sampleTruth(20000, 2)
	o, err := NewNoisy(truth, 0.1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for i := 0; i < 20000; i++ {
		if o.Label(i) != truth[i] {
			flipped++
		}
	}
	rate := float64(flipped) / 20000
	if rate < 0.08 || rate > 0.12 {
		t.Errorf("observed flip rate %.3f, want ~0.10", rate)
	}
	// Memoized: same answers on re-ask.
	for i := 0; i < 100; i++ {
		first := o.Label(i)
		if o.Label(i) != first {
			t.Fatal("noisy oracle must memoize answers")
		}
	}
	if o.Cost() != 20000 {
		t.Errorf("cost = %d, want 20000", o.Cost())
	}
	if v, err := o.Truth(0); err != nil || v != truth[0] {
		t.Error("Truth must return the error-free label")
	}
}
