package oracle

import (
	"math/rand"
	"testing"

	"humo/internal/parallel"
)

// The oracles are the one piece of state every parallel repetition shares a
// type with (each repetition gets its own instance, but nothing stops a
// caller from sharing one). These tests hammer each oracle from the worker
// pool so `go test -race` proves the mutex guards hold, and assert the
// memoized answers and cost accounting stay exact under contention.

func raceTruth(n int) map[int]bool {
	truth := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		truth[i] = i%3 == 0
	}
	return truth
}

func TestSimulatedConcurrentLabel(t *testing.T) {
	const n = 500
	o := NewSimulated(raceTruth(n))
	// Every pair is labeled by four goroutines; memoization must keep the
	// cost at n distinct pairs.
	err := parallel.ForEach(8, 4*n, func(i int) error {
		id := i % n
		if got, want := o.Label(id), id%3 == 0; got != want {
			t.Errorf("Label(%d) = %v, want %v", id, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Cost() != n {
		t.Errorf("Cost = %d, want %d", o.Cost(), n)
	}
}

func TestNoisyConcurrentLabel(t *testing.T) {
	const n = 300
	o, err := NewNoisy(raceTruth(n), 0.2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// First pass records the memoized answers, concurrent second pass must
	// reproduce them exactly (a human does not flip-flop).
	first := make([]bool, n)
	for i := 0; i < n; i++ {
		first[i] = o.Label(i)
	}
	err = parallel.ForEach(8, 4*n, func(i int) error {
		id := i % n
		if got := o.Label(id); got != first[id] {
			t.Errorf("Label(%d) flip-flopped: %v then %v", id, first[id], got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Cost() != n {
		t.Errorf("Cost = %d, want %d", o.Cost(), n)
	}
}
