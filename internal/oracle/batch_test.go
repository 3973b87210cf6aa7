package oracle

import (
	"math/rand"
	"testing"
)

// TestNoisyBatchSequentialParity checks the determinism contract of
// LabelAll: a batched run consumes the error stream exactly like a
// pair-by-pair run, so memoized answers agree bit for bit.
func TestNoisyBatchSequentialParity(t *testing.T) {
	truth := map[int]bool{}
	ids := make([]int, 0, 500)
	for i := 0; i < 500; i++ {
		truth[i] = i%3 == 0
		ids = append(ids, i)
	}
	seq, err := NewNoisy(truth, 0.2, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	bat, err := NewNoisy(truth, 0.2, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	got := bat.LabelAll(ids)
	for i, id := range ids {
		if want := seq.Label(id); got[i] != want {
			t.Fatalf("pair %d: batch answer %v, sequential answer %v", id, got[i], want)
		}
	}
	if seq.Cost() != bat.Cost() {
		t.Fatalf("cost diverged: sequential %d, batch %d", seq.Cost(), bat.Cost())
	}
}

// TestSimulatedBatchParity checks LabelAll answers and costs match Label.
func TestSimulatedBatchParity(t *testing.T) {
	truth := map[int]bool{1: true, 2: false, 3: true}
	o := NewSimulated(truth)
	got := o.LabelAll([]int{1, 2, 3, 1})
	want := []bool{true, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d = %v, want %v", i, got[i], want[i])
		}
	}
	if o.Cost() != 3 {
		t.Fatalf("Cost() = %d, want 3 (duplicates are free)", o.Cost())
	}
}
