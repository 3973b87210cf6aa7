package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// requireSameWorkload asserts got and want hold the same pairs in the same
// order, similarity bits included, with the same subset layout.
func requireSameWorkload(t *testing.T, got, want *Workload) {
	t.Helper()
	if got.Len() != want.Len() || got.SubsetSize() != want.SubsetSize() || got.Subsets() != want.Subsets() {
		t.Fatalf("shape: got %d pairs / size %d / %d subsets, want %d / %d / %d",
			got.Len(), got.SubsetSize(), got.Subsets(), want.Len(), want.SubsetSize(), want.Subsets())
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.Pair(i), want.Pair(i)
		if g.ID != w.ID || math.Float64bits(g.Sim) != math.Float64bits(w.Sim) {
			t.Fatalf("pair %d: got %+v, want %+v", i, g, w)
		}
	}
}

// tiedPairs draws n pairs with distinct ids from start on and similarities
// from only levels distinct values, so most pairs tie on Sim and the ID
// tie-break decides their order.
func tiedPairs(rng *rand.Rand, start, n, levels int) []Pair {
	ids := rng.Perm(n)
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{ID: start + ids[i], Sim: float64(rng.Intn(levels)) / float64(levels)}
	}
	return out
}

// TestWorkloadExtendMatchesNewWorkload: Extend merges a delta into the
// sorted workload pair for pair and bit for bit as NewWorkload over the
// union would, for heavy ties, several subset sizes and delta shapes,
// without touching the receiver.
func TestWorkloadExtendMatchesNewWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, size := range []int{1, 7, 200} {
		for _, levels := range []int{3, 50, 1 << 20} {
			for _, shape := range []struct{ base, delta int }{{1, 1}, {40, 3}, {500, 1}, {500, 120}, {30, 400}} {
				t.Run(fmt.Sprintf("size=%d/levels=%d/%d+%d", size, levels, shape.base, shape.delta), func(t *testing.T) {
					all := tiedPairs(rng, 0, shape.base+shape.delta, levels)
					base, delta := all[:shape.base], all[shape.base:]
					w, err := NewWorkload(base, size)
					if err != nil {
						t.Fatal(err)
					}
					before := make([]Pair, w.Len())
					for i := range before {
						before[i] = w.Pair(i)
					}
					deltaCopy := slices.Clone(delta)

					got, err := w.Extend(delta)
					if err != nil {
						t.Fatal(err)
					}
					want, err := NewWorkload(all, size)
					if err != nil {
						t.Fatal(err)
					}
					requireSameWorkload(t, got, want)
					// NewWorkload itself still orders like the reflect-based
					// sort.Slice it used before.
					ref := slices.Clone(all)
					sort.Slice(ref, func(i, j int) bool {
						if ref[i].Sim != ref[j].Sim {
							return ref[i].Sim < ref[j].Sim
						}
						return ref[i].ID < ref[j].ID
					})
					for i, p := range ref {
						if want.Pair(i) != p {
							t.Fatalf("NewWorkload pair %d = %+v, sort.Slice order has %+v", i, want.Pair(i), p)
						}
					}
					for k := 0; k < got.Subsets(); k++ {
						gs, ge := got.SubsetRange(k)
						ws, we := want.SubsetRange(k)
						if gs != ws || ge != we {
							t.Fatalf("subset %d: got [%d,%d), want [%d,%d)", k, gs, ge, ws, we)
						}
					}

					// The receiver and the caller's delta are left as they were.
					if w.Len() != len(before) {
						t.Fatalf("receiver grew to %d pairs", w.Len())
					}
					for i, p := range before {
						if w.Pair(i) != p {
							t.Fatalf("receiver pair %d changed: %+v -> %+v", i, p, w.Pair(i))
						}
					}
					if !slices.Equal(delta, deltaCopy) {
						t.Fatal("Extend reordered the caller's delta")
					}
				})
			}
		}
	}
}

// TestWorkloadExtendRepeated: many one-pair extends land on the same
// workload as one NewWorkload over everything.
func TestWorkloadExtendRepeated(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	all := tiedPairs(rng, 0, 600, 10)
	w, err := NewWorkload(all[:100], 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < len(all); i++ {
		if w, err = w.Extend(all[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := NewWorkload(all, 7)
	if err != nil {
		t.Fatal(err)
	}
	requireSameWorkload(t, w, want)
}

// TestWorkloadExtendEmptyAndNonFinite: an empty delta changes nothing, and
// a delta with a non-finite similarity is refused with ErrBadWorkload.
func TestWorkloadExtendEmptyAndNonFinite(t *testing.T) {
	w, err := NewWorkload([]Pair{{ID: 1, Sim: 0.5}, {ID: 2, Sim: 0.25}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, empty := range [][]Pair{nil, {}} {
		got, err := w.Extend(empty)
		if err != nil {
			t.Fatal(err)
		}
		requireSameWorkload(t, got, w)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, err := w.Extend([]Pair{{ID: 3, Sim: 0.1}, {ID: 4, Sim: bad}})
		if !errors.Is(err, ErrBadWorkload) || got != nil {
			t.Fatalf("Extend with similarity %v: got %v, %v; want ErrBadWorkload", bad, got, err)
		}
	}
	if w.Len() != 2 || w.Pair(0).ID != 2 || w.Pair(1).ID != 1 {
		t.Fatalf("receiver changed after refused extends: %d pairs", w.Len())
	}
}
