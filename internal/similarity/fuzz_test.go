package similarity

import (
	"math/rand"
	"slices"
	"testing"
)

// randomIDSet draws a sorted distinct id set of at most n ids from [0, span).
func randomIDSet(rng *rand.Rand, n, span int) []int32 {
	var out []int32
	for i := 0; i < n; i++ {
		out = append(out, int32(rng.Intn(span)))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// FuzzIntersectAtLeast holds the early-exit floor check to the full count:
// IntersectAtLeast(a, b, k) == (IntersectCount(a, b) >= k) on random sorted
// distinct sets, empty sides included, for every k from -1 to past both
// lengths and for the fuzzed k itself.
func FuzzIntersectAtLeast(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(4), 0)
	f.Add(int64(2), uint8(0), uint8(9), uint8(4), 1)
	f.Add(int64(3), uint8(12), uint8(12), uint8(16), 1)
	f.Add(int64(4), uint8(30), uint8(5), uint8(40), -3)
	f.Add(int64(5), uint8(8), uint8(8), uint8(8), 9)
	f.Add(int64(6), uint8(50), uint8(60), uint8(200), 2)
	f.Fuzz(func(t *testing.T, seed int64, na, nb, span uint8, k int) {
		rng := rand.New(rand.NewSource(seed))
		sp := int(span) + 1
		a := randomIDSet(rng, int(na), sp)
		b := randomIDSet(rng, int(nb), sp)
		n := IntersectCount(a, b)
		check := func(k int) {
			if got, want := IntersectAtLeast(a, b, k), n >= k; got != want {
				t.Fatalf("IntersectAtLeast(%v, %v, %d) = %v, IntersectCount = %d", a, b, k, got, n)
			}
		}
		check(k)
		for kk := -1; kk <= max(len(a), len(b))+1; kk++ {
			check(kk)
		}
	})
}
