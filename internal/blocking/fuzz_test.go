package blocking

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// FuzzSortPacked holds the radix sort to slices.Sort: in full mode on any
// input, and in key-only mode on entries whose low halves ascend in input
// order (lshBandEntries' layout). Lengths straddle radixCutoff; a zero
// mask makes every value (or key) equal, a narrow one forces duplicates
// and single-byte differences, and sparse leaves only every 16th value
// nonzero, so most byte positions are nearly but not entirely constant.
func FuzzSortPacked(f *testing.F) {
	f.Add(int64(1), uint16(0), uint64(0), false)
	f.Add(int64(2), uint16(radixCutoff-1), ^uint64(0), false)
	f.Add(int64(3), uint16(radixCutoff), ^uint64(0), false)
	f.Add(int64(4), uint16(radixCutoff+1), uint64(0xff), false)
	f.Add(int64(5), uint16(3000), uint64(0), false)
	f.Add(int64(6), uint16(3000), uint64(0x0000_0fff_0000_ffff), false)
	f.Add(int64(7), uint16(5000), uint64(0xff00_0000_0000_0003), false)
	f.Add(int64(8), uint16(40), uint64(0x7), false)
	f.Add(int64(9), uint16(3000), ^uint64(0), true)
	f.Add(int64(10), uint16(radixCutoff+7), uint64(0x0101_0101_0101_0101), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mask uint64, sparse bool) {
		rng := rand.New(rand.NewSource(seed))
		full := make([]uint64, n)
		keyed := make([]uint64, n)
		for i := range full {
			if !sparse || i%16 == 0 {
				full[i] = rng.Uint64() & mask
			}
			keyed[i] = full[i]&^0xffffffff | uint64(i)
		}
		for _, c := range []struct {
			name    string
			in      []uint64
			keyOnly bool
		}{{"full", full, false}, {"key-only", keyed, true}} {
			want := slices.Clone(c.in)
			slices.Sort(want)
			got := slices.Clone(c.in)
			sortPacked(got, c.keyOnly)
			if !slices.Equal(got, want) {
				t.Fatalf("%s n=%d mask=%#x: radix order differs from slices.Sort", c.name, n, mask)
			}
		}
	})
}

// FuzzLSHEmitsEachPairOnce: the bands of Generate's LSH join (an epoch-0
// delta, all of whose pairs come from its new×new join) emit each
// candidate in one band only — no duplicate pair at all — and together
// exactly the distinct pairs that a join emitting every collision in
// every band, deduped afterwards, would give. Threshold 0 keeps every
// pair that passes the floor, so the scored output is the candidate set.
func FuzzLSHEmitsEachPairOnce(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(8), uint8(1))
	f.Add(int64(2), uint8(2), uint8(16), uint8(2))
	f.Add(int64(3), uint8(2), uint8(32), uint8(1))
	f.Add(int64(4), uint8(3), uint8(5), uint8(4))
	f.Add(int64(5), uint8(1), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, rows, bands, minShared uint8) {
		opt := Options{
			Mode: ModeLSH, Attribute: "name", Threshold: 0,
			Rows: 1 + int(rows)%4, Bands: 1 + int(bands)%40, MinShared: int(minShared) % 6,
		}
		ta, tb := synthTables(40+int(uint64(seed)%40), 50, seed)
		s, err := NewScorer(ta, tb, incSpecs())
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		pairs, err := Generate(ctx, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		tokA, tokB, err := s.blockTokens(opt.Attribute)
		if err != nil {
			t.Fatal(err)
		}

		// Every collision in every band, deduped afterwards.
		seeds := lshSeeds(opt.Bands)
		keysA, errA := lshBandKeys(ctx, 1, tokA, s.dict.TokenHashes(), seeds, opt.Rows, opt.Bands)
		keysB, errB := lshBandKeys(ctx, 1, tokB, s.dict.TokenHashes(), seeds, opt.Rows, opt.Bands)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		var all []uint64
		for b := 0; b < opt.Bands; b++ {
			ea := lshBandEntries(tokA, keysA, opt.Rows, opt.Bands, b, 0, len(tokA))
			eb := lshBandEntries(tokB, keysB, opt.Rows, opt.Bands, b, 0, len(tokB))
			lshJoin(ea, eb, nil, floorVisit(&all, tokA, tokB, lshFloor(opt)))
		}
		slices.Sort(all)
		want := slices.Compact(all)

		got := make([]uint64, len(pairs))
		for i, p := range pairs {
			got[i] = uint64(p.A)<<32 | uint64(p.B)
		}
		slices.Sort(got)
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("Generate %+v: pair (%d, %d) emitted twice", opt, got[i]>>32, uint32(got[i]))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Generate %+v: %d distinct pairs, want %d", opt, len(got), len(want))
		}
	})
}

// FuzzIncrementalSplits holds NewIncremental plus every Sync, over random
// table sizes and 1–3 random append points per table, to the per-pair
// oracles over the final tables, in both modes: the union of the epochs,
// sorted, must equal refTokenBlocked or refLSH pair for pair, similarity
// bits included. Generate is the same join as epoch 0, so these oracles
// are the only reference for the split that is not the code under test.
func FuzzIncrementalSplits(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(50), uint8(2), uint8(2), uint8(16), uint8(3))
	f.Add(int64(2), uint8(0), uint8(70), uint8(1), uint8(1), uint8(4), uint8(0))
	f.Add(int64(3), uint8(69), uint8(5), uint8(3), uint8(3), uint8(23), uint8(2))
	f.Add(int64(4), uint8(25), uint8(25), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, na, nb, minShared, rows, bands, threshold uint8) {
		rng := rand.New(rand.NewSource(seed))
		fullA, fullB := synthTables(1+int(na)%70, 1+int(nb)%70, seed)
		// appendPoints returns 1–3 ascending cut points in [0, n], then n:
		// the table starts as its first cut, and each later one is an append.
		appendPoints := func(n int) []int {
			cuts := make([]int, 1+rng.Intn(3))
			for i := range cuts {
				cuts[i] = rng.Intn(n + 1)
			}
			slices.Sort(cuts)
			return append(cuts, n)
		}
		cutsA, cutsB := appendPoints(len(fullA.Records)), appendPoints(len(fullB.Records))
		thr := float64(threshold%5) / 10
		for _, opt := range []Options{
			{Mode: ModeToken, Attribute: "name", MinShared: 1 + int(minShared)%4, Threshold: thr},
			{Mode: ModeLSH, Attribute: "name", Rows: 1 + int(rows)%3, Bands: 1 + int(bands)%24, MinShared: int(minShared) % 4, Threshold: thr},
		} {
			ta, tb := tablePrefix(fullA, cutsA[0]), tablePrefix(fullB, cutsB[0])
			s, err := NewScorer(ta, tb, incSpecs())
			if err != nil {
				t.Fatal(err)
			}
			inc, got, err := NewIncremental(context.Background(), s, opt)
			if err != nil {
				t.Fatal(err)
			}
			for e := 1; e < max(len(cutsA), len(cutsB)); e++ {
				if e < len(cutsA) {
					appendBatch(t, ta, fullA, cutsA[e-1], cutsA[e])
				}
				if e < len(cutsB) {
					appendBatch(t, tb, fullB, cutsB[e-1], cutsB[e])
				}
				delta, err := inc.Sync(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, delta...)
			}
			sortPairs(got)
			ref := newRefScorer(t, ta, tb, incSpecs())
			var want []Pair
			if opt.Mode == ModeToken {
				want = refTokenBlocked(t, ref, opt.Attribute, opt.MinShared, opt.Threshold)
			} else {
				want = refLSH(t, ref, s.Dict(), opt.Attribute, opt.Rows, opt.Bands, opt.MinShared, opt.Threshold)
			}
			requirePairsEqual(t, fmt.Sprintf("%+v cuts A %v B %v", opt, cutsA, cutsB), got, want)
		}
	})
}
