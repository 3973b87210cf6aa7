package blocking

import (
	"context"
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

// FuzzLSHEmitsEachPairOnce: the bands of generateLSH, and of an epoch-0
// deltaLSH (all of whose pairs come from its new×new join), emit each
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
		gen, err := generateLSH(ctx, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := newIncremental(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		tokA, tokB, err := s.blockTokens(opt.Attribute)
		if err != nil {
			t.Fatal(err)
		}
		delta, _, err := inc.deltaLSH(ctx, tokA, tokB)
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

		for name, pairs := range map[string][]Pair{"generateLSH": gen, "epoch-0 deltaLSH": delta} {
			got := make([]uint64, len(pairs))
			for i, p := range pairs {
				got[i] = uint64(p.A)<<32 | uint64(p.B)
			}
			slices.Sort(got)
			for i := 1; i < len(got); i++ {
				if got[i] == got[i-1] {
					t.Fatalf("%s %+v: pair (%d, %d) emitted twice", name, opt, got[i]>>32, uint32(got[i]))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s %+v: %d distinct pairs, want %d", name, opt, len(got), len(want))
			}
		}
	})
}
