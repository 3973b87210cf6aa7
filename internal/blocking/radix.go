package blocking

import (
	"slices"
	"sync"
)

// radixCutoff is the length below which sortPacked hands over to
// slices.Sort: a radix sort's fixed cost (clearing and summing the 256-slot
// histograms) makes it slower on fewer keys. On random packed pairs with
// four varying bytes the two break even near 512 keys at one CPU.
const radixCutoff = 512

// radixScratch recycles sortPacked's scratch buffers (as *[]uint64), so
// the many per-band sorts of one generation share a few buffers rather
// than allocating one each.
var radixScratch sync.Pool

// sortPacked sorts packed uint64s ascending with a stable LSD radix sort,
// one byte per pass, skipping every byte position on which all values
// agree (packed record ids leave their high bytes zero, so most positions
// are skipped). keyOnly sorts by the top 32 bits alone; on entries whose
// low halves were appended in ascending order, as lshBandEntries appends
// its records, the stable key-only order is exactly the full ascending
// order, which is why slices.Sort can stand in for both below radixCutoff.
func sortPacked(a []uint64, keyOnly bool) {
	if len(a) < radixCutoff {
		slices.Sort(a)
		return
	}
	lo := 0
	if keyOnly {
		lo = 4
	}
	var count [8][256]int
	for _, v := range a {
		count[4][byte(v>>32)]++
		count[5][byte(v>>40)]++
		count[6][byte(v>>48)]++
		count[7][byte(v>>56)]++
		if !keyOnly {
			count[0][byte(v)]++
			count[1][byte(v>>8)]++
			count[2][byte(v>>16)]++
			count[3][byte(v>>24)]++
		}
	}
	var scratch *[]uint64
	src, dst := a, []uint64(nil)
	for d := lo; d < 8; d++ {
		c := &count[d]
		shift := 8 * d
		if c[byte(src[0]>>shift)] == len(src) {
			continue // every value has the same byte here
		}
		if scratch == nil {
			scratch, _ = radixScratch.Get().(*[]uint64)
			if scratch == nil || cap(*scratch) < len(a) {
				buf := make([]uint64, len(a))
				scratch = &buf
			}
			dst = (*scratch)[:len(a)]
		}
		off := 0
		for k, n := range c {
			c[k] = off
			off += n
		}
		for _, v := range src {
			k := byte(v >> shift)
			dst[c[k]] = v
			c[k]++
		}
		src, dst = dst, src
	}
	if scratch != nil {
		if &src[0] != &a[0] {
			copy(a, src)
		}
		radixScratch.Put(scratch)
	}
}
