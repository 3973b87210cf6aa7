package blocking

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"humo/internal/parallel"
	"humo/internal/similarity"
)

// Incremental maintains candidate generation under table appends. Built
// over a scorer and one ModeToken or ModeLSH configuration, it retains the
// blocking state a from-scratch Generate would rebuild — the inverted
// prefix index for ModeToken, the per-band sorted bucket tables for ModeLSH
// — and, after the scorer's tables grow through records.Table.Append, emits
// only the delta: candidates pairing a new record with an old one or two
// new records with each other.
//
// Equivalence contract, pinned by TestIncrementalEquivalence: the union of
// the initial pairs and every Sync delta equals — same (A, B) set, same
// similarity bits, at any worker count — what Generate would produce from
// scratch over the final tables. Three design points carry the contract:
//
//   - ModeLSH hashes token content, not token ids (see lshBandKeys), so the
//     incrementally extended dictionary and a from-scratch one yield the
//     same sketches.
//   - ModeToken freezes the prefix-filter token order at construction
//     (document frequency as of the initial tables ascending, then token
//     id; tokens first seen later count as frequency zero). The prefix
//     lemma — overlap ≥ k forces intersecting prefixes — holds under any
//     fixed total order, and verification against the real token lists
//     makes the candidate set independent of which order pruned the probes.
//   - Every candidate is verified (shared-token floor, then the similarity
//     threshold) exactly as in the from-scratch path, and deltas are scored
//     through the same order-stable fanOut.
//
// Similarity bits: KindJaccard, KindJaroWinkler and KindLevenshtein scores
// are pure functions of the record strings. KindCosine accumulates its dot
// product in token-id order, so an incrementally grown dictionary can
// differ from a from-scratch one in the last bit; avoid cosine specs where
// bit-exact incremental equivalence matters.
//
// An Incremental is not safe for concurrent use, and Sync mutates the
// underlying scorer — do not run Generate or scoring calls on the same
// scorer concurrently with Sync.
type Incremental struct {
	s   *Scorer
	opt Options

	// lenA, lenB are the record counts the retained state covers.
	lenA, lenB int

	// ModeToken state: df is the frozen prefix order (document frequency as
	// of construction, zero for tokens interned later), postA/postB the
	// inverted indexes over both tables' prefixes (record ids ascending).
	df    []int32
	postA [][]int32
	postB [][]int32

	// ModeLSH state: fixed band seeds, the verification floor, and per
	// band the sorted packed (key<<32|record) bucket table of each side,
	// kept as a large base plus a small sorted tail of appended entries
	// (see foldTail).
	seeds        []uint64
	floor        int
	entA, entB   [][]uint64
	tailA, tailB [][]uint64
}

// tailFoldRatio bounds a band's tail: once the appended entries outgrow
// 1/tailFoldRatio of the base they are merged into it. Appends then touch
// the full table only once per 1/tailFoldRatio growth, so the merge cost
// is amortized over the entries that caused it, and a probe still costs
// two binary searches.
const tailFoldRatio = 8

// NewIncremental runs one from-scratch generation over the scorer's current
// tables — the returned pairs are bit-identical to Generate(ctx, s, opt) —
// and retains the blocking state future Sync calls maintain. Only ModeToken
// and ModeLSH support delta maintenance.
func NewIncremental(ctx context.Context, s *Scorer, opt Options) (*Incremental, []Pair, error) {
	if opt.Mode != ModeToken && opt.Mode != ModeLSH {
		return nil, nil, fmt.Errorf("%w: incremental maintenance needs mode token or lsh, not %q", ErrBadSpec, opt.Mode)
	}
	pairs, err := Generate(ctx, s, opt)
	if err != nil {
		return nil, nil, err
	}
	inc := &Incremental{s: s, opt: opt, lenA: len(s.ta.Records), lenB: len(s.tb.Records)}
	switch opt.Mode {
	case ModeToken:
		err = inc.initToken()
	case ModeLSH:
		err = inc.initLSH(ctx)
	}
	if err != nil {
		return nil, nil, err
	}
	return inc, pairs, nil
}

// Sync absorbs records appended to the scorer's tables since construction
// (or the previous Sync): the scorer's representations are extended, the
// retained index state is updated, and the scored new-vs-old and
// new-vs-new candidate pairs come back sorted by (A, B). A Sync with no
// table growth returns nil. On error (context cancellation included) the
// retained index state is unchanged, so Sync can simply be retried.
func (inc *Incremental) Sync(ctx context.Context) ([]Pair, error) {
	newA, newB := len(inc.s.ta.Records), len(inc.s.tb.Records)
	if newA < inc.lenA || newB < inc.lenB {
		return nil, fmt.Errorf("%w: table shrank under incremental maintenance (A %d->%d, B %d->%d)", ErrBadSpec, inc.lenA, newA, inc.lenB, newB)
	}
	if newA == inc.lenA && newB == inc.lenB {
		return nil, nil
	}
	inc.s.extend()
	var (
		cands  []uint64
		commit func()
		err    error
	)
	switch inc.opt.Mode {
	case ModeToken:
		cands, commit, err = inc.deltaToken(ctx)
	case ModeLSH:
		cands, commit, err = inc.deltaLSH(ctx)
	}
	if err != nil {
		return nil, err
	}
	cands = sortCompact(cands)
	pairs, err := fanOut(ctx, inc.s, inc.opt.Workers, len(cands), func(sc *Scratch, lo, hi int) ([]Pair, error) {
		var out []Pair
		for c := lo; c < hi; c++ {
			if (c-lo)%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			i, j := int(cands[c]>>32), int(cands[c]&0xffffffff)
			if sim := inc.s.ScoreWith(sc, i, j); sim >= inc.opt.Threshold {
				out = append(out, Pair{A: i, B: j, Sim: sim})
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	commit()
	inc.lenA, inc.lenB = newA, newB
	return pairs, nil
}

// initToken builds the retained ModeToken state over the initial tables:
// the frozen document frequencies and the prefix inverted indexes of both
// tables.
func (inc *Incremental) initToken() error {
	tokA, tokB, err := inc.s.blockTokens(inc.opt.Attribute)
	if err != nil {
		return err
	}
	k := inc.opt.MinShared
	inc.df = make([]int32, inc.s.dict.Len())
	for _, toks := range tokA {
		for _, t := range toks {
			inc.df[t]++
		}
	}
	for _, toks := range tokB {
		for _, t := range toks {
			inc.df[t]++
		}
	}
	inc.postA = make([][]int32, inc.s.dict.Len())
	inc.postB = make([][]int32, inc.s.dict.Len())
	for i, toks := range tokA {
		for _, t := range inc.prefix(toks, k) {
			inc.postA[t] = append(inc.postA[t], int32(i))
		}
	}
	for j, toks := range tokB {
		for _, t := range inc.prefix(toks, k) {
			inc.postB[t] = append(inc.postB[t], int32(j))
		}
	}
	return nil
}

// prefix is generateToken's size + prefix filter under the frozen order:
// nil for records below the size floor, otherwise the first len-k+1 tokens
// ordered by (frozen df ascending, id ascending). The order never changes
// once a token exists — later-interned tokens slot in at frequency zero and
// old frequencies are never updated — so prefixes computed at different
// epochs are mutually consistent and the prefix lemma holds across them.
func (inc *Incremental) prefix(toks []int32, k int) []int32 {
	if len(toks) < k {
		return nil
	}
	p := append([]int32(nil), toks...)
	sort.Slice(p, func(x, y int) bool {
		a, b := p[x], p[y]
		if inc.df[a] != inc.df[b] {
			return inc.df[a] < inc.df[b]
		}
		return a < b
	})
	return p[:len(p)-k+1]
}

// deltaToken probes the appended records through the retained prefix
// indexes: each new A record against all of B (old via postB, new via a
// batch-local index), each new B record against old A only — together
// exactly the pairs that involve at least one new record, with no
// double-counting. The retained indexes are only mutated by the returned
// commit, so a failed Sync leaves them at the previous epoch.
func (inc *Incremental) deltaToken(ctx context.Context) (cands []uint64, commit func(), err error) {
	tokA, tokB, err := inc.s.blockTokens(inc.opt.Attribute)
	if err != nil {
		return nil, nil, err
	}
	k := inc.opt.MinShared
	oldA, oldB := inc.lenA, inc.lenB
	newA, newB := len(tokA), len(tokB)
	// Freeze the prefix order over the grown dictionary: tokens interned
	// after construction keep document frequency zero forever.
	if n := inc.s.dict.Len(); n > len(inc.df) {
		inc.df = append(inc.df, make([]int32, n-len(inc.df))...)
		inc.postA = append(inc.postA, make([][]int32, n-len(inc.postA))...)
		inc.postB = append(inc.postB, make([][]int32, n-len(inc.postB))...)
	}
	prefNewA := make([][]int32, newA-oldA)
	for i := oldA; i < newA; i++ {
		prefNewA[i-oldA] = inc.prefix(tokA[i], k)
	}
	prefNewB := make([][]int32, newB-oldB)
	for j := oldB; j < newB; j++ {
		prefNewB[j-oldB] = inc.prefix(tokB[j], k)
	}
	// Batch-local inverted index over the new B prefixes, so new-A probes
	// see new B without mutating the retained postB yet.
	postNewB := make(map[int32][]int32)
	for j := oldB; j < newB; j++ {
		for _, t := range prefNewB[j-oldB] {
			postNewB[t] = append(postNewB[t], int32(j))
		}
	}

	seen := make([]bool, newB)
	touched := make([]int32, 0, 64)
	// New A against all of B (old and new).
	for i := oldA; i < newA; i++ {
		if (i-oldA)%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		touched = touched[:0]
		for _, t := range prefNewA[i-oldA] {
			for _, j := range inc.postB[t] {
				if !seen[j] {
					seen[j] = true
					touched = append(touched, j)
				}
			}
			for _, j := range postNewB[t] {
				if !seen[j] {
					seen[j] = true
					touched = append(touched, j)
				}
			}
		}
		sort.Slice(touched, func(x, y int) bool { return touched[x] < touched[y] })
		for _, j := range touched {
			seen[j] = false
			if similarity.IntersectCount(tokA[i], tokB[j]) < k {
				continue
			}
			cands = append(cands, uint64(uint32(i))<<32|uint64(uint32(j)))
		}
	}
	// New B against old A only — new-A×new-B pairs were already found above.
	seenA := make([]bool, oldA)
	for j := oldB; j < newB; j++ {
		if (j-oldB)%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		touched = touched[:0]
		for _, t := range prefNewB[j-oldB] {
			for _, i := range inc.postA[t] {
				if !seenA[i] {
					seenA[i] = true
					touched = append(touched, i)
				}
			}
		}
		sort.Slice(touched, func(x, y int) bool { return touched[x] < touched[y] })
		for _, i := range touched {
			seenA[i] = false
			if similarity.IntersectCount(tokA[i], tokB[j]) < k {
				continue
			}
			cands = append(cands, uint64(uint32(i))<<32|uint64(uint32(j)))
		}
	}
	commit = func() {
		for i := oldA; i < newA; i++ {
			for _, t := range prefNewA[i-oldA] {
				inc.postA[t] = append(inc.postA[t], int32(i))
			}
		}
		for j := oldB; j < newB; j++ {
			for _, t := range prefNewB[j-oldB] {
				inc.postB[t] = append(inc.postB[t], int32(j))
			}
		}
	}
	return cands, commit, nil
}

// initLSH builds the retained ModeLSH state over the initial tables: band
// seeds, the verification floor, and both tables' per-band sorted bucket
// entries.
func (inc *Incremental) initLSH(ctx context.Context) error {
	rows, bands := inc.opt.Rows, inc.opt.Bands
	tokA, tokB, err := inc.s.blockTokens(inc.opt.Attribute)
	if err != nil {
		return err
	}
	inc.seeds = lshSeeds(bands)
	inc.floor = inc.opt.MinShared
	if inc.floor < rows {
		inc.floor = rows
	}
	hashes := inc.s.dict.TokenHashes()
	keysA, err := lshBandKeys(ctx, inc.opt.Workers, tokA, hashes, inc.seeds, rows, bands)
	if err != nil {
		return err
	}
	keysB, err := lshBandKeys(ctx, inc.opt.Workers, tokB, hashes, inc.seeds, rows, bands)
	if err != nil {
		return err
	}
	inc.entA = make([][]uint64, bands)
	inc.entB = make([][]uint64, bands)
	inc.tailA = make([][]uint64, bands)
	inc.tailB = make([][]uint64, bands)
	for b := 0; b < bands; b++ {
		inc.entA[b] = lshBandEntries(tokA, keysA, rows, bands, b, 0, len(tokA))
		inc.entB[b] = lshBandEntries(tokB, keysB, rows, bands, b, 0, len(tokB))
	}
	return nil
}

// deltaLSH sketches only the appended records and joins them against the
// retained band tables: per band, new-A×old-B, new-A×new-B and old-A×new-B
// — every colliding pair that involves a new record, each verified against
// the shared-token floor inline. The old sides are probed by binary search
// per new key (base and tail separately), so a Sync reads only the buckets
// the new records hash into. The retained tables are only swapped for
// their grown successors by the returned commit.
func (inc *Incremental) deltaLSH(ctx context.Context) (cands []uint64, commit func(), err error) {
	tokA, tokB, err := inc.s.blockTokens(inc.opt.Attribute)
	if err != nil {
		return nil, nil, err
	}
	rows, bands := inc.opt.Rows, inc.opt.Bands
	oldA, oldB := inc.lenA, inc.lenB
	hashes := inc.s.dict.TokenHashes()
	newToksA, newToksB := tokA[oldA:], tokB[oldB:]
	keysNewA, err := lshBandKeys(ctx, inc.opt.Workers, newToksA, hashes, inc.seeds, rows, bands)
	if err != nil {
		return nil, nil, err
	}
	keysNewB, err := lshBandKeys(ctx, inc.opt.Workers, newToksB, hashes, inc.seeds, rows, bands)
	if err != nil {
		return nil, nil, err
	}
	type bandDelta struct {
		pairs        []uint64
		entA, entB   []uint64
		tailA, tailB []uint64
	}
	outs, err := parallel.Map(inc.opt.Workers, bands, func(b int) (bandDelta, error) {
		if err := ctx.Err(); err != nil {
			return bandDelta{}, err
		}
		na := lshBandEntries(newToksA, keysNewA, rows, bands, b, oldA, len(newToksA))
		nb := lshBandEntries(newToksB, keysNewB, rows, bands, b, oldB, len(newToksB))
		var pairs []uint64
		pairs = lshProbe(pairs, na, inc.entB[b], true, tokA, tokB, inc.floor)
		pairs = lshProbe(pairs, na, inc.tailB[b], true, tokA, tokB, inc.floor)
		pairs = lshJoin(pairs, na, nb, tokA, tokB, inc.floor)
		pairs = lshProbe(pairs, nb, inc.entA[b], false, tokA, tokB, inc.floor)
		pairs = lshProbe(pairs, nb, inc.tailA[b], false, tokA, tokB, inc.floor)
		d := bandDelta{pairs: pairs}
		d.entA, d.tailA = foldTail(inc.entA[b], inc.tailA[b], na)
		d.entB, d.tailB = foldTail(inc.entB[b], inc.tailB[b], nb)
		return d, nil
	})
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, o := range outs {
		total += len(o.pairs)
	}
	cands = make([]uint64, 0, total)
	for _, o := range outs {
		cands = append(cands, o.pairs...)
	}
	commit = func() {
		for b := 0; b < bands; b++ {
			inc.entA[b], inc.tailA[b] = outs[b].entA, outs[b].tailA
			inc.entB[b], inc.tailB[b] = outs[b].entB, outs[b].tailB
		}
	}
	return cands, commit, nil
}

// lshProbe joins sorted new entries against one sorted retained table by
// binary search: for each run of equal keys in probe it locates the
// table's bucket with that key and merge-joins the two runs through
// lshJoin. probeIsA says which side probe holds, so emitted candidates
// stay (A<<32)|B packed. The table is never walked outside the buckets the
// probe hits.
func lshProbe(dst, probe, table []uint64, probeIsA bool, tokA, tokB [][]int32, floor int) []uint64 {
	for x := 0; x < len(probe); {
		key := probe[x] >> 32
		x2 := x + 1
		for x2 < len(probe) && probe[x2]>>32 == key {
			x2++
		}
		lo, _ := slices.BinarySearch(table, key<<32)
		hi := lo
		for hi < len(table) && table[hi]>>32 == key {
			hi++
		}
		if hi > lo {
			if probeIsA {
				dst = lshJoin(dst, probe[x:x2], table[lo:hi], tokA, tokB, floor)
			} else {
				dst = lshJoin(dst, table[lo:hi], probe[x:x2], tokA, tokB, floor)
			}
		}
		x = x2
	}
	return dst
}

// foldTail returns a band table's base and tail after absorbing the sorted
// new entries: they join the tail, and a tail grown past
// 1/tailFoldRatio of the base is merged into a fresh base. Neither input
// slice is modified, so the retained state stays valid until commit.
func foldTail(base, tail, added []uint64) (newBase, newTail []uint64) {
	if len(added) == 0 {
		return base, tail
	}
	tail = mergeSortedU64(tail, added)
	if len(tail)*tailFoldRatio > len(base) {
		return mergeSortedU64(base, tail), nil
	}
	return base, tail
}

// mergeSortedU64 linearly merges two sorted uint64 slices. It returns one
// of the inputs unchanged when the other is empty and otherwise a new
// slice, so it never writes into either input.
func mergeSortedU64(a, b []uint64) []uint64 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
