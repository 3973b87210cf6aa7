package blocking

import (
	"context"
	"fmt"
	"slices"

	"humo/internal/parallel"
	"humo/internal/similarity"
)

// Incremental maintains candidate generation under table appends. Built
// over a scorer and one ModeToken or ModeLSH configuration, it retains the
// blocking state a from-scratch Generate would rebuild — the inverted
// prefix index for ModeToken, the per-band sorted bucket tables for ModeLSH
// — and, after the scorer's tables grow through records.Table.Append, emits
// only the delta: candidates pairing a new record with an old one or two
// new records with each other. Construction is the same delta step run
// from empty retained state, with every record new.
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
//     threshold) and scored exactly as in the from-scratch path.
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

// NewIncremental builds the epoch-0 candidates of the scorer's current
// tables — bit-identical to Generate(ctx, s, opt) — by running Sync's delta
// step from empty retained state, so the returned state is ready for
// future Sync calls. Only ModeToken and ModeLSH support delta maintenance.
func NewIncremental(ctx context.Context, s *Scorer, opt Options) (*Incremental, []Pair, error) {
	inc, err := newIncremental(s, opt)
	if err != nil {
		return nil, nil, err
	}
	pairs, err := inc.step(ctx)
	if err != nil {
		return nil, nil, err
	}
	return inc, pairs, nil
}

// newIncremental validates opt and returns the empty retained state that
// NewIncremental's first step fills.
func newIncremental(s *Scorer, opt Options) (*Incremental, error) {
	if opt.Mode != ModeToken && opt.Mode != ModeLSH {
		return nil, fmt.Errorf("%w: incremental maintenance needs mode token or lsh, not %q", ErrBadSpec, opt.Mode)
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	inc := &Incremental{s: s, opt: opt}
	switch opt.Mode {
	case ModeToken:
		tokA, tokB, err := s.blockTokens(opt.Attribute)
		if err != nil {
			return nil, err
		}
		inc.df = docFreq(s.dict.Len(), tokA, tokB)
	case ModeLSH:
		inc.seeds = lshSeeds(opt.Bands)
		inc.floor = lshFloor(opt)
		inc.entA = make([][]uint64, opt.Bands)
		inc.entB = make([][]uint64, opt.Bands)
		inc.tailA = make([][]uint64, opt.Bands)
		inc.tailB = make([][]uint64, opt.Bands)
	}
	return inc, nil
}

// Sync absorbs records appended to the scorer's tables since construction
// (or the previous Sync): the scorer's representations are extended, the
// retained index state is updated, and the scored new-vs-old and
// new-vs-new candidate pairs come back sorted by (A, B). A Sync with no
// table growth returns nil; one with growth returns a non-nil slice, empty
// when the new records pair with nothing. On error (context cancellation
// included) the retained index state is unchanged, so Sync can simply be
// retried.
func (inc *Incremental) Sync(ctx context.Context) ([]Pair, error) {
	newA, newB := len(inc.s.ta.Records), len(inc.s.tb.Records)
	if newA < inc.lenA || newB < inc.lenB {
		return nil, fmt.Errorf("%w: table shrank under incremental maintenance (A %d->%d, B %d->%d)", ErrBadSpec, inc.lenA, newA, inc.lenB, newB)
	}
	if newA == inc.lenA && newB == inc.lenB {
		return nil, nil
	}
	inc.s.extend()
	return inc.step(ctx)
}

// step is the one delta step of construction and Sync: it scores the
// verified candidates involving records past lenA/lenB and only then
// commits the grown index state and lengths.
func (inc *Incremental) step(ctx context.Context) ([]Pair, error) {
	tokA, tokB, err := inc.s.blockTokens(inc.opt.Attribute)
	if err != nil {
		return nil, err
	}
	var (
		pairs  []Pair
		commit func()
	)
	if inc.opt.Mode == ModeToken {
		pairs, commit, err = inc.deltaToken(ctx, tokA, tokB)
	} else {
		pairs, commit, err = inc.deltaLSH(ctx, tokA, tokB)
	}
	if err != nil {
		return nil, err
	}
	commit()
	inc.lenA, inc.lenB = len(tokA), len(tokB)
	return pairs, nil
}

// deltaToken probes the records past lenA/lenB through the retained prefix
// indexes: each new A record against all of B (old via postB, new via a
// batch-local index), each new B record against old A only — together
// exactly the pairs that involve at least one new record, with no
// double-counting, so the scored pairs need no dedupe. The retained
// indexes are only mutated by the returned commit, so a failed step leaves
// them at the previous epoch.
func (inc *Incremental) deltaToken(ctx context.Context, tokA, tokB [][]int32) (pairs []Pair, commit func(), err error) {
	k := inc.opt.MinShared
	oldA, oldB := inc.lenA, inc.lenB
	newA, newB := len(tokA), len(tokB)
	// Freeze the prefix order over the grown dictionary: tokens interned
	// after construction keep document frequency zero forever.
	n := inc.s.dict.Len()
	inc.df = append(inc.df, make([]int32, n-len(inc.df))...)
	inc.postA = append(inc.postA, make([][]int32, n-len(inc.postA))...)
	inc.postB = append(inc.postB, make([][]int32, n-len(inc.postB))...)
	prefNewA := make([][]int32, newA-oldA)
	for i := oldA; i < newA; i++ {
		prefNewA[i-oldA] = tokenPrefix(inc.df, tokA[i], k)
	}
	prefNewB := make([][]int32, newB-oldB)
	for j := oldB; j < newB; j++ {
		prefNewB[j-oldB] = tokenPrefix(inc.df, tokB[j], k)
	}
	// Batch-local inverted index over the new B prefixes, so new-A probes
	// see new B without mutating the retained postB yet.
	postNewB := make(map[int32][]int32)
	for j := oldB; j < newB; j++ {
		for _, t := range prefNewB[j-oldB] {
			postNewB[t] = append(postNewB[t], int32(j))
		}
	}

	// New A against all of B (old and new), then new B against old A only:
	// new-A×new-B pairs were already found by the first probe.
	fromA, err := inc.probe(ctx, prefNewA, oldA, tokA, tokB, inc.postB, postNewB, true)
	if err != nil {
		return nil, nil, err
	}
	fromB, err := inc.probe(ctx, prefNewB, oldB, tokB, tokA, inc.postA, nil, false)
	if err != nil {
		return nil, nil, err
	}
	pairs = orderPairs([][]Pair{fromA, fromB}, newA)
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
	return pairs, commit, nil
}

// probe is deltaToken's prefix-index probe of the records base,
// base+1, ... of one table, whose prefixes are pref: a record's candidates
// are the other table's records listed under its prefix tokens in post or
// batch that share at least MinShared tokens with it. They are scored right
// there, as in generateToken, so only pairs at or above the threshold are
// ever held. probeIsA says which table own is; each record's pairs come
// back in partner order.
func (inc *Incremental) probe(ctx context.Context, pref [][]int32, base int, own, other, post [][]int32, batch map[int32][]int32, probeIsA bool) ([]Pair, error) {
	return fanOut(ctx, inc.s, inc.opt.Workers, len(pref), func(sc *Scratch, lo, hi int) ([]Pair, error) {
		seen := make([]bool, len(other))
		touched := make([]int32, 0, 64)
		var out []Pair
		for x := lo; x < hi; x++ {
			if (x-lo)%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			touched = touched[:0]
			for _, t := range pref[x] {
				for _, list := range [2][]int32{post[t], batch[t]} {
					for _, p := range list {
						if !seen[p] {
							seen[p] = true
							touched = append(touched, p)
						}
					}
				}
			}
			slices.Sort(touched)
			r := base + x
			for _, p := range touched {
				seen[p] = false
				if similarity.IntersectCount(own[r], other[p]) < inc.opt.MinShared {
					continue
				}
				a, b := r, int(p)
				if !probeIsA {
					a, b = b, a
				}
				if sim := inc.s.ScoreWith(sc, a, b); sim >= inc.opt.Threshold {
					out = append(out, Pair{A: a, B: b, Sim: sim})
				}
			}
		}
		return out, nil
	})
}

// deltaLSH sketches only the records past lenA/lenB and joins them
// against the retained band tables: per band, new-A×old-B, new-A×new-B and
// old-A×new-B — every colliding pair that involves a new record. The
// new×new join has both key matrices at hand, so it meets each pair in its
// lowest colliding band only (all of an epoch 0) and scores it in place
// (bandScorer), as generateLSH does. The old sides' keys are not retained
// (they would cost 4·Bands bytes per record), so a new×old pair comes once
// per band it collides in: those are verified against the shared-token
// floor as packed (A<<32)|B keys and handed to scorePacked, whose compact
// dedupes them. The old sides are probed by binary search per new key
// (base and tail separately), so a Sync reads only the buckets the new
// records hash into. The retained tables are only swapped for their grown
// successors by the returned commit.
func (inc *Incremental) deltaLSH(ctx context.Context, tokA, tokB [][]int32) (pairs []Pair, commit func(), err error) {
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
	bs := newBandScorer(inc.s, inc.opt, tokA, tokB)
	type bandDelta struct {
		probed       []uint64 // new×old candidates, packed
		scored       []Pair   // new×new pairs at or above the threshold
		entA, entB   []uint64
		tailA, tailB []uint64
	}
	outs, err := parallel.Map(inc.opt.Workers, bands, func(b int) (bandDelta, error) {
		if err := ctx.Err(); err != nil {
			return bandDelta{}, err
		}
		na := lshBandEntries(newToksA, keysNewA, rows, bands, b, oldA, len(newToksA))
		nb := lshBandEntries(newToksB, keysNewB, rows, bands, b, oldB, len(newToksB))
		var d bandDelta
		keep := floorVisit(&d.probed, tokA, tokB, inc.floor)
		lshProbe(na, inc.entB[b], true, keep)
		lshProbe(na, inc.tailB[b], true, keep)
		lshProbe(nb, inc.entA[b], false, keep)
		lshProbe(nb, inc.tailA[b], false, keep)
		first := &lowestBand{keysA: keysNewA, keysB: keysNewB, baseA: oldA, baseB: oldB, bands: bands, band: b}
		var err error
		if d.scored, err = bs.join(ctx, na, nb, first); err != nil {
			return bandDelta{}, err
		}
		d.entA, d.tailA = foldTail(inc.entA[b], inc.tailA[b], na)
		d.entB, d.tailB = foldTail(inc.entB[b], inc.tailB[b], nb)
		return d, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var probed []uint64
	parts := make([][]Pair, 0, bands+1)
	for _, o := range outs {
		probed = append(probed, o.probed...)
		parts = append(parts, o.scored)
	}
	fromOld, err := scorePacked(ctx, inc.s, inc.opt, probed)
	if err != nil {
		return nil, nil, err
	}
	commit = func() {
		for b := 0; b < bands; b++ {
			inc.entA[b], inc.tailA[b] = outs[b].entA, outs[b].tailA
			inc.entB[b], inc.tailB[b] = outs[b].entB, outs[b].tailB
		}
	}
	return orderPairs(append(parts, fromOld), len(tokA)), commit, nil
}

// lshProbe joins sorted new entries against one sorted retained table by
// binary search: for each run of equal keys in probe it locates the
// table's bucket with that key and merge-joins the two runs through
// lshJoin, visiting every colliding pair. probeIsA says which side probe
// holds, so visit always receives (A, B). The table is never walked
// outside the buckets the probe hits.
func lshProbe(probe, table []uint64, probeIsA bool, visit func(i, j int32) bool) {
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
				lshJoin(probe[x:x2], table[lo:hi], nil, visit)
			} else {
				lshJoin(table[lo:hi], probe[x:x2], nil, visit)
			}
		}
		x = x2
	}
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
