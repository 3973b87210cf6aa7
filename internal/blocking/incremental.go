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
// blocking state a from-scratch Generate builds and drops — the inverted
// prefix index for ModeToken, the per-band sorted bucket tables for ModeLSH
// — and, after the scorer's tables grow through records.Table.Append, emits
// only the delta: candidates pairing a new record with an old one or two
// new records with each other. Construction is the same delta step run
// from empty retained state, with every record new, and Generate is that
// step left uncommitted, so each mode has one join.
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
//     threshold) and scored by the same code at every epoch.
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
	// of construction; tokens past its end, interned later, count zero),
	// postA/postB the inverted indexes over both tables' prefixes (record
	// ids ascending).
	df    []int32
	postA [][]int32
	postB [][]int32

	// ModeLSH state: per band the sorted packed (key<<32|record) bucket
	// table of each side, kept as a large base plus a small sorted tail of
	// appended entries (see foldTail).
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
// tables by running Sync's delta step from empty retained state and
// committing it, so the returned state is ready for future Sync calls. The
// pairs are Generate(ctx, s, opt)'s, which runs the same step uncommitted.
// Only ModeToken and ModeLSH support delta maintenance.
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

// newIncremental validates opt and returns the empty retained state whose
// first delta is the whole join.
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

// step is one epoch of construction or Sync: the delta, then its commit.
func (inc *Incremental) step(ctx context.Context) ([]Pair, error) {
	pairs, commit, err := inc.delta(ctx)
	if err != nil {
		return nil, err
	}
	commit()
	return pairs, nil
}

// delta is the one join of ModeToken and ModeLSH: it scores the verified
// candidates involving records past lenA/lenB and returns them sorted by
// (A, B), with the commit that advances the retained state and lengths
// over those records. Every write to retained state is in the commit, so
// a delta that fails, or whose commit is dropped (Generate's), leaves the
// Incremental exactly as it was.
func (inc *Incremental) delta(ctx context.Context) (pairs []Pair, commit func(), err error) {
	tokA, tokB, err := inc.s.blockTokens(inc.opt.Attribute)
	if err != nil {
		return nil, nil, err
	}
	if inc.opt.Mode == ModeToken {
		return inc.deltaToken(ctx, tokA, tokB)
	}
	return inc.deltaLSH(ctx, tokA, tokB)
}

// deltaToken probes the records past lenA/lenB through the prefix
// indexes: each new A record against all of B (old via postB, new via a
// batch index over the new B prefixes), each new B record against old A
// only — together exactly the pairs that involve at least one new record,
// with no double-counting, so the scored pairs need no dedupe. From empty
// state this is the whole token join: all of A probes all of B through
// the batch index. The commit files the new prefixes into postA/postB.
func (inc *Incremental) deltaToken(ctx context.Context, tokA, tokB [][]int32) (pairs []Pair, commit func(), err error) {
	oldA, oldB := inc.lenA, inc.lenB
	n := inc.s.dict.Len()
	prefixes := func(toks [][]int32) (pref [][]int32, size int) {
		pref = make([][]int32, len(toks))
		for x, t := range toks {
			pref[x] = tokenPrefix(inc.df, t, inc.opt.MinShared)
			size += len(pref[x])
		}
		return pref, size
	}
	prefNewA, _ := prefixes(tokA[oldA:])
	prefNewB, sizeB := prefixes(tokB[oldB:])
	// The batch index: the new B prefixes as packed (token<<32|record)
	// entries, sorted by token (records go in ascending), so a Sync costs
	// the size of its batch, not of the dictionary.
	batchB := make([]uint64, 0, sizeB)
	for x, p := range prefNewB {
		for _, t := range p {
			batchB = append(batchB, uint64(t)<<32|uint64(oldB+x))
		}
	}
	sortPacked(batchB, true)

	// New A against all of B (old and new), then new B against old A only:
	// new-A×new-B pairs were already found by the first probe.
	fromA, err := inc.probe(ctx, prefNewA, oldA, tokA, tokB, inc.postB, batchB, true)
	if err != nil {
		return nil, nil, err
	}
	fromB, err := inc.probe(ctx, prefNewB, oldB, tokB, tokA, inc.postA, nil, false)
	if err != nil {
		return nil, nil, err
	}
	commit = func() {
		inc.postA = addPostings(inc.postA, prefNewA, oldA, n)
		inc.postB = addPostings(inc.postB, prefNewB, oldB, n)
		inc.lenA, inc.lenB = len(tokA), len(tokB)
	}
	// fromA is already in (A, B) order, and fromB is empty without old A
	// records (at every epoch 0), so only a delta with both needs a merge.
	if len(fromB) == 0 {
		return fromA, commit, nil
	}
	return orderPairs([][]Pair{fromA, fromB}, len(tokA)), commit, nil
}

// addPostings grows the token-indexed posting lists post to n tokens and
// files records base, base+1, ... under their prefix tokens pref, so every
// list stays ascending.
func addPostings(post, pref [][]int32, base, n int) [][]int32 {
	post = append(post, make([][]int32, n-len(post))...)
	for x, p := range pref {
		for _, t := range p {
			post[t] = append(post[t], int32(base+x))
		}
	}
	return post
}

// probe is deltaToken's prefix-index probe of the records base,
// base+1, ... of one table, whose prefixes are pref: a record's candidates
// are the other table's records filed under its prefix tokens in post or
// in the sorted packed batch, that share at least MinShared tokens with
// it. They are scored right there, so only pairs at or above the
// threshold are ever held. probeIsA says which table own is; each
// record's pairs come back in partner order.
func (inc *Incremental) probe(ctx context.Context, pref [][]int32, base int, own, other, post [][]int32, batch []uint64, probeIsA bool) ([]Pair, error) {
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
				// A token interned since the last commit has no postings yet.
				if int(t) < len(post) {
					for _, p := range post[t] {
						if !seen[p] {
							seen[p] = true
							touched = append(touched, p)
						}
					}
				}
				e, _ := slices.BinarySearch(batch, uint64(t)<<32)
				for ; e < len(batch) && batch[e]>>32 == uint64(t); e++ {
					if p := int32(uint32(batch[e])); !seen[p] {
						seen[p] = true
						touched = append(touched, p)
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
// (bandScorer). The old sides' keys are not retained (they would cost
// 4·Bands bytes per record), so a new×old pair comes once per band it
// collides in: those are verified against the shared-token floor as packed
// (A<<32)|B keys and handed to scorePacked, whose compact dedupes them.
// The old sides are probed by binary search per new key (base and tail
// separately), so a Sync reads only the buckets the new records hash into.
//
// A band's new entries live only as long as its join. The commit rebuilds
// them from keysNewA/keysNewB to grow the retained tables: holding every
// band's entries until the last band finishes would raise an uncommitted
// delta's (Generate's) peak memory by a full set of band tables.
func (inc *Incremental) deltaLSH(ctx context.Context, tokA, tokB [][]int32) (pairs []Pair, commit func(), err error) {
	rows, bands := inc.opt.Rows, inc.opt.Bands
	oldA, oldB := inc.lenA, inc.lenB
	hashes, seeds := inc.s.dict.TokenHashes(), lshSeeds(bands)
	newToksA, newToksB := tokA[oldA:], tokB[oldB:]
	keysNewA, err := lshBandKeys(ctx, inc.opt.Workers, newToksA, hashes, seeds, rows, bands)
	if err != nil {
		return nil, nil, err
	}
	keysNewB, err := lshBandKeys(ctx, inc.opt.Workers, newToksB, hashes, seeds, rows, bands)
	if err != nil {
		return nil, nil, err
	}
	newEntries := func(b int) (na, nb []uint64) {
		return lshBandEntries(newToksA, keysNewA, rows, bands, b, oldA, len(newToksA)),
			lshBandEntries(newToksB, keysNewB, rows, bands, b, oldB, len(newToksB))
	}
	bs := newBandScorer(inc.s, inc.opt, tokA, tokB)
	type bandDelta struct {
		probed []uint64 // new×old candidates, packed
		scored []Pair   // new×new pairs at or above the threshold
	}
	outs, err := parallel.Map(inc.opt.Workers, bands, func(b int) (bandDelta, error) {
		if err := ctx.Err(); err != nil {
			return bandDelta{}, err
		}
		na, nb := newEntries(b)
		var d bandDelta
		keep := floorVisit(&d.probed, tokA, tokB, bs.floor)
		lshProbe(na, inc.entB[b], true, keep)
		lshProbe(na, inc.tailB[b], true, keep)
		lshProbe(nb, inc.entA[b], false, keep)
		lshProbe(nb, inc.tailA[b], false, keep)
		first := &lowestBand{keysA: keysNewA, keysB: keysNewB, baseA: oldA, baseB: oldB, bands: bands, band: b}
		var err error
		d.scored, err = bs.join(ctx, na, nb, first)
		return d, err
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
		// Each band only builds and swaps its own tables, so this never fails.
		_ = parallel.ForEach(inc.opt.Workers, bands, func(b int) error {
			na, nb := newEntries(b)
			inc.entA[b], inc.tailA[b] = foldTail(inc.entA[b], inc.tailA[b], na)
			inc.entB[b], inc.tailB[b] = foldTail(inc.entB[b], inc.tailB[b], nb)
			return nil
		})
		inc.lenA, inc.lenB = len(tokA), len(tokB)
	}
	return orderPairs(append(parts, fromOld), len(tokA)), commit, nil
}

// lshProbe joins sorted new entries against one sorted retained table by
// binary search: for each run of equal keys in probe it locates the
// table's bucket with that key and merge-joins the two runs through
// lshJoin, visiting every colliding pair. probeIsA says which side probe
// holds, so visit always receives (A, B). The table is never walked
// outside the buckets the probe hits, and an empty one (all of an epoch
// 0's) costs nothing.
func lshProbe(probe, table []uint64, probeIsA bool, visit func(i, j int32) bool) {
	if len(table) == 0 {
		return
	}
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
// 1/tailFoldRatio of the base is merged into a fresh base.
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
