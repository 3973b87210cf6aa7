package blocking

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"humo/internal/parallel"
)

// Mode selects a candidate-generation strategy.
type Mode string

// Candidate-generation strategies.
const (
	// ModeCross scores every record pair: O(|A|·|B|), exact, for small
	// tables or as the equivalence reference.
	ModeCross Mode = "cross"
	// ModeToken joins the tables through an inverted token index on
	// Options.Attribute with size and prefix filtering: only pairs that can
	// share at least MinShared tokens are ever verified. The scalable path.
	ModeToken Mode = "token"
	// ModeSorted slides a window over the union of both tables sorted by
	// Options.Attribute (classical sorted-neighborhood blocking).
	ModeSorted Mode = "sorted"
	// ModeLSH joins the tables through banded bottom-Rows MinHash sketches
	// over Options.Attribute: records colliding in at least one of Bands
	// buckets (each keyed by the record's Rows smallest token hashes under
	// the band's hash function) are verified by full token-list merge and
	// scored. Colliding requires sharing at least Rows tokens, so the only
	// per-pair work is on genuinely overlapping pairs — the path for 1M+
	// records.
	ModeLSH Mode = "lsh"
)

// ParseMode parses a generation-strategy name.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeCross, ModeToken, ModeSorted, ModeLSH:
		return Mode(s), nil
	default:
		return "", fmt.Errorf("%w: unknown blocking mode %q (want cross, token, sorted or lsh)", ErrBadSpec, s)
	}
}

// Options configures Generate.
type Options struct {
	// Mode selects the strategy (default ModeCross).
	Mode Mode
	// Attribute is the blocking key of ModeToken, ModeSorted and ModeLSH.
	Attribute string
	// MinShared is ModeToken's minimum number of shared tokens (>= 1). It
	// also floors ModeLSH verification — colliding pairs sharing fewer than
	// max(MinShared, Rows) tokens are dropped before scoring — keeping the
	// two modes' candidate contracts aligned.
	MinShared int
	// Window is ModeSorted's window size (>= 2).
	Window int
	// Rows is ModeLSH's sketch depth per band (>= 1): a band keys on the
	// record's Rows smallest token hashes, so more rows make a collision
	// more selective, and candidates always share at least Rows tokens.
	Rows int
	// Bands is ModeLSH's band count (>= 1): more bands give
	// middling-similarity pairs more chances to collide (higher recall,
	// more verification). A pair of Jaccard similarity s collides in at
	// least one band with probability about 1-(1-s^Rows)^Bands.
	Bands int
	// Threshold keeps candidates with aggregated similarity >= Threshold.
	Threshold float64
	// Workers bounds the scoring fan-out (<= 0 selects GOMAXPROCS). The
	// result is identical at any worker count.
	Workers int
}

// Generate produces the scored candidate pairs of the scorer's two tables
// under the given options, sorted by (A, B) with no duplicates.
//
// Determinism guarantee: for a fixed scorer and options, Generate returns
// the same pairs with bit-identical similarities at any Workers value —
// candidate shards cover contiguous record ranges and are merged in range
// order, and every similarity is a pure function of the preprocessed
// record representations. ctx cancels a long generation (the partial work
// is discarded and ctx's error returned).
//
// Generate is safe for concurrent use: the scorer is immutable after
// NewScorer (every shared attribute's token sets are interned up front), and
// ModeToken and ModeLSH run NewIncremental's epoch-0 delta on a private
// Incremental per call without committing it, so concurrent calls over one
// scorer, with any options, share nothing mutable.
func Generate(ctx context.Context, s *Scorer, opt Options) ([]Pair, error) {
	if opt.Mode == "" {
		opt.Mode = ModeCross
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	switch opt.Mode {
	case ModeCross:
		return generateCross(ctx, s, opt)
	case ModeSorted:
		return generateSorted(ctx, s, opt)
	}
	inc, err := newIncremental(s, opt)
	if err != nil {
		return nil, err
	}
	pairs, _, err := inc.delta(ctx)
	return pairs, err
}

// validate checks the mode and its parameters, the checks Generate and
// NewIncremental share. The attribute is checked against the tables later,
// where the strategy first reads it.
func (opt Options) validate() error {
	if _, err := ParseMode(string(opt.Mode)); err != nil {
		return err
	}
	switch {
	case opt.Mode == ModeToken && opt.MinShared < 1:
		return fmt.Errorf("%w: minShared=%d must be >= 1", ErrBadSpec, opt.MinShared)
	case opt.Mode == ModeSorted && opt.Window < 2:
		return fmt.Errorf("%w: window=%d must be >= 2", ErrBadSpec, opt.Window)
	case opt.Mode == ModeLSH && opt.Rows < 1:
		return fmt.Errorf("%w: rows=%d must be >= 1", ErrBadSpec, opt.Rows)
	case opt.Mode == ModeLSH && opt.Bands < 1:
		return fmt.Errorf("%w: bands=%d must be >= 1", ErrBadSpec, opt.Bands)
	case opt.Mode == ModeLSH && opt.Rows*opt.Bands > maxLSHHashes:
		return fmt.Errorf("%w: rows*bands=%d exceeds the %d-minhash cap", ErrBadSpec, opt.Rows*opt.Bands, maxLSHHashes)
	}
	return nil
}

// chunkRanges splits [0, n) into at most chunks contiguous ranges of
// near-equal size. Results depend only on n and chunks.
func chunkRanges(n, chunks int) [][2]int {
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	out := make([][2]int, 0, chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// fanOut runs gen over contiguous record ranges on at most opt.Workers
// goroutines and concatenates the per-range pair slices in range order —
// the order-stable merge every generator shares. gen receives its own
// scratch and must return pairs already ordered within its range.
func fanOut(ctx context.Context, s *Scorer, workers, n int, gen func(sc *Scratch, lo, hi int) ([]Pair, error)) ([]Pair, error) {
	workers = parallel.Workers(workers)
	ranges := chunkRanges(n, workers*4)
	shards, err := parallel.Map(workers, len(ranges), func(c int) ([]Pair, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc := s.NewScratch()
		return gen(sc, ranges[c][0], ranges[c][1])
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, sh := range shards {
		total += len(sh)
	}
	out := make([]Pair, 0, total)
	for _, sh := range shards {
		out = append(out, sh...)
	}
	return out, nil
}

// ctxStride bounds how many records a shard processes between context
// checks.
const ctxStride = 256

func generateCross(ctx context.Context, s *Scorer, opt Options) ([]Pair, error) {
	nb := len(s.tb.Records)
	return fanOut(ctx, s, opt.Workers, len(s.ta.Records), func(sc *Scratch, lo, hi int) ([]Pair, error) {
		var out []Pair
		for i := lo; i < hi; i++ {
			if (i-lo)%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for j := 0; j < nb; j++ {
				if sim := s.ScoreWith(sc, i, j); sim >= opt.Threshold {
					out = append(out, Pair{A: i, B: j, Sim: sim})
				}
			}
		}
		return out, nil
	})
}

// blockTokens returns the sorted distinct token-id lists of the named
// attribute for both tables, precomputed at NewScorer time (so this is a
// read-only lookup, safe under concurrent Generate calls).
func (s *Scorer) blockTokens(attribute string) (tokA, tokB [][]int32, err error) {
	if _, err := s.ta.AttributeIndex(attribute); err != nil {
		return nil, nil, err
	}
	if _, err := s.tb.AttributeIndex(attribute); err != nil {
		return nil, nil, err
	}
	bt := s.blockTok[attribute]
	return bt.a, bt.b, nil
}

// docFreq counts, for each of the n token ids, the records of both tables
// whose distinct token lists contain it: the document frequency that
// orders ModeToken's prefix filter.
func docFreq(n int, tokA, tokB [][]int32) []int32 {
	df := make([]int32, n)
	for _, toks := range tokA {
		for _, t := range toks {
			df[t]++
		}
	}
	for _, toks := range tokB {
		for _, t := range toks {
			df[t]++
		}
	}
	return df
}

// tokenPrefix is ModeToken's size and prefix filter: nil for a record with
// fewer than k tokens, otherwise the first len-k+1 of its tokens ordered by
// ascending df (zero for a token past its end), ties by id. Under any one
// fixed order, two records sharing at least k tokens have intersecting
// prefixes, so only prefixes need indexing and probing, and a linear merge
// of the full id-sorted lists verifies the survivors. Ordering rarest
// first keeps the prefixes' posting lists short.
func tokenPrefix(df []int32, toks []int32, k int) []int32 {
	if len(toks) < k {
		return nil
	}
	freq := func(t int32) int32 {
		if int(t) < len(df) {
			return df[t]
		}
		return 0
	}
	p := append([]int32(nil), toks...)
	slices.SortFunc(p, func(a, b int32) int { return cmp.Or(cmp.Compare(freq(a), freq(b)), cmp.Compare(a, b)) })
	return p[:len(p)-k+1]
}

func generateSorted(ctx context.Context, s *Scorer, opt Options) ([]Pair, error) {
	colA, err := s.ta.AttributeIndex(opt.Attribute)
	if err != nil {
		return nil, err
	}
	colB, err := s.tb.AttributeIndex(opt.Attribute)
	if err != nil {
		return nil, err
	}
	type entry struct {
		key   string
		table int // 0 = A, 1 = B
		idx   int
	}
	entries := make([]entry, 0, len(s.ta.Records)+len(s.tb.Records))
	for i, r := range s.ta.Records {
		entries = append(entries, entry{key: r.Values[colA], table: 0, idx: i})
	}
	for j, r := range s.tb.Records {
		entries = append(entries, entry{key: r.Values[colB], table: 1, idx: j})
	}
	sort.Slice(entries, func(x, y int) bool {
		if entries[x].key != entries[y].key {
			return entries[x].key < entries[y].key
		}
		if entries[x].table != entries[y].table {
			return entries[x].table < entries[y].table
		}
		return entries[x].idx < entries[y].idx
	})
	// Enumerate the cross-table pairs of common windows as packed
	// (A<<32)|B keys on a flat slice, then sort and compact to dedupe —
	// the packed sort order is exactly (A, B), so the output is identical
	// to the old map-based dedup without its ~50 bytes/entry of map
	// overhead (gigabytes at 1M records).
	var cands []uint64
	for x := range entries {
		hi := x + opt.Window
		if hi > len(entries) {
			hi = len(entries)
		}
		for y := x + 1; y < hi; y++ {
			a, b := entries[x], entries[y]
			if a.table == b.table {
				continue
			}
			if a.table == 1 {
				a, b = b, a
			}
			cands = append(cands, uint64(a.idx)<<32|uint64(b.idx))
		}
	}
	return scorePacked(ctx, s, opt, cands)
}

// scorePacked sorts packed (A<<32)|B candidates, drops duplicates, and
// scores them in contiguous ranges, keeping those at or above the
// threshold. The packed order is exactly (A, B), and fanOut's order-stable
// merge keeps the output identical at any worker count.
func scorePacked(ctx context.Context, s *Scorer, opt Options, cands []uint64) ([]Pair, error) {
	sortPacked(cands, false)
	cands = slices.Compact(cands)
	return fanOut(ctx, s, opt.Workers, len(cands), func(sc *Scratch, lo, hi int) ([]Pair, error) {
		var out []Pair
		for c := lo; c < hi; c++ {
			if (c-lo)%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			a, b := int(cands[c]>>32), int(cands[c]&0xffffffff)
			if sim := s.ScoreWith(sc, a, b); sim >= opt.Threshold {
				out = append(out, Pair{A: a, B: b, Sim: sim})
			}
		}
		return out, nil
	})
}

// orderPairs returns the pairs of parts — distinct, every A in [0, nA) —
// in one new non-nil slice sorted by (A, B). At least nA pairs are
// counting-sorted on A, each A's short run then sorted by B, in time
// linear in the pairs; fewer take one comparison sort, so a small delta
// over a large table costs nothing per record.
func orderPairs(parts [][]Pair, nA int) []Pair {
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	if n < nA {
		out := make([]Pair, 0, n)
		for _, part := range parts {
			out = append(out, part...)
		}
		slices.SortFunc(out, func(x, y Pair) int { return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B)) })
		return out
	}
	next := make([]int, nA+1) // next[a]: where A = a's next pair goes
	for _, part := range parts {
		for _, p := range part {
			next[p.A+1]++
		}
	}
	for a := 1; a <= nA; a++ {
		next[a] += next[a-1]
	}
	out := make([]Pair, n)
	for _, part := range parts {
		for _, p := range part {
			out[next[p.A]] = p
			next[p.A]++
		}
	}
	lo := 0
	for _, hi := range next[:nA] { // next[a] is now the end of a's run
		slices.SortFunc(out[lo:hi], func(x, y Pair) int { return cmp.Compare(x.B, y.B) })
		lo = hi
	}
	return out
}
