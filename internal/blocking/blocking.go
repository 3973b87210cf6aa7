// Package blocking generates the candidate instance pairs of a two-table ER
// task and scores them with weighted attribute similarity, reproducing the
// paper's setup (§VIII-A): "we use the blocking technique to filter the
// instance pairs unlikely to match", keeping pairs whose aggregated
// similarity exceeds a dataset-specific threshold.
//
// The subsystem is built for throughput: NewScorer interns every token into
// a shared dictionary and preprocesses each record once — sorted token-id
// sets for linear-merge Jaccard, term-frequency vectors with precomputed
// norms for Cosine — and interns the values of the string-kernel columns
// (Jaro–Winkler, Levenshtein): each distinct value is decoded to runes
// once, and where a column's distinct values are few enough, the kernel's
// result per (value in A, value in B) is memoized on first use, so it runs
// once per distinct value pair rather than once per candidate. Tokens are
// scanned into a reused buffer and looked up in the dictionary as bytes,
// so only a token seen for the first time allocates, and a string-kernel
// column's blocking tokens are scanned once per distinct value. Scoring a
// pair allocates nothing and never re-tokenizes; ModeLSH scores each pair
// inside the band join that verifies it, taking the Jaccard of the
// blocking attribute from the shared-token count it has just made. Apart
// from memo fills
// (atomic, and identical whoever makes them) a Scorer is read-only after
// construction, so any number of Generate calls may share one
// concurrently; the one sanctioned mutation is the streaming path —
// Incremental.Sync extends a scorer over appended records, and must be
// serialized with every other use of that scorer. Generate fans candidate
// generation out over internal/parallel with a deterministic order-stable
// merge: the same pairs with the same similarity bits come back at any
// worker count — ModeLSH included, its hash seeds being fixed constants and
// its per-token hashing content-based (independent of interning order).
// Four strategies are provided: an exhaustive cross product, an
// inverted-index token join with size and prefix filtering (exact and
// scalable), banded bottom-Rows MinHash sketches (ModeLSH, the
// sub-quadratic path for million-record tables with skewed vocabularies;
// see lsh.go), and a classical sorted-neighborhood pass, all reached
// through Generate. ModeToken and ModeLSH each have one join, the delta
// step of incremental.go, which pairs the records new to its retained
// inverted index / band tables with all records and commits them to that
// state only on request. Generate runs it from empty state uncommitted;
// NewIncremental commits it as a live workload's epoch 0; Incremental.Sync
// runs it over appended records, bit-identical in union to a from-scratch
// Generate.
package blocking

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"humo/internal/records"
	"humo/internal/similarity"
)

// ErrBadSpec reports an invalid scoring or blocking specification.
var ErrBadSpec = errors.New("blocking: invalid specification")

// Kind selects the per-attribute similarity measure.
type Kind int

// Supported attribute similarity kinds.
const (
	KindJaccard Kind = iota // token-set Jaccard (interned, linear-merge fast path)
	KindJaroWinkler
	KindLevenshtein
	KindCosine
)

func (k Kind) String() string {
	switch k {
	case KindJaccard:
		return "jaccard"
	case KindJaroWinkler:
		return "jarowinkler"
	case KindLevenshtein:
		return "levenshtein"
	case KindCosine:
		return "cosine"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a similarity kind name, the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "jaccard":
		return KindJaccard, nil
	case "jarowinkler":
		return KindJaroWinkler, nil
	case "levenshtein":
		return KindLevenshtein, nil
	case "cosine":
		return KindCosine, nil
	default:
		return 0, fmt.Errorf("%w: unknown similarity kind %q (want jaccard, jarowinkler, levenshtein or cosine)", ErrBadSpec, s)
	}
}

// AttributeSpec maps one attribute of both tables to a similarity measure
// and an aggregation weight.
type AttributeSpec struct {
	Attribute string
	Kind      Kind
	Weight    float64
}

// Pair is a scored candidate pair, referring to record positions in the two
// tables.
type Pair struct {
	A, B int     // record indices in table A and table B
	Sim  float64 // aggregated weighted similarity
}

// colRep holds the preprocessed representation of one table column under
// one spec, per the spec's kind: tokens for KindJaccard, tf for KindCosine,
// and the interned values (runes, ids, index) for the string kernels.
type colRep struct {
	tokens [][]int32          // KindJaccard: sorted distinct token ids per record
	tf     []similarity.TFVec // KindCosine: term-frequency vector per record

	// KindJaroWinkler, KindLevenshtein: runes[v] is distinct value v
	// decoded once, ids[i] the value id of record i, index the value → id
	// map that interns appended records.
	runes [][]rune
	ids   []int32
	index map[string]int32
}

// memoCap bounds a string-kernel memo: a column gets one only while
// (distinct values in A)·(distinct values in B) is at most memoCap, i.e.
// at most 8 MiB of cells. Above it (titles and other near-unique text) the
// kernel runs directly on the interned runes.
const memoCap = 1 << 20

// memoFits reports whether a memo over nA×nB distinct values is within
// memoCap.
func memoFits(nA, nB int) bool { return int64(nA)*int64(nB) <= memoCap }

// memoFilled marks a filled memo cell. It is the float64 sign bit:
// similarities are never negative, so a filled cell is never zero and
// zeroed memory reads as empty.
const memoFilled = 1 << 63

// simMemo caches one string-kernel column's similarity per (value id in A,
// value id in B), row-major over nB columns. Cells are filled lazily with
// atomic stores of the kernel's bits (| memoFilled); racing fillers
// compute and store identical bits, so concurrent readers see either an
// empty cell, and compute, or the exact kernel result.
type simMemo struct {
	nB    int
	cells []atomic.Uint64
}

// grownMemo returns a memo over nA×nB distinct values that keeps the
// filled cells of old (nil the first time): old itself when its shape is
// unchanged, nil when nA·nB exceeds memoCap. Value ids only ever grow, so
// every filled cell keeps its meaning. Not safe for concurrent use with
// readers of old; extend is serialized with scoring.
func grownMemo(old *simMemo, nA, nB int) *simMemo {
	if !memoFits(nA, nB) {
		return nil
	}
	if old != nil && old.nB == nB && len(old.cells) == nA*nB {
		return old
	}
	m := &simMemo{nB: nB, cells: make([]atomic.Uint64, nA*nB)}
	if old != nil && old.nB > 0 {
		for x := 0; x < len(old.cells)/old.nB; x++ {
			for y := 0; y < old.nB; y++ {
				m.cells[x*nB+y].Store(old.cells[x*old.nB+y].Load())
			}
		}
	}
	return m
}

// Scorer computes aggregated similarities between records of two fixed
// tables. Every record is preprocessed once at construction — tokens
// interned into a shared dictionary, string-kernel values interned and
// decoded once per distinct value, norms precomputed — so the per-pair hot
// path is allocation-free (give each goroutine its own Scratch) and
// scoring millions of candidates stays cheap. A string-kernel column with
// few distinct values also memoizes its similarity per distinct value
// pair (see simMemo), so a low-cardinality attribute such as a venue costs
// one kernel call per value pair, not per candidate.
type Scorer struct {
	ta, tb  *records.Table
	specs   []AttributeSpec
	weights []float64 // normalized
	colA    []int     // attribute index in table A per spec
	colB    []int
	dict    *similarity.Interner
	repA    []colRep // per spec
	repB    []colRep
	memo    []*simMemo // per spec; nil unless a string kernel within memoCap
	// blockTok holds the sorted distinct token-id lists of every attribute
	// shared by both tables, keyed by attribute name — the precomputed form
	// every blocking strategy reads. Building it eagerly means Generate never
	// mutates the scorer, so it is safe for concurrent use; only extend
	// grows it.
	blockTok map[string]blockCols
}

// blockCols is the interned token-set view of one shared attribute in both
// tables. valA and valB hold, for a column that only a string-kernel spec
// covers, the token list of each distinct value by value id: its records
// share those lists.
type blockCols struct {
	a, b       [][]int32
	valA, valB [][]int32
}

// NewScorer validates the specs against both tables and preprocesses every
// record — including the token sets of every attribute both tables share,
// so any blocking attribute is ready up front. Weights must be non-negative
// with positive sum; they are normalized. Score, ScoreWith (with
// per-goroutine scratch) and Generate are all safe for concurrent use; the
// only mutation is Incremental.Sync extending the scorer over appended
// records, which must be serialized with every other use.
func NewScorer(ta, tb *records.Table, specs []AttributeSpec) (*Scorer, error) {
	if err := ta.Validate(); err != nil {
		return nil, err
	}
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: no attribute specs", ErrBadSpec)
	}
	s := &Scorer{
		ta: ta, tb: tb, specs: append([]AttributeSpec(nil), specs...),
		weights: make([]float64, len(specs)),
		colA:    make([]int, len(specs)),
		colB:    make([]int, len(specs)),
		dict:    similarity.NewInterner(),
		repA:    make([]colRep, len(specs)),
		repB:    make([]colRep, len(specs)),
		memo:    make([]*simMemo, len(specs)),
	}
	var sum float64
	for i, spec := range specs {
		if spec.Weight < 0 {
			return nil, fmt.Errorf("%w: attribute %q has negative weight", ErrBadSpec, spec.Attribute)
		}
		sum += spec.Weight
		var err error
		if s.colA[i], err = ta.AttributeIndex(spec.Attribute); err != nil {
			return nil, err
		}
		if s.colB[i], err = tb.AttributeIndex(spec.Attribute); err != nil {
			return nil, err
		}
	}
	if sum <= 0 {
		return nil, fmt.Errorf("%w: weights sum to %v", ErrBadSpec, sum)
	}
	for i, spec := range specs {
		s.weights[i] = spec.Weight / sum
		s.repA[i] = s.buildRep(ta, s.colA[i], spec.Kind)
		s.repB[i] = s.buildRep(tb, s.colB[i], spec.Kind)
	}
	s.growMemos()
	s.buildBlockTokens()
	return s, nil
}

// buildBlockTokens interns the token sets of every attribute shared by both
// tables, reusing the representations the specs already interned (Jaccard
// token sets verbatim; Cosine term-frequency ids, which are the same sorted
// distinct id lists). Eager construction here is what makes concurrent
// Generate calls race-free: the dictionary only grows inside extend, which
// Incremental.Sync serializes with every other use of the scorer.
//
// Called again after the spec representations were extended, it brings
// every column up to the tables' current length, interning only the
// records past each column's previous end. The interning order — shared
// attributes in table-A order, A rows then B rows per attribute — is the
// order a from-scratch build uses, so token ids come out identical.
func (s *Scorer) buildBlockTokens() {
	prev := s.blockTok
	s.blockTok = make(map[string]blockCols, len(s.ta.Attributes))
	for _, name := range s.ta.Attributes {
		colA, err := s.ta.AttributeIndex(name)
		if err != nil {
			continue
		}
		colB, err := s.tb.AttributeIndex(name)
		if err != nil {
			continue // not shared; blocking on it fails at Generate time
		}
		have := prev[name]
		var bc blockCols
		bc.a, bc.valA = s.tokenColumn(s.ta, colA, s.repA, func(k int) bool { return s.colA[k] == colA }, have.a, have.valA)
		bc.b, bc.valB = s.tokenColumn(s.tb, colB, s.repB, func(k int) bool { return s.colB[k] == colB }, have.b, have.valB)
		s.blockTok[name] = bc
	}
}

// tokenColumn returns the sorted distinct token ids of one table column,
// reusing a spec's interned representation when one covers the column.
// have is the column as previously built (nil the first time), and vals
// its per-value token lists; only the records past its end are converted
// or interned.
//
// A column covered only by a string-kernel spec tokenizes each distinct
// value once, when its first record is reached — in value-id order, which
// interns tokens in the same first-seen order as tokenizing every record —
// and its records share the value's list (vals, returned for the next
// extension).
func (s *Scorer) tokenColumn(t *records.Table, col int, reps []colRep, covers func(k int) bool, have, vals [][]int32) ([][]int32, [][]int32) {
	kernel := -1
	for k, spec := range s.specs {
		if !covers(k) {
			continue
		}
		switch spec.Kind {
		case KindJaccard:
			return reps[k].tokens, nil
		case KindCosine:
			// TFVec.IDs are sorted distinct ids — the same list InternTokens
			// would produce.
			toks := slices.Grow(have, len(reps[k].tf)-len(have))
			for i := len(toks); i < len(reps[k].tf); i++ {
				toks = append(toks, reps[k].tf[i].IDs)
			}
			return toks, nil
		default:
			if kernel < 0 {
				kernel = k
			}
		}
	}
	toks := slices.Grow(have, len(t.Records)-len(have))
	for i := len(toks); i < len(t.Records); i++ {
		if kernel < 0 {
			toks = append(toks, s.dict.InternTokens(t.Records[i].Values[col]))
			continue
		}
		v := reps[kernel].ids[i]
		if int(v) == len(vals) {
			vals = append(vals, s.dict.InternTokens(t.Records[i].Values[col]))
		}
		toks = append(toks, vals[v])
	}
	return toks, vals
}

// extend brings the scorer's preprocessed representations up to date with
// records appended to its tables since construction (or since the last
// extend): new records' columns are interned into the existing dictionary
// and value tables (ids of already-seen tokens and values are stable, so
// every old representation and filled memo cell keeps meaning exactly what
// it meant), the memos grow when an append brings new distinct values, and
// the blocking token sets grow by the new records only. Appended records
// are trusted to be schema-valid — Table.Append enforces that. extend
// mutates the scorer and is not safe to run concurrently with Generate or
// scoring calls; Incremental serializes it behind Sync.
func (s *Scorer) extend() {
	for k, spec := range s.specs {
		s.extendRep(s.ta, s.colA[k], spec.Kind, &s.repA[k])
		s.extendRep(s.tb, s.colB[k], spec.Kind, &s.repB[k])
	}
	s.growMemos()
	s.buildBlockTokens()
}

// growMemos sizes each string-kernel column's memo to its current distinct
// value counts, keeping the filled cells.
func (s *Scorer) growMemos() {
	for k, spec := range s.specs {
		if spec.Kind == KindJaroWinkler || spec.Kind == KindLevenshtein {
			s.memo[k] = grownMemo(s.memo[k], len(s.repA[k].runes), len(s.repB[k].runes))
		}
	}
}

// extendRep appends the preprocessed representation of records past the
// rep's current length. A no-op when the table has not grown.
func (s *Scorer) extendRep(t *records.Table, col int, kind Kind, rep *colRep) {
	switch kind {
	case KindJaccard:
		for i := len(rep.tokens); i < len(t.Records); i++ {
			rep.tokens = append(rep.tokens, s.dict.InternTokens(t.Records[i].Values[col]))
		}
	case KindCosine:
		for i := len(rep.tf); i < len(t.Records); i++ {
			rep.tf = append(rep.tf, s.dict.InternTermFreq(t.Records[i].Values[col]))
		}
	case KindJaroWinkler, KindLevenshtein:
		if rep.index == nil {
			rep.index = make(map[string]int32)
		}
		for i := len(rep.ids); i < len(t.Records); i++ {
			v := t.Records[i].Values[col]
			id, ok := rep.index[v]
			if !ok {
				id = int32(len(rep.runes))
				rep.index[v] = id
				rep.runes = append(rep.runes, []rune(v))
			}
			rep.ids = append(rep.ids, id)
		}
	}
}

// buildRep preprocesses every record of one column: extendRep from an
// empty representation sized for the table.
func (s *Scorer) buildRep(t *records.Table, col int, kind Kind) colRep {
	var rep colRep
	switch kind {
	case KindJaccard:
		rep.tokens = make([][]int32, 0, len(t.Records))
	case KindCosine:
		rep.tf = make([]similarity.TFVec, 0, len(t.Records))
	case KindJaroWinkler, KindLevenshtein:
		rep.ids = make([]int32, 0, len(t.Records))
	}
	s.extendRep(t, col, kind, &rep)
	return rep
}

// Tables returns the scored tables.
func (s *Scorer) Tables() (a, b *records.Table) { return s.ta, s.tb }

// Dict returns the shared token dictionary the scorer interned both tables
// into.
func (s *Scorer) Dict() *similarity.Interner { return s.dict }

// Scratch holds the per-goroutine reusable buffers of the scoring hot path
// (Levenshtein DP rows, Jaro matched flags). A Scratch must not be shared
// across goroutines; hand each worker its own via NewScratch.
type Scratch struct {
	prev, cur []int
	jaro      similarity.JaroScratch
}

// NewScratch returns scoring scratch space for one goroutine.
func (s *Scorer) NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs the scratch-less convenience methods Score and
// Features, so casual callers stay allocation-light without threading a
// Scratch through.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// Score returns the aggregated weighted similarity of record i of table A
// against record j of table B. Safe for concurrent use.
func (s *Scorer) Score(i, j int) float64 {
	sc := scratchPool.Get().(*Scratch)
	sim := s.ScoreWith(sc, i, j)
	scratchPool.Put(sc)
	return sim
}

// ScoreWith is Score with caller-owned scratch: the allocation-free form
// for tight loops. The scratch must be exclusive to the calling goroutine.
func (s *Scorer) ScoreWith(sc *Scratch, i, j int) float64 {
	return s.scoreCounted(sc, i, j, nil, 0, 0, 0)
}

// scoreCounted is ScoreWith for a caller that has already counted the
// shared tokens of the pair's blocking token lists: inter shared of la and
// lb. Each spec flagged in counted (see countedSpecs) takes its Jaccard
// from that count, with JaccardIDs' own formula, rather than merging the
// same lists again; ScoreWith passes no flags. The weighted sum runs in
// spec order either way, so the bits are ScoreWith's.
func (s *Scorer) scoreCounted(sc *Scratch, i, j int, counted []bool, inter, la, lb int) float64 {
	var sum float64
	for k := range s.specs {
		var sim float64
		if k < len(counted) && counted[k] {
			sim = similarity.JaccardFromCount(inter, la, lb)
		} else {
			sim = s.attrSim(sc, k, i, j)
		}
		sum += s.weights[k] * sim
	}
	return sum
}

// countedSpecs flags the KindJaccard specs over the named attribute. Their
// token lists are the very lists blockTokens returns for it — every
// tokenization of one column interns the same sorted distinct ids — so a
// join that counted the shared blocking tokens can score them from the
// count (scoreCounted). Nil when no spec qualifies.
func (s *Scorer) countedSpecs(attribute string) []bool {
	colA, errA := s.ta.AttributeIndex(attribute)
	colB, errB := s.tb.AttributeIndex(attribute)
	if errA != nil || errB != nil {
		return nil
	}
	var counted []bool
	for k, spec := range s.specs {
		if spec.Kind == KindJaccard && s.colA[k] == colA && s.colB[k] == colB {
			if counted == nil {
				counted = make([]bool, len(s.specs))
			}
			counted[k] = true
		}
	}
	return counted
}

// Features returns the per-attribute similarity vector, the SVM feature
// representation of the pair. Safe for concurrent use.
func (s *Scorer) Features(i, j int) []float64 {
	out := make([]float64, len(s.specs))
	sc := scratchPool.Get().(*Scratch)
	for k := range s.specs {
		out[k] = s.attrSim(sc, k, i, j)
	}
	scratchPool.Put(sc)
	return out
}

func (s *Scorer) attrSim(sc *Scratch, k, i, j int) float64 {
	switch s.specs[k].Kind {
	case KindJaccard:
		return similarity.JaccardIDs(s.repA[k].tokens[i], s.repB[k].tokens[j])
	case KindJaroWinkler, KindLevenshtein:
		a, b := s.repA[k].ids[i], s.repB[k].ids[j]
		m := s.memo[k]
		if m == nil {
			return s.valueSim(sc, k, a, b)
		}
		cell := &m.cells[int(a)*m.nB+int(b)]
		if v := cell.Load(); v != 0 {
			return math.Float64frombits(v &^ memoFilled)
		}
		sim := s.valueSim(sc, k, a, b)
		cell.Store(math.Float64bits(sim) | memoFilled)
		return sim
	case KindCosine:
		return similarity.CosineTF(s.repA[k].tf[i], s.repB[k].tf[j])
	default:
		panic(fmt.Sprintf("blocking: unknown kind %v", s.specs[k].Kind))
	}
}

// valueSim runs spec k's string kernel on value a of table A and value b
// of table B.
func (s *Scorer) valueSim(sc *Scratch, k int, a, b int32) float64 {
	ra, rb := s.repA[k].runes[a], s.repB[k].runes[b]
	if s.specs[k].Kind == KindJaroWinkler {
		return similarity.JaroWinklerRunes(ra, rb, &sc.jaro)
	}
	sim, prev, cur := similarity.LevenshteinSimRunes(ra, rb, sc.prev, sc.cur)
	sc.prev, sc.cur = prev, cur
	return sim
}

// DistinctValueSpecs fills in the Weight of each spec from the number of
// distinct values of the attribute across both tables, the paper's
// weighting rule (§VIII-A).
func DistinctValueSpecs(ta, tb *records.Table, specs []AttributeSpec) ([]AttributeSpec, error) {
	out := append([]AttributeSpec(nil), specs...)
	for i, spec := range specs {
		ca, err := ta.AttributeIndex(spec.Attribute)
		if err != nil {
			return nil, err
		}
		cb, err := tb.AttributeIndex(spec.Attribute)
		if err != nil {
			return nil, err
		}
		distinct := make(map[string]struct{})
		for _, v := range ta.Column(ca) {
			distinct[v] = struct{}{}
		}
		for _, v := range tb.Column(cb) {
			distinct[v] = struct{}{}
		}
		out[i].Weight = float64(len(distinct))
	}
	return out, nil
}
