package blocking

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"humo/internal/records"
	"humo/internal/similarity"
)

// This file reimplements the seed's candidate generation verbatim — map
// token sets, string-kernel scoring, O(n²) scans — as the reference the
// rebuilt interned/sharded path is held bit-identical to: same pair sets,
// same similarity bits.

// refScorer scores exactly like the seed Scorer did: Jaccard over
// map-backed token sets, everything else through the string kernels,
// re-tokenizing per call.
type refScorer struct {
	ta, tb  *records.Table
	specs   []AttributeSpec
	weights []float64
	colA    []int
	colB    []int
	tokA    []map[int]map[string]struct{}
	tokB    []map[int]map[string]struct{}
}

func newRefScorer(t testing.TB, ta, tb *records.Table, specs []AttributeSpec) *refScorer {
	t.Helper()
	s := &refScorer{
		ta: ta, tb: tb, specs: specs,
		weights: make([]float64, len(specs)),
		colA:    make([]int, len(specs)),
		colB:    make([]int, len(specs)),
		tokA:    make([]map[int]map[string]struct{}, len(specs)),
		tokB:    make([]map[int]map[string]struct{}, len(specs)),
	}
	var sum float64
	for _, spec := range specs {
		sum += spec.Weight
	}
	for i, spec := range specs {
		var err error
		if s.colA[i], err = ta.AttributeIndex(spec.Attribute); err != nil {
			t.Fatal(err)
		}
		if s.colB[i], err = tb.AttributeIndex(spec.Attribute); err != nil {
			t.Fatal(err)
		}
		s.weights[i] = spec.Weight / sum
		if spec.Kind == KindJaccard {
			s.tokA[i] = refTokenizeColumn(ta, s.colA[i])
			s.tokB[i] = refTokenizeColumn(tb, s.colB[i])
		}
	}
	return s
}

func refTokenizeColumn(t *records.Table, col int) map[int]map[string]struct{} {
	out := make(map[int]map[string]struct{}, len(t.Records))
	for i, r := range t.Records {
		out[i] = similarity.TokenSet(r.Values[col])
	}
	return out
}

func (s *refScorer) score(i, j int) float64 {
	var sum float64
	for k := range s.specs {
		var sim float64
		switch s.specs[k].Kind {
		case KindJaccard:
			sim = similarity.JaccardSets(s.tokA[k][i], s.tokB[k][j])
		case KindJaroWinkler:
			sim = similarity.JaroWinkler(s.ta.Records[i].Values[s.colA[k]], s.tb.Records[j].Values[s.colB[k]])
		case KindLevenshtein:
			sim = similarity.LevenshteinSim(s.ta.Records[i].Values[s.colA[k]], s.tb.Records[j].Values[s.colB[k]])
		case KindCosine:
			sim = similarity.Cosine(s.ta.Records[i].Values[s.colA[k]], s.tb.Records[j].Values[s.colB[k]])
		}
		sum += s.weights[k] * sim
	}
	return sum
}

// refCrossProduct is the seed CrossProduct: the full O(n²) scan.
func refCrossProduct(s *refScorer, threshold float64) []Pair {
	var out []Pair
	for i := range s.ta.Records {
		for j := range s.tb.Records {
			if sim := s.score(i, j); sim >= threshold {
				out = append(out, Pair{A: i, B: j, Sim: sim})
			}
		}
	}
	return out
}

// refTokenBlocked is the seed TokenBlocked: a full (unfiltered) inverted
// index with map-counted overlaps.
func refTokenBlocked(t testing.TB, s *refScorer, attribute string, minShared int, threshold float64) []Pair {
	t.Helper()
	colA, err := s.ta.AttributeIndex(attribute)
	if err != nil {
		t.Fatal(err)
	}
	colB, err := s.tb.AttributeIndex(attribute)
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[string][]int)
	for j, r := range s.tb.Records {
		for tok := range similarity.TokenSet(r.Values[colB]) {
			index[tok] = append(index[tok], j)
		}
	}
	out := []Pair{}
	shared := make(map[int]int)
	for i, r := range s.ta.Records {
		clear(shared)
		for tok := range similarity.TokenSet(r.Values[colA]) {
			for _, j := range index[tok] {
				shared[j]++
			}
		}
		for j, cnt := range shared {
			if cnt < minShared {
				continue
			}
			if sim := s.score(i, j); sim >= threshold {
				out = append(out, Pair{A: i, B: j, Sim: sim})
			}
		}
	}
	refSortPairs(out)
	return out
}

// refSortedNeighborhood is the seed SortedNeighborhood.
func refSortedNeighborhood(t testing.TB, s *refScorer, attribute string, window int, threshold float64) []Pair {
	t.Helper()
	colA, err := s.ta.AttributeIndex(attribute)
	if err != nil {
		t.Fatal(err)
	}
	colB, err := s.tb.AttributeIndex(attribute)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		key   string
		table int
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
	seen := map[[2]int]struct{}{}
	out := []Pair{}
	for x := range entries {
		hi := x + window
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
			key := [2]int{a.idx, b.idx}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			if sim := s.score(a.idx, b.idx); sim >= threshold {
				out = append(out, Pair{A: a.idx, B: b.idx, Sim: sim})
			}
		}
	}
	refSortPairs(out)
	return out
}

func refSortPairs(out []Pair) {
	sort.Slice(out, func(x, y int) bool {
		if out[x].A != out[y].A {
			return out[x].A < out[y].A
		}
		return out[x].B < out[y].B
	})
}

// synthTables generates two product-catalog-like tables with na and nb
// records: overlapping entities with corrupted copies, plus unrelated
// fillers, so the candidate space has real structure (shared tokens,
// near-duplicates, disjoint records). Fully deterministic in seed.
func synthTables(na, nb int, seed int64) (*records.Table, *records.Table) {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 400)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%03d", i)
	}
	brands := []string{"acme", "globex", "initech", "umbrella", "stark", "wayne", "tyrell", "hooli"}
	makeTitle := func(r *rand.Rand) []string {
		n := 3 + r.Intn(5)
		words := make([]string, n)
		words[0] = brands[r.Intn(len(brands))]
		for i := 1; i < n; i++ {
			words[i] = vocab[r.Intn(len(vocab))]
		}
		return words
	}
	corrupt := func(r *rand.Rand, words []string) []string {
		out := append([]string(nil), words...)
		if len(out) > 1 && r.Float64() < 0.5 {
			out[r.Intn(len(out))] = vocab[r.Intn(len(vocab))]
		}
		if r.Float64() < 0.3 {
			out = append(out, vocab[r.Intn(len(vocab))])
		}
		return out
	}
	attrs := []string{"name", "description", "brand"}
	newRec := func(id, entity int, words []string, r *rand.Rand) records.Record {
		return records.Record{
			ID:       id,
			EntityID: entity,
			Values: []string{
				strings.Join(words, " "),
				strings.Join(append(append([]string{}, words...), vocab[r.Intn(len(vocab))], vocab[r.Intn(len(vocab))]), " "),
				words[0],
			},
		}
	}
	shared := na / 2
	ta := &records.Table{Name: "a", Attributes: attrs}
	tb := &records.Table{Name: "b", Attributes: attrs}
	for i := 0; i < na; i++ {
		words := makeTitle(rng)
		ta.Records = append(ta.Records, newRec(i, i, words, rng))
		if i < shared && len(tb.Records) < nb {
			tb.Records = append(tb.Records, newRec(len(tb.Records), i, corrupt(rng, words), rng))
		}
	}
	for len(tb.Records) < nb {
		words := makeTitle(rng)
		tb.Records = append(tb.Records, newRec(len(tb.Records), na+len(tb.Records), words, rng))
	}
	return ta, tb
}

func synthSpecs() []AttributeSpec {
	return []AttributeSpec{
		{Attribute: "name", Kind: KindJaccard, Weight: 4},
		{Attribute: "description", Kind: KindCosine, Weight: 2},
		{Attribute: "brand", Kind: KindJaroWinkler, Weight: 1},
	}
}

// requirePairsEqual asserts two pair slices are identical: same order, same
// indices, bit-identical similarities.
func requirePairsEqual(t *testing.T, label string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestEquivalenceCross holds the rebuilt cross-product path bit-identical
// to the seed scan, across measure kinds including Levenshtein.
func TestEquivalenceCross(t *testing.T) {
	ta, tb := synthTables(60, 80, 1)
	specs := []AttributeSpec{
		{Attribute: "name", Kind: KindJaccard, Weight: 3},
		{Attribute: "description", Kind: KindCosine, Weight: 2},
		{Attribute: "brand", Kind: KindLevenshtein, Weight: 1},
	}
	s, err := NewScorer(ta, tb, specs)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefScorer(t, ta, tb, specs)
	for _, threshold := range []float64{0, 0.3, 0.6} {
		requirePairsEqual(t, fmt.Sprintf("cross@%v", threshold),
			mustGenerate(t, s, Options{Threshold: threshold}), refCrossProduct(ref, threshold))
	}
}

// TestEquivalenceTokenBlocked holds the prefix-filtered inverted-index join
// bit-identical to the seed's unfiltered index scan.
func TestEquivalenceTokenBlocked(t *testing.T) {
	ta, tb := synthTables(150, 200, 2)
	specs := synthSpecs()
	s, err := NewScorer(ta, tb, specs)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefScorer(t, ta, tb, specs)
	for _, minShared := range []int{1, 2, 3} {
		for _, threshold := range []float64{0, 0.25} {
			label := fmt.Sprintf("token k=%d t=%v", minShared, threshold)
			got, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "name", MinShared: minShared, Threshold: threshold})
			if err != nil {
				t.Fatal(err)
			}
			requirePairsEqual(t, label, got, refTokenBlocked(t, ref, "name", minShared, threshold))
		}
	}
	// Blocking on an attribute with no Jaccard spec interns fresh tokens.
	got, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "brand", MinShared: 1, Threshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	requirePairsEqual(t, "token brand", got, refTokenBlocked(t, ref, "brand", 1, 0.4))
}

// TestEquivalenceSortedNeighborhood holds the parallel-scored window pass
// bit-identical to the seed implementation.
func TestEquivalenceSortedNeighborhood(t *testing.T) {
	ta, tb := synthTables(80, 90, 3)
	specs := synthSpecs()
	s, err := NewScorer(ta, tb, specs)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefScorer(t, ta, tb, specs)
	for _, window := range []int{2, 5, 16} {
		got, err := Generate(context.Background(), s, Options{Mode: ModeSorted, Attribute: "name", Window: window, Threshold: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		requirePairsEqual(t, fmt.Sprintf("sorted w=%d", window), got,
			refSortedNeighborhood(t, ref, "name", window, 0.2))
	}
}

// refLSHKeys recomputes one record's band keys from scratch: per band, every
// token's content hash mixed with the band seed, a full sort, the Rows
// smallest folded into the top 32 bits of a splitmix64 chain. A record
// with fewer than rows tokens has no sketch: nil.
func refLSHKeys(dict *similarity.Interner, toks map[string]struct{}, rows, bands int) []uint32 {
	if len(toks) < rows {
		return nil
	}
	keys := make([]uint32, bands)
	for b := range keys {
		seed := splitmix64(lshSeedBase + uint64(b))
		var hs []uint64
		for tok := range toks {
			id, found := dict.Lookup(tok)
			if !found {
				panic("token " + tok + " not interned")
			}
			hs = append(hs, splitmix64(dict.TokenHash(id)^seed))
		}
		sort.Slice(hs, func(x, y int) bool { return hs[x] < hs[y] })
		key := splitmix64(uint64(b))
		for _, v := range hs[:rows] {
			key = splitmix64(key ^ v)
		}
		keys[b] = uint32(key >> 32)
	}
	return keys
}

// refLSH is the per-pair LSH oracle: a pair is a candidate exactly when
// both records have a sketch, their keys agree in at least one band, they
// share at least max(MinShared, Rows) tokens, and the reference score
// reaches the threshold. No buckets, no joins, no dedupe.
func refLSH(t testing.TB, s *refScorer, dict *similarity.Interner, attribute string, rows, bands, minShared int, threshold float64) []Pair {
	t.Helper()
	colA, err := s.ta.AttributeIndex(attribute)
	if err != nil {
		t.Fatal(err)
	}
	colB, err := s.tb.AttributeIndex(attribute)
	if err != nil {
		t.Fatal(err)
	}
	sketch := func(tab *records.Table, col int) ([]map[string]struct{}, [][]uint32) {
		toks := make([]map[string]struct{}, len(tab.Records))
		keys := make([][]uint32, len(tab.Records))
		for i, r := range tab.Records {
			toks[i] = similarity.TokenSet(r.Values[col])
			keys[i] = refLSHKeys(dict, toks[i], rows, bands)
		}
		return toks, keys
	}
	toksA, keysA := sketch(s.ta, colA)
	toksB, keysB := sketch(s.tb, colB)
	floor := max(minShared, rows)
	out := []Pair{}
	for i := range toksA {
		for j := range toksB {
			if keysA[i] == nil || keysB[j] == nil {
				continue
			}
			collide := false
			for b := range keysA[i] {
				collide = collide || keysA[i][b] == keysB[j][b]
			}
			if !collide {
				continue
			}
			shared := 0
			for tok := range toksA[i] {
				if _, ok := toksB[j][tok]; ok {
					shared++
				}
			}
			if shared < floor {
				continue
			}
			if sim := s.score(i, j); sim >= threshold {
				out = append(out, Pair{A: i, B: j, Sim: sim})
			}
		}
	}
	return out
}

// TestEquivalenceLSH holds ModeLSH bit-identical to the per-pair oracle
// over a Rows/Bands/MinShared grid, MinShared both below and above Rows.
func TestEquivalenceLSH(t *testing.T) {
	ta, tb := synthTables(150, 200, 6)
	specs := synthSpecs()
	s, err := NewScorer(ta, tb, specs)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefScorer(t, ta, tb, specs)
	for _, rows := range []int{1, 2, 3} {
		for _, bands := range []int{1, 5, 16} {
			for _, minShared := range []int{1, 2, 4} {
				for _, threshold := range []float64{0, 0.25} {
					label := fmt.Sprintf("lsh r=%d b=%d k=%d t=%v", rows, bands, minShared, threshold)
					got, err := Generate(context.Background(), s, Options{
						Mode: ModeLSH, Attribute: "name", Rows: rows, Bands: bands,
						MinShared: minShared, Threshold: threshold,
					})
					if err != nil {
						t.Fatal(err)
					}
					requirePairsEqual(t, label, got, refLSH(t, ref, s.Dict(), "name", rows, bands, minShared, threshold))
				}
			}
		}
	}
}

// TestGenerateWorkerInvariance pins the determinism guarantee: every mode
// returns identical output at any worker count.
func TestGenerateWorkerInvariance(t *testing.T) {
	ta, tb := synthTables(120, 150, 4)
	s, err := NewScorer(ta, tb, synthSpecs())
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	for _, opt := range []Options{
		{Mode: ModeCross, Threshold: 0.3},
		{Mode: ModeToken, Attribute: "name", MinShared: 2, Threshold: 0.2},
		{Mode: ModeSorted, Attribute: "name", Window: 7, Threshold: 0.2},
	} {
		opt.Workers = 1
		want, err := Generate(ctx, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 0} {
			opt.Workers = workers
			got, err := Generate(ctx, s, opt)
			if err != nil {
				t.Fatal(err)
			}
			requirePairsEqual(t, fmt.Sprintf("%s workers=%d", opt.Mode, workers), got, want)
		}
	}
}

// TestGenerateCancellation: a canceled context aborts generation with the
// context's error.
func TestGenerateCancellation(t *testing.T) {
	ta, tb := synthTables(200, 200, 5)
	s, err := NewScorer(ta, tb, synthSpecs())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Generate(ctx, s, Options{Mode: ModeCross}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled generate returned %v, want context.Canceled", err)
	}
	for _, opt := range []Options{
		{Mode: ModeToken, Attribute: "name", MinShared: 1},
		{Mode: ModeSorted, Attribute: "name", Window: 4},
		{Mode: ModeLSH, Attribute: "name", Rows: 2, Bands: 8},
	} {
		if _, err := Generate(ctx, s, opt); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled %s generate returned %v, want context.Canceled", opt.Mode, err)
		}
	}
}

func TestParseModeAndKind(t *testing.T) {
	for _, name := range []string{"cross", "token", "sorted"} {
		m, err := ParseMode(name)
		if err != nil || string(m) != name {
			t.Errorf("ParseMode(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ParseMode("nope"); !errors.Is(err, ErrBadSpec) {
		t.Error("unknown mode should fail")
	}
	for _, name := range []string{"jaccard", "jarowinkler", "levenshtein", "cosine"} {
		k, err := ParseKind(name)
		if err != nil || k.String() != name {
			t.Errorf("ParseKind(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := ParseKind("nope"); !errors.Is(err, ErrBadSpec) {
		t.Error("unknown kind should fail")
	}
}
