package blocking

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"humo/internal/records"
	"humo/internal/similarity"
)

// stringKernelTables builds two small tables whose venue (Jaro–Winkler)
// and code (Levenshtein) columns repeat a handful of values — empty,
// multibyte and invalid UTF-8 among them — while name is free text for
// blocking. Every value of both string columns recurs across records.
func stringKernelTables(na, nb int) (*records.Table, *records.Table) {
	venues := []string{"VLDB", "vldb", "SIGMOD Conference", "", "ICDE", "Très Grand Données", "数据库会议", "IEEE ICDE", "\xff\xfe"}
	codes := []string{"", "a", "ab", "ba", "ünïcödé", "unicode", "日本語", "日本", "x\xffy"}
	attrs := []string{"name", "venue", "code"}
	build := func(name string, n, shift int) *records.Table {
		t := &records.Table{Name: name, Attributes: attrs}
		for i := 0; i < n; i++ {
			t.Records = append(t.Records, records.Record{
				ID:       i,
				EntityID: i,
				Values: []string{
					fmt.Sprintf("w%d w%d w%d", i%7, (i+shift)%5, i%3),
					venues[(i*2+shift)%len(venues)],
					codes[(i*5+shift)%len(codes)],
				},
			})
		}
		return t
	}
	return build("a", na, 0), build("b", nb, 2)
}

func stringKernelSpecs() []AttributeSpec {
	return []AttributeSpec{
		{Attribute: "name", Kind: KindJaccard, Weight: 2},
		{Attribute: "venue", Kind: KindJaroWinkler, Weight: 3},
		{Attribute: "code", Kind: KindLevenshtein, Weight: 1},
	}
}

// kernelSim is the string kernel of spec k on the raw values of records i
// and j — the reference the interned, memoized path must reproduce.
func kernelSim(s *Scorer, k, i, j int) float64 {
	va := s.ta.Records[i].Values[s.colA[k]]
	vb := s.tb.Records[j].Values[s.colB[k]]
	switch s.specs[k].Kind {
	case KindJaroWinkler:
		return similarity.JaroWinkler(va, vb)
	case KindLevenshtein:
		return similarity.LevenshteinSim(va, vb)
	default:
		return similarity.JaccardIDs(s.repA[k].tokens[i], s.repB[k].tokens[j])
	}
}

// requireKernelScores asserts that ScoreWith, Score and Features equal the
// string kernels bit for bit on every (i, j).
func requireKernelScores(t *testing.T, label string, s *Scorer) {
	t.Helper()
	sc := s.NewScratch()
	for i := range s.ta.Records {
		for j := range s.tb.Records {
			var want float64
			feats := s.Features(i, j)
			for k := range s.specs {
				sim := kernelSim(s, k, i, j)
				want += s.weights[k] * sim
				if math.Float64bits(feats[k]) != math.Float64bits(sim) {
					t.Fatalf("%s: Features(%d,%d)[%s] = %v, kernel %v", label, i, j, s.specs[k].Attribute, feats[k], sim)
				}
			}
			if got := s.ScoreWith(sc, i, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ScoreWith(%d,%d) = %v, kernels %v", label, i, j, got, want)
			}
			if got := s.Score(i, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Score(%d,%d) = %v, kernels %v", label, i, j, got, want)
			}
		}
	}
}

// TestMemoMatchesStringKernels: interned values, with and without the
// memo, score every pair exactly as the string kernels do, on a cold memo
// and again on the warm one the first pass filled.
func TestMemoMatchesStringKernels(t *testing.T) {
	ta, tb := stringKernelTables(23, 31)
	memo, err := NewScorer(ta, tb, stringKernelSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for k, spec := range memo.specs {
		if spec.Kind == KindJaccard {
			continue
		}
		m := memo.memo[k]
		if m == nil {
			t.Fatalf("%s: no memo for a %d×%d column", spec.Attribute, len(memo.repA[k].runes), len(memo.repB[k].runes))
		}
		if len(memo.repA[k].runes) >= len(ta.Records) || len(memo.repB[k].runes) >= len(tb.Records) {
			t.Fatalf("%s: %d/%d distinct values for %d/%d records; the fixture must repeat values", spec.Attribute, len(memo.repA[k].runes), len(memo.repB[k].runes), len(ta.Records), len(tb.Records))
		}
		for c := range m.cells {
			if m.cells[c].Load() != 0 {
				t.Fatalf("%s: memo cell %d filled before any scoring", spec.Attribute, c)
			}
		}
	}
	requireKernelScores(t, "cold memo", memo)
	for k, spec := range memo.specs {
		if m := memo.memo[k]; m != nil {
			for c := range m.cells {
				if m.cells[c].Load() == 0 {
					t.Fatalf("%s: memo cell %d still empty after scoring every pair", spec.Attribute, c)
				}
			}
		}
	}
	requireKernelScores(t, "warm memo", memo)

	direct, err := NewScorer(ta, tb, stringKernelSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for k := range direct.memo {
		direct.memo[k] = nil // the above-cap path: kernel on the interned runes
	}
	requireKernelScores(t, "no memo", direct)
}

// TestMemoCapBoundary pins the cap decision on both sides of memoCap
// without allocating a cap-sized table.
func TestMemoCapBoundary(t *testing.T) {
	for _, c := range []struct {
		nA, nB int
		fits   bool
	}{
		{0, 0, true},
		{0, math.MaxInt32, true},
		{memoCap, 1, true},
		{1, memoCap, true},
		{memoCap + 1, 1, false},
		{1, memoCap + 1, false},
		{1 << 10, 1 << 10, true},
		{1<<10 + 1, 1 << 10, false},
		{1 << 10, 1<<10 + 1, false},
		{math.MaxInt32, math.MaxInt32, false},
	} {
		if got := memoFits(c.nA, c.nB); got != c.fits {
			t.Errorf("memoFits(%d, %d) = %v, want %v", c.nA, c.nB, got, c.fits)
		}
		if !c.fits {
			if m := grownMemo(nil, c.nA, c.nB); m != nil {
				t.Errorf("grownMemo(nil, %d, %d) built a memo above the cap", c.nA, c.nB)
			}
		}
	}
	// A memo that grows past the cap is dropped, not kept stale.
	small := grownMemo(nil, 2, 3)
	if small == nil || len(small.cells) != 6 {
		t.Fatalf("grownMemo(nil, 2, 3) = %+v, want 6 cells", small)
	}
	if m := grownMemo(small, memoCap, 2); m != nil {
		t.Fatal("grownMemo kept a memo grown past the cap")
	}
}

// TestMemoGrowKeepsFilledCells: growing a memo keeps every filled cell at
// its (value A, value B) coordinates and leaves the new cells empty.
func TestMemoGrowKeepsFilledCells(t *testing.T) {
	m := grownMemo(nil, 3, 2)
	for c := range m.cells {
		m.cells[c].Store(uint64(c+1) | memoFilled)
	}
	if same := grownMemo(m, 3, 2); same != m {
		t.Fatal("an unchanged shape reallocated the memo")
	}
	g := grownMemo(m, 4, 5)
	for x := 0; x < 4; x++ {
		for y := 0; y < 5; y++ {
			got := g.cells[x*5+y].Load()
			var want uint64
			if x < 3 && y < 2 {
				want = uint64(x*2+y+1) | memoFilled
			}
			if got != want {
				t.Fatalf("cell (%d,%d) = %#x, want %#x", x, y, got, want)
			}
		}
	}
}

// TestConcurrentGenerateColdMemo: several Generate calls racing over one
// cold scorer fill its memos concurrently and all return the output of a
// sequential run. Run under -race this also checks the fills are
// race-free.
func TestConcurrentGenerateColdMemo(t *testing.T) {
	ta, tb := stringKernelTables(60, 70)
	ref, err := NewScorer(ta, tb, stringKernelSpecs())
	if err != nil {
		t.Fatal(err)
	}
	opts := []Options{
		{Mode: ModeCross, Threshold: 0.2},
		{Mode: ModeLSH, Attribute: "name", Rows: 1, Bands: 8, Threshold: 0.2},
	}
	want := make([][]Pair, len(opts))
	for o, opt := range opts {
		want[o] = mustGenerate(t, ref, opt)
	}
	cold, err := NewScorer(ta, tb, stringKernelSpecs())
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	got := make([][]Pair, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			opt := opts[c%len(opts)]
			opt.Workers = 1 + c%3
			got[c], errs[c] = Generate(context.Background(), cold, opt)
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		requirePairsEqual(t, fmt.Sprintf("caller %d", c), got[c], want[c%len(opts)])
	}
}

// TestSyncWithNewValuesScoresLikeFreshScorer: an append that brings unseen
// venue and code values, plus repeats of existing ones, grows the memos;
// afterwards every old and new pair scores bit-identically to a fresh
// scorer over the final tables, and the union of the epochs' candidates is
// a from-scratch Generate's.
func TestSyncWithNewValuesScoresLikeFreshScorer(t *testing.T) {
	fullA, fullB := stringKernelTables(40, 50)
	newValue := func(t *records.Table, i int, venue, code string) {
		t.Records[i].Values[1], t.Records[i].Values[2] = venue, code
	}
	// The appended tails carry values no prefix record has, interleaved
	// with the recurring ones.
	for i := 30; i < 40; i += 3 {
		newValue(fullA, i, fmt.Sprintf("Nouvelle Conférence %d", i), fmt.Sprintf("ñ%d", i))
	}
	for i := 35; i < 50; i += 4 {
		newValue(fullB, i, fmt.Sprintf("new venue %d", i), "")
	}
	for _, opt := range []Options{
		{Mode: ModeToken, Attribute: "name", MinShared: 1, Threshold: 0.2},
		{Mode: ModeLSH, Attribute: "name", Rows: 1, Bands: 8, Threshold: 0.2},
	} {
		t.Run(string(opt.Mode), func(t *testing.T) {
			ta, tb := tablePrefix(fullA, 30), tablePrefix(fullB, 35)
			s, err := NewScorer(ta, tb, stringKernelSpecs())
			if err != nil {
				t.Fatal(err)
			}
			inc, pairs, err := NewIncremental(context.Background(), s, opt)
			if err != nil {
				t.Fatal(err)
			}
			// Warm every cell of the prefix's memos so the growth must
			// carry filled entries over.
			sc := s.NewScratch()
			for i := range ta.Records {
				for j := range tb.Records {
					s.ScoreWith(sc, i, j)
				}
			}
			before := make([]int, len(s.specs))
			for k := range s.specs {
				before[k] = len(s.repA[k].runes) * len(s.repB[k].runes)
			}
			appendBatch(t, ta, fullA, 30, 40)
			appendBatch(t, tb, fullB, 35, 50)
			delta, err := inc.Sync(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, delta...)
			sortPairs(pairs)

			fresh, err := NewScorer(ta, tb, stringKernelSpecs())
			if err != nil {
				t.Fatal(err)
			}
			for k, spec := range s.specs {
				if spec.Kind == KindJaccard {
					continue
				}
				if n := len(s.repA[k].runes) * len(s.repB[k].runes); n <= before[k] || s.memo[k] == nil || len(s.memo[k].cells) != n {
					t.Fatalf("%s: memo not grown to the new values (%d → %d distinct pairs)", spec.Attribute, before[k], n)
				}
				if len(s.repA[k].runes) != len(fresh.repA[k].runes) || len(s.repB[k].runes) != len(fresh.repB[k].runes) {
					t.Fatalf("%s: extended scorer has %d/%d distinct values, fresh %d/%d", spec.Attribute, len(s.repA[k].runes), len(s.repB[k].runes), len(fresh.repA[k].runes), len(fresh.repB[k].runes))
				}
			}
			for i := range ta.Records {
				for j := range tb.Records {
					got, want := s.Features(i, j), fresh.Features(i, j)
					for k := range got {
						if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
							t.Fatalf("Features(%d,%d)[%d] = %v after Sync, fresh scorer %v", i, j, k, got[k], want[k])
						}
					}
					if g, w := s.Score(i, j), fresh.Score(i, j); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("Score(%d,%d) = %v after Sync, fresh scorer %v", i, j, g, w)
					}
				}
			}
			requireKernelScores(t, "after Sync", s)
			requirePairsEqual(t, "epochs vs from-scratch Generate", pairs, mustGenerate(t, fresh, opt))
		})
	}
}
