package blocking

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"humo/internal/records"
)

// lshPairs runs ModeLSH with the given knobs over a scorer.
func lshPairs(t *testing.T, s *Scorer, attribute string, rows, bands int, threshold float64, workers int) []Pair {
	t.Helper()
	got, err := Generate(context.Background(), s, Options{
		Mode: ModeLSH, Attribute: attribute, Rows: rows, Bands: bands,
		Threshold: threshold, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestLSHValidation: bad row/band counts are ErrBadSpec, and a missing
// blocking attribute surfaces the table's error.
func TestLSHValidation(t *testing.T) {
	ta, tb := synthTables(20, 20, 21)
	s, err := NewScorer(ta, tb, synthSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Options{
		{Mode: ModeLSH, Attribute: "name", Rows: 0, Bands: 8},
		{Mode: ModeLSH, Attribute: "name", Rows: -1, Bands: 8},
		{Mode: ModeLSH, Attribute: "name", Rows: 2, Bands: 0},
		{Mode: ModeLSH, Attribute: "name", Rows: 2, Bands: -3},
		{Mode: ModeLSH, Attribute: "name", Rows: 64, Bands: 65}, // over the 4096 cap
	} {
		if _, err := Generate(context.Background(), s, bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("rows=%d bands=%d: err = %v, want ErrBadSpec", bad.Rows, bad.Bands, err)
		}
	}
	if _, err := Generate(context.Background(), s, Options{Mode: ModeLSH, Attribute: "missing", Rows: 2, Bands: 8, Threshold: 0}); !errors.Is(err, records.ErrBadTable) {
		t.Errorf("missing attribute: err = %v, want ErrBadTable", err)
	}
	if _, err := ParseMode("lsh"); err != nil {
		t.Errorf("ParseMode(lsh): %v", err)
	}
}

// TestLSHSubsetOfCross: every LSH candidate appears in the cross product
// with a bit-identical similarity — LSH only prunes, never rescores.
func TestLSHSubsetOfCross(t *testing.T) {
	ta, tb := synthTables(150, 200, 22)
	s, err := NewScorer(ta, tb, synthSpecs())
	if err != nil {
		t.Fatal(err)
	}
	cross := mustGenerate(t, s, Options{Threshold: 0.3})
	inCross := make(map[[2]int]float64, len(cross))
	for _, p := range cross {
		inCross[[2]int{p.A, p.B}] = p.Sim
	}
	got := lshPairs(t, s, "name", 2, 16, 0.3, 0)
	if len(got) == 0 {
		t.Fatal("no LSH candidates")
	}
	for _, p := range got {
		if sim, ok := inCross[[2]int{p.A, p.B}]; !ok || sim != p.Sim {
			t.Fatalf("LSH pair %+v not bit-identical in cross output", p)
		}
	}
	// Sorted by (A, B) with no duplicates, like every other mode.
	for i := 1; i < len(got); i++ {
		if got[i-1].A > got[i].A || (got[i-1].A == got[i].A && got[i-1].B >= got[i].B) {
			t.Fatalf("output not strictly (A,B)-sorted at %d: %+v, %+v", i, got[i-1], got[i])
		}
	}
}

// TestLSHHighBandRecall: with enough bands the S-curve is near-exhaustive
// over genuinely similar pairs — every cross-product pair at or above 0.5
// (name Jaccard well above the curve's knee) is found.
func TestLSHHighBandRecall(t *testing.T) {
	ta, tb := synthTables(120, 120, 23)
	s, err := NewScorer(ta, tb, synthSpecs())
	if err != nil {
		t.Fatal(err)
	}
	got := lshPairs(t, s, "name", 1, 32, 0.5, 0)
	found := make(map[[2]int]bool, len(got))
	for _, p := range got {
		found[[2]int{p.A, p.B}] = true
	}
	missed := 0
	for _, p := range mustGenerate(t, s, Options{Threshold: 0.5}) {
		if !found[[2]int{p.A, p.B}] {
			missed++
		}
	}
	if missed > 0 {
		t.Fatalf("rows=1 bands=32 missed %d of the >= 0.5 cross pairs", missed)
	}
}

// TestLSHDeterminism: bit-identical output at any worker count, and across
// repeated runs.
func TestLSHDeterminism(t *testing.T) {
	ta, tb := synthTables(200, 180, 24)
	s, err := NewScorer(ta, tb, synthSpecs())
	if err != nil {
		t.Fatal(err)
	}
	want := lshPairs(t, s, "name", 2, 16, 0.2, 1)
	if len(want) == 0 {
		t.Fatal("no pairs")
	}
	for _, workers := range []int{2, 3, 7, 0} {
		got := lshPairs(t, s, "name", 2, 16, 0.2, workers)
		requirePairsEqual(t, "lsh workers", got, want)
	}
	requirePairsEqual(t, "lsh rerun", lshPairs(t, s, "name", 2, 16, 0.2, 0), want)
}

// TestLSHEmptyAndEdgeTables: empty tables, empty attribute values and
// single-record tables generate without error; records with no tokens in
// the blocking attribute never become candidates (ModeToken's size-filter
// contract).
func TestLSHEmptyAndEdgeTables(t *testing.T) {
	ta, _ := synthTables(5, 5, 25)
	for _, tb := range []*records.Table{emptyTable("b"), oneRecordTable("b", "acme turbo widget")} {
		s, err := NewScorer(ta, tb, synthSpecs())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Generate(context.Background(), s, Options{Mode: ModeLSH, Attribute: "name", Rows: 2, Bands: 8, Threshold: 0.1}); err != nil {
			t.Fatalf("edge table: %v", err)
		}
	}
	// A record with an empty blocking value pairs with nothing, even though
	// cross-mode scoring would give two empty values Jaccard 1.
	empty := &records.Table{
		Name:       "a",
		Attributes: []string{"name"},
		Records: []records.Record{
			{ID: 0, Values: []string{""}},
			{ID: 1, Values: []string{"acme turbo widget"}},
		},
	}
	s, err := NewScorer(empty, empty, []AttributeSpec{{Attribute: "name", Kind: KindJaccard, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Generate(context.Background(), s, Options{Mode: ModeLSH, Attribute: "name", Rows: 1, Bands: 64, Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].A != 1 || got[0].B != 1 {
		t.Fatalf("empty-value records must not pair: %+v", got)
	}
}

// TestGenerateConcurrentSameScorer pins the bugfix for the blockTokens data
// race: concurrent Generate calls on one scorer — including on a blocking
// attribute no Jaccard spec covers, which used to extend the shared token
// dictionary — are safe (run under -race in CI) and agree with a
// sequential run.
func TestGenerateConcurrentSameScorer(t *testing.T) {
	ta, tb := synthTables(80, 80, 26)
	// JaroWinkler-only specs: no attribute's tokens are interned for
	// scoring, so every blocking attribute exercises the pre-interned
	// blockTok path.
	specs := []AttributeSpec{{Attribute: "brand", Kind: KindJaroWinkler, Weight: 1}}
	s, err := NewScorer(ta, tb, specs)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Options{
		{Mode: ModeToken, Attribute: "name", MinShared: 2, Threshold: 0.2},
		{Mode: ModeToken, Attribute: "description", MinShared: 2, Threshold: 0.2},
		{Mode: ModeLSH, Attribute: "name", Rows: 2, Bands: 16, Threshold: 0.2},
		{Mode: ModeSorted, Attribute: "name", Window: 6, Threshold: 0.2},
	}
	want := make([][]Pair, len(opts))
	for i, opt := range opts {
		if want[i], err = Generate(context.Background(), s, opt); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(opts))
	for g := 0; g < 8; g++ {
		for i, opt := range opts {
			wg.Add(1)
			go func(i int, opt Options) {
				defer wg.Done()
				got, err := Generate(context.Background(), s, opt)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want[i]) {
					errs <- errors.New("concurrent Generate diverged from sequential run")
					return
				}
				for k := range got {
					if got[k] != want[i][k] {
						errs <- errors.New("concurrent Generate diverged from sequential run")
						return
					}
				}
			}(i, opt)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEquivalenceLSHScoredJoin holds the scored band join to the per-pair
// oracle on the blocking attributes where it cannot score every spec from
// the shared-token count: one scored by Cosine only, one by Jaro–Winkler
// only, one no spec covers, and one carrying two Jaccard specs (both taken
// from the count). Generate and an epoch-0 NewIncremental must match the
// oracle bit for bit, at one worker and at four.
func TestEquivalenceLSHScoredJoin(t *testing.T) {
	ta, tb := synthTables(150, 200, 7)
	cases := []struct {
		name, attribute string
		specs           []AttributeSpec
		rows            int
		counted         []bool
	}{
		{"cosine only", "description", synthSpecs(), 2, nil},
		{"jaro-winkler only", "brand", synthSpecs(), 1, nil},
		{"no spec", "description", []AttributeSpec{
			{Attribute: "name", Kind: KindJaccard, Weight: 3},
			{Attribute: "brand", Kind: KindJaroWinkler, Weight: 1},
		}, 2, nil},
		{"two jaccard", "name", []AttributeSpec{
			{Attribute: "name", Kind: KindJaccard, Weight: 4},
			{Attribute: "description", Kind: KindCosine, Weight: 2},
			{Attribute: "name", Kind: KindJaccard, Weight: 1},
		}, 2, []bool{true, false, true}},
	}
	ctx := context.Background()
	for _, c := range cases {
		s, err := NewScorer(ta, tb, c.specs)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.countedSpecs(c.attribute); !slices.Equal(got, c.counted) {
			t.Fatalf("%s: countedSpecs = %v, want %v", c.name, got, c.counted)
		}
		ref := newRefScorer(t, ta, tb, c.specs)
		for _, threshold := range []float64{0, 0.3} {
			want := refLSH(t, ref, s.Dict(), c.attribute, c.rows, 8, 1, threshold)
			if threshold == 0 && len(want) == 0 {
				t.Fatalf("%s: the oracle finds no candidates", c.name)
			}
			for _, workers := range []int{1, 4} {
				opt := Options{
					Mode: ModeLSH, Attribute: c.attribute, Rows: c.rows, Bands: 8,
					MinShared: 1, Threshold: threshold, Workers: workers,
				}
				label := fmt.Sprintf("%s t=%v workers=%d", c.name, threshold, workers)
				got, err := Generate(ctx, s, opt)
				if err != nil {
					t.Fatal(err)
				}
				requirePairsEqual(t, label, got, want)
				_, epoch0, err := NewIncremental(ctx, s, opt)
				if err != nil {
					t.Fatal(err)
				}
				requirePairsEqual(t, label+" epoch 0", epoch0, want)
			}
		}
	}
}

// TestOrderPairs holds both of orderPairs' sorts to one comparison sort:
// distinct random pairs split over several parts (an empty one included),
// with fewer pairs than records in A and with more.
func TestOrderPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ n, nA, nB int }{{0, 0, 5}, {0, 40, 5}, {30, 100, 50}, {500, 40, 60}, {2000, 300, 300}} {
		seen := map[[2]int]bool{}
		var all []Pair
		for len(all) < c.n {
			p := Pair{A: rng.Intn(c.nA), B: rng.Intn(c.nB), Sim: rng.Float64()}
			if !seen[[2]int{p.A, p.B}] {
				seen[[2]int{p.A, p.B}] = true
				all = append(all, p)
			}
		}
		cut := c.n / 3
		got := orderPairs([][]Pair{all[:cut], nil, all[cut:]}, c.nA)
		want := slices.Clone(all)
		refSortPairs(want)
		if got == nil {
			t.Fatalf("n=%d nA=%d: nil result", c.n, c.nA)
		}
		requirePairsEqual(t, fmt.Sprintf("n=%d nA=%d", c.n, c.nA), got, want)
	}
}
