package blocking

import (
	"context"
	"errors"
	"testing"

	"humo/internal/records"
)

// Edge cases of candidate generation, each asserted identically against the
// seed reference implementation (reference_test.go) and the rebuilt path.

func emptyTable(name string) *records.Table {
	return &records.Table{Name: name, Attributes: []string{"name", "description", "brand"}}
}

func oneRecordTable(name, title string) *records.Table {
	return &records.Table{
		Name:       name,
		Attributes: []string{"name", "description", "brand"},
		Records: []records.Record{
			{ID: 0, EntityID: 0, Values: []string{title, title + " extra words", "acme"}},
		},
	}
}

// assertAllModesAgree runs every generator over the tables and holds new ==
// reference for each.
func assertAllModesAgree(t *testing.T, ta, tb *records.Table) {
	t.Helper()
	specs := synthSpecs()
	s, err := NewScorer(ta, tb, specs)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefScorer(t, ta, tb, specs)

	requirePairsEqual(t, "cross", mustGenerate(t, s, Options{Threshold: 0.1}), refCrossProduct(ref, 0.1))

	got, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "name", MinShared: 1, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	requirePairsEqual(t, "token", got, refTokenBlocked(t, ref, "name", 1, 0.1))

	got, err = Generate(context.Background(), s, Options{Mode: ModeSorted, Attribute: "name", Window: 4, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	requirePairsEqual(t, "sorted", got, refSortedNeighborhood(t, ref, "name", 4, 0.1))
}

func TestEdgeEmptyTables(t *testing.T) {
	ta, _ := synthTables(5, 5, 10)
	t.Run("both empty", func(t *testing.T) { assertAllModesAgree(t, emptyTable("a"), emptyTable("b")) })
	t.Run("a empty", func(t *testing.T) { assertAllModesAgree(t, emptyTable("a"), ta) })
	t.Run("b empty", func(t *testing.T) { assertAllModesAgree(t, ta, emptyTable("b")) })
}

func TestEdgeSingleRecordTables(t *testing.T) {
	t.Run("identical", func(t *testing.T) {
		assertAllModesAgree(t, oneRecordTable("a", "acme turbo widget"), oneRecordTable("b", "acme turbo widget"))
	})
	t.Run("disjoint", func(t *testing.T) {
		assertAllModesAgree(t, oneRecordTable("a", "acme turbo widget"), oneRecordTable("b", "globex quiet gadget"))
	})
	t.Run("one against many", func(t *testing.T) {
		_, tb := synthTables(5, 20, 11)
		assertAllModesAgree(t, oneRecordTable("a", "acme turbo widget"), tb)
	})
}

// TestEdgeAttributeMissingFromOneTable: schemas that disagree fail scorer
// construction, and blocking on an attribute absent from one table fails
// generation with the table's error — identically on old and new paths.
func TestEdgeAttributeMissingFromOneTable(t *testing.T) {
	ta := &records.Table{
		Name:       "a",
		Attributes: []string{"name", "description", "brand"},
		Records:    []records.Record{{ID: 0, Values: []string{"x y", "x y z", "x"}}},
	}
	tbNoBrand := &records.Table{
		Name:       "b",
		Attributes: []string{"name", "description"},
		Records:    []records.Record{{ID: 0, Values: []string{"x y", "x y w"}}},
	}
	if _, err := NewScorer(ta, tbNoBrand, synthSpecs()); !errors.Is(err, records.ErrBadTable) {
		t.Fatalf("scorer over mismatched schemas: err = %v, want ErrBadTable", err)
	}
	// A scorer over the shared attributes builds, but blocking on the
	// missing attribute is refused.
	shared := []AttributeSpec{
		{Attribute: "name", Kind: KindJaccard, Weight: 1},
		{Attribute: "description", Kind: KindCosine, Weight: 1},
	}
	s, err := NewScorer(ta, tbNoBrand, shared)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "brand", MinShared: 1, Threshold: 0}); !errors.Is(err, records.ErrBadTable) {
		t.Errorf("token blocking on missing attribute: err = %v, want ErrBadTable", err)
	}
	if _, err := Generate(context.Background(), s, Options{Mode: ModeSorted, Attribute: "brand", Window: 3, Threshold: 0}); !errors.Is(err, records.ErrBadTable) {
		t.Errorf("sorted blocking on missing attribute: err = %v, want ErrBadTable", err)
	}
}

// TestEdgeWindowLargerThanTables: a sorted-neighborhood window wider than
// the union of both tables degenerates to the full cross product.
func TestEdgeWindowLargerThanTables(t *testing.T) {
	ta, tb := synthTables(6, 7, 12)
	specs := synthSpecs()
	s, err := NewScorer(ta, tb, specs)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefScorer(t, ta, tb, specs)
	window := len(ta.Records) + len(tb.Records) + 5
	got, err := Generate(context.Background(), s, Options{Mode: ModeSorted, Attribute: "name", Window: window, Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	requirePairsEqual(t, "giant window vs ref", got, refSortedNeighborhood(t, ref, "name", window, 0))
	requirePairsEqual(t, "giant window vs cross", got, refCrossProduct(ref, 0))
}

// TestEdgeThresholdBoundary: a pair whose similarity equals the threshold
// exactly is kept (>=, not >) by every generator, old and new.
func TestEdgeThresholdBoundary(t *testing.T) {
	// Two single-attribute records with token sets {x,y,z} and {x,y,w}:
	// Jaccard = 2/4 = 0.5 exactly in float64.
	ta := &records.Table{
		Name:       "a",
		Attributes: []string{"name"},
		Records: []records.Record{
			{ID: 0, Values: []string{"x y z"}},
			{ID: 1, Values: []string{"p q r"}},
		},
	}
	tb := &records.Table{
		Name:       "b",
		Attributes: []string{"name"},
		Records:    []records.Record{{ID: 0, Values: []string{"x y w"}}},
	}
	specs := []AttributeSpec{{Attribute: "name", Kind: KindJaccard, Weight: 1}}
	s, err := NewScorer(ta, tb, specs)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefScorer(t, ta, tb, specs)
	if sim := s.Score(0, 0); sim != 0.5 {
		t.Fatalf("boundary pair scores %v, want exactly 0.5", sim)
	}

	cross := mustGenerate(t, s, Options{Threshold: 0.5})
	requirePairsEqual(t, "boundary cross", cross, refCrossProduct(ref, 0.5))
	if len(cross) != 1 || cross[0] != (Pair{A: 0, B: 0, Sim: 0.5}) {
		t.Fatalf("threshold-equal pair not kept: %+v", cross)
	}

	tok, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "name", MinShared: 2, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	requirePairsEqual(t, "boundary token", tok, refTokenBlocked(t, ref, "name", 2, 0.5))
	if len(tok) != 1 {
		t.Fatalf("token blocking dropped the threshold-equal pair: %+v", tok)
	}

	// Nudging the threshold one ulp above 0.5 drops the pair.
	above := mustGenerate(t, s, Options{Threshold: 0.5000000000000001})
	if len(above) != 0 {
		t.Fatalf("pair above threshold kept: %+v", above)
	}
}

// TestEdgeMinSharedExactTokens: a record with exactly MinShared tokens sits
// on the size-filter boundary and must still pair — the filter is
// "fewer than", not "at most".
func TestEdgeMinSharedExactTokens(t *testing.T) {
	ta := oneRecordTable("a", "alpha beta gamma")
	tb := oneRecordTable("b", "alpha beta gamma")
	specs := synthSpecs()
	s, err := NewScorer(ta, tb, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "name", MinShared: 3, Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].A != 0 || got[0].B != 0 {
		t.Fatalf("exact-MinShared pair not kept: %+v", got)
	}
}

// TestEdgeEmptyAttributeValues: records whose blocking attribute is empty
// tokenize to nothing, never enter the index, and generation still succeeds
// with an empty result when every record is filtered out.
func TestEdgeEmptyAttributeValues(t *testing.T) {
	blank := func(name string, n int) *records.Table {
		tbl := &records.Table{Name: name, Attributes: []string{"name", "description", "brand"}}
		for i := 0; i < n; i++ {
			tbl.Records = append(tbl.Records, records.Record{
				ID: i, EntityID: i, Values: []string{"", "some description text", "acme"},
			})
		}
		return tbl
	}
	ta, tb := blank("a", 4), blank("b", 3)
	s, err := NewScorer(ta, tb, synthSpecs())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "name", MinShared: 1, Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("pairs from empty blocking values: %+v", got)
	}
	// Same contract on the LSH path: no sketches, no candidates, no error.
	got, err = Generate(context.Background(), s, Options{Mode: ModeLSH, Attribute: "name", Rows: 2, Bands: 8, Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("LSH pairs from empty blocking values: %+v", got)
	}
	// A mixed table — one real record among blanks — still pairs normally.
	ta.Records[2].Values[0] = "acme turbo widget"
	tb.Records[1].Values[0] = "acme turbo widget"
	s2, err := NewScorer(ta, tb, synthSpecs())
	if err != nil {
		t.Fatal(err)
	}
	got, err = Generate(context.Background(), s2, Options{Mode: ModeToken, Attribute: "name", MinShared: 1, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].A != 2 || got[0].B != 1 {
		t.Fatalf("mixed table pairs = %+v, want exactly (2,1)", got)
	}
}

// TestEdgeMinSharedExceedsTokens: records with fewer tokens than MinShared
// can never pair (the size filter), matching the reference.
func TestEdgeMinSharedExceedsTokens(t *testing.T) {
	ta := oneRecordTable("a", "only two")
	tb := oneRecordTable("b", "only two")
	specs := synthSpecs()
	s, err := NewScorer(ta, tb, specs)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefScorer(t, ta, tb, specs)
	got, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "name", MinShared: 3, Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	requirePairsEqual(t, "minShared > tokens", got, refTokenBlocked(t, ref, "name", 3, 0))
	if len(got) != 0 {
		t.Fatalf("pairs found despite minShared exceeding token counts: %+v", got)
	}
}
