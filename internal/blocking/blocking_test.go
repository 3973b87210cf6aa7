package blocking

import (
	"context"
	"errors"
	"math"
	"testing"

	"humo/internal/records"
)

func twoTables() (*records.Table, *records.Table) {
	a := &records.Table{
		Name:       "a",
		Attributes: []string{"title", "venue"},
		Records: []records.Record{
			{ID: 0, EntityID: 1, Values: []string{"entity resolution framework", "icde"}},
			{ID: 1, EntityID: 2, Values: []string{"stream processing engine", "vldb"}},
			{ID: 2, EntityID: 3, Values: []string{"graph traversal index", "sigmod"}},
		},
	}
	b := &records.Table{
		Name:       "b",
		Attributes: []string{"title", "venue"},
		Records: []records.Record{
			{ID: 0, EntityID: 1, Values: []string{"entity resolution framework", "icde"}},
			{ID: 1, EntityID: 4, Values: []string{"entirely unrelated paper", "www"}},
			{ID: 2, EntityID: 2, Values: []string{"stream processing system", "vldb"}},
		},
	}
	return a, b
}

func defaultSpecs() []AttributeSpec {
	return []AttributeSpec{
		{Attribute: "title", Kind: KindJaccard, Weight: 3},
		{Attribute: "venue", Kind: KindJaroWinkler, Weight: 1},
	}
}

func TestNewScorerValidation(t *testing.T) {
	a, b := twoTables()
	if _, err := NewScorer(a, b, nil); !errors.Is(err, ErrBadSpec) {
		t.Error("no specs should fail")
	}
	if _, err := NewScorer(a, b, []AttributeSpec{{Attribute: "missing", Kind: KindJaccard, Weight: 1}}); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := NewScorer(a, b, []AttributeSpec{{Attribute: "title", Kind: KindJaccard, Weight: -1}}); !errors.Is(err, ErrBadSpec) {
		t.Error("negative weight should fail")
	}
	if _, err := NewScorer(a, b, []AttributeSpec{{Attribute: "title", Kind: KindJaccard, Weight: 0}}); !errors.Is(err, ErrBadSpec) {
		t.Error("zero weight sum should fail")
	}
	bad := &records.Table{Name: "bad"}
	if _, err := NewScorer(bad, b, defaultSpecs()); err == nil {
		t.Error("invalid table should fail")
	}
}

func TestScoreIdenticalAndDisjoint(t *testing.T) {
	a, b := twoTables()
	s, err := NewScorer(a, b, defaultSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Score(0, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical records score %v, want 1", got)
	}
	if got := s.Score(2, 1); got > 0.5 {
		t.Errorf("unrelated records score %v, too high", got)
	}
	feats := s.Features(0, 2)
	if len(feats) != 2 {
		t.Fatalf("feature dim %d", len(feats))
	}
	for _, f := range feats {
		if f < 0 || f > 1 {
			t.Errorf("feature %v out of range", f)
		}
	}
}

func TestAllKindsScore(t *testing.T) {
	a, b := twoTables()
	for _, kind := range []Kind{KindJaccard, KindJaroWinkler, KindLevenshtein, KindCosine} {
		s, err := NewScorer(a, b, []AttributeSpec{{Attribute: "title", Kind: kind, Weight: 1}})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got := s.Score(0, 0); math.Abs(got-1) > 1e-12 {
			t.Errorf("%v: identical score %v", kind, got)
		}
		if got := s.Score(0, 1); got < 0 || got >= 1 {
			t.Errorf("%v: different score %v out of [0,1)", kind, got)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindJaccard: "jaccard", KindJaroWinkler: "jarowinkler",
		KindLevenshtein: "levenshtein", KindCosine: "cosine",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind %d String = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown kind should format as Kind(n)")
	}
}

func TestCrossProduct(t *testing.T) {
	a, b := twoTables()
	s, err := NewScorer(a, b, defaultSpecs())
	if err != nil {
		t.Fatal(err)
	}
	all := mustGenerate(t, s, Options{Threshold: 0})
	if len(all) != 9 {
		t.Fatalf("threshold 0 should keep all 9 pairs, got %d", len(all))
	}
	some := mustGenerate(t, s, Options{Threshold: 0.5})
	if len(some) >= 9 || len(some) == 0 {
		t.Fatalf("threshold 0.5 kept %d pairs", len(some))
	}
	for _, p := range some {
		if p.Sim < 0.5 {
			t.Errorf("pair below threshold kept: %+v", p)
		}
	}
}

func TestTokenBlocked(t *testing.T) {
	a, b := twoTables()
	s, err := NewScorer(a, b, defaultSpecs())
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "title", MinShared: 2, Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Pairs sharing >= 2 title tokens: (0,0) [3 shared], (1,2) [2 shared].
	if len(pairs) != 2 {
		t.Fatalf("TokenBlocked found %d pairs, want 2: %+v", len(pairs), pairs)
	}
	found := map[[2]int]bool{}
	for _, p := range pairs {
		found[[2]int{p.A, p.B}] = true
	}
	if !found[[2]int{0, 0}] || !found[[2]int{1, 2}] {
		t.Errorf("TokenBlocked pairs wrong: %+v", pairs)
	}
	// Candidate generation must agree with cross product + shared-token
	// post-filter on the scores it emits.
	for _, p := range pairs {
		if want := s.Score(p.A, p.B); p.Sim != want {
			t.Errorf("pair (%d,%d) sim %v, want %v", p.A, p.B, p.Sim, want)
		}
	}
	if _, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "title", MinShared: 0, Threshold: 0}); !errors.Is(err, ErrBadSpec) {
		t.Error("minShared=0 should fail")
	}
	if _, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "missing", MinShared: 1, Threshold: 0}); err == nil {
		t.Error("missing attribute should fail")
	}
}

func TestTokenBlockedSubsetOfCrossProduct(t *testing.T) {
	a, b := twoTables()
	s, _ := NewScorer(a, b, defaultSpecs())
	cross := mustGenerate(t, s, Options{Threshold: 0.3})
	blocked, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "title", MinShared: 1, Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	inCross := map[[2]int]float64{}
	for _, p := range cross {
		inCross[[2]int{p.A, p.B}] = p.Sim
	}
	for _, p := range blocked {
		if sim, ok := inCross[[2]int{p.A, p.B}]; !ok || sim != p.Sim {
			t.Errorf("blocked pair (%d,%d) not consistent with cross product", p.A, p.B)
		}
	}
}

func TestSortedNeighborhood(t *testing.T) {
	a, b := twoTables()
	s, _ := NewScorer(a, b, defaultSpecs())
	pairs, err := Generate(context.Background(), s, Options{Mode: ModeSorted, Attribute: "title", Window: 3, Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	// The identical titles sort adjacently, so (0,0) must be found.
	found := false
	for _, p := range pairs {
		if p.A == 0 && p.B == 0 {
			found = true
		}
	}
	if !found {
		t.Error("sorted neighborhood missed the identical pair")
	}
	// No duplicates.
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		key := [2]int{p.A, p.B}
		if seen[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		seen[key] = true
	}
	if _, err := Generate(context.Background(), s, Options{Mode: ModeSorted, Attribute: "title", Window: 1, Threshold: 0}); !errors.Is(err, ErrBadSpec) {
		t.Error("window < 2 should fail")
	}
	if _, err := Generate(context.Background(), s, Options{Mode: ModeSorted, Attribute: "missing", Window: 3, Threshold: 0}); err == nil {
		t.Error("missing attribute should fail")
	}
}

func TestDistinctValueSpecs(t *testing.T) {
	a, b := twoTables()
	specs, err := DistinctValueSpecs(a, b, []AttributeSpec{
		{Attribute: "title", Kind: KindJaccard},
		{Attribute: "venue", Kind: KindJaroWinkler},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Titles: 5 distinct across both tables; venues: 4 distinct.
	if specs[0].Weight != 5 {
		t.Errorf("title weight = %v, want 5", specs[0].Weight)
	}
	if specs[1].Weight != 4 {
		t.Errorf("venue weight = %v, want 4", specs[1].Weight)
	}
	if _, err := DistinctValueSpecs(a, b, []AttributeSpec{{Attribute: "nope"}}); err == nil {
		t.Error("missing attribute should fail")
	}
}

// mustGenerate is Generate for cases that cannot fail.
func mustGenerate(tb testing.TB, s *Scorer, opt Options) []Pair {
	tb.Helper()
	pairs, err := Generate(context.Background(), s, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return pairs
}
