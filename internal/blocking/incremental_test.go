package blocking

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"humo/internal/records"
)

// incSpecs avoids KindCosine: cosine accumulates its dot product in
// token-id order, which is the one similarity where incremental and
// from-scratch dictionaries can differ in the last bit (documented on
// Incremental). The equivalence tests pin bit-identical behavior on the
// id-insensitive kinds.
func incSpecs() []AttributeSpec {
	return []AttributeSpec{
		{Attribute: "name", Kind: KindJaccard, Weight: 4},
		{Attribute: "description", Kind: KindJaccard, Weight: 2},
		{Attribute: "brand", Kind: KindJaroWinkler, Weight: 1},
	}
}

// tablePrefix copies the first n records of t into a fresh appendable table.
func tablePrefix(t *records.Table, n int) *records.Table {
	return &records.Table{
		Name:       t.Name,
		Attributes: t.Attributes,
		Records:    append([]records.Record(nil), t.Records[:n]...),
	}
}

// appendBatch grows dst by the records src[lo:hi].
func appendBatch(t *testing.T, dst *records.Table, src *records.Table, lo, hi int) {
	t.Helper()
	if _, err := dst.Append(src.Records[lo:hi]...); err != nil {
		t.Fatalf("append [%d:%d): %v", lo, hi, err)
	}
}

func sortPairs(pairs []Pair) {
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x].A != pairs[y].A {
			return pairs[x].A < pairs[y].A
		}
		return pairs[x].B < pairs[y].B
	})
}

// TestIncrementalEquivalence pins the streaming contract: building over a
// prefix of the tables and absorbing the rest through Append + Sync yields
// — as a union, at any worker count — exactly the pairs a from-scratch
// Generate produces over the final tables, bit-identical similarities
// included, for both delta-maintained modes.
func TestIncrementalEquivalence(t *testing.T) {
	fullA, fullB := synthTables(90, 110, 31)
	opts := map[string]Options{
		"token": {Mode: ModeToken, Attribute: "name", MinShared: 2, Threshold: 0.3},
		"lsh":   {Mode: ModeLSH, Attribute: "name", Rows: 2, Bands: 16, MinShared: 2, Threshold: 0.3},
	}

	// Reference: from-scratch generation over the final tables.
	want := map[string][]Pair{}
	for name, opt := range opts {
		s, err := NewScorer(fullA, fullB, incSpecs())
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := Generate(context.Background(), s, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = pairs
	}

	for name, opt := range opts {
		for _, workers := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				opt := opt
				opt.Workers = workers
				ta := tablePrefix(fullA, 50)
				tb := tablePrefix(fullB, 60)
				s, err := NewScorer(ta, tb, incSpecs())
				if err != nil {
					t.Fatal(err)
				}
				inc, got, err := NewIncremental(context.Background(), s, opt)
				if err != nil {
					t.Fatal(err)
				}

				// Three growth epochs: both tables, then A only, then B only.
				appendBatch(t, ta, fullA, 50, 70)
				appendBatch(t, tb, fullB, 60, 85)
				d1, err := inc.Sync(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				appendBatch(t, ta, fullA, 70, 90)
				d2, err := inc.Sync(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				appendBatch(t, tb, fullB, 85, 110)
				d3, err := inc.Sync(context.Background())
				if err != nil {
					t.Fatal(err)
				}

				// No growth: a Sync is a no-op.
				noop, err := inc.Sync(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if noop != nil {
					t.Fatalf("no-growth Sync returned %d pairs, want nil", len(noop))
				}

				got = append(got, d1...)
				got = append(got, d2...)
				got = append(got, d3...)
				sortPairs(got)
				requirePairsEqual(t, name, got, want[name])
			})
		}
	}
}

// retained copies the state an Incremental carries between epochs, for
// checking that a failed Sync writes none of it.
type retained struct {
	lenA, lenB, df, postA, postB int
	bands                        [][4][]uint64 // entA, tailA, entB, tailB
}

func snapshotRetained(inc *Incremental) retained {
	r := retained{lenA: inc.lenA, lenB: inc.lenB, df: len(inc.df), postA: len(inc.postA), postB: len(inc.postB)}
	for b := range inc.entA {
		r.bands = append(r.bands, [4][]uint64{
			slices.Clone(inc.entA[b]), slices.Clone(inc.tailA[b]),
			slices.Clone(inc.entB[b]), slices.Clone(inc.tailB[b]),
		})
	}
	return r
}

// TestSyncRetryAfterCancel pins Sync's retry contract: a Sync under a
// canceled context returns context.Canceled and leaves the retained state
// exactly as it was — lengths, the token mode's frequency and posting
// tables, every LSH band table — so a retry returns exactly the pairs an
// uninterrupted Sync over the same growth returns.
func TestSyncRetryAfterCancel(t *testing.T) {
	fullA, fullB := synthTables(90, 110, 35)
	for name, opt := range map[string]Options{
		"token": {Mode: ModeToken, Attribute: "name", MinShared: 2, Threshold: 0.3},
		"lsh":   {Mode: ModeLSH, Attribute: "name", Rows: 2, Bands: 16, MinShared: 2, Threshold: 0.3},
	} {
		t.Run(name, func(t *testing.T) {
			// grow builds an Incremental over a prefix and appends the
			// rest of both tables, leaving the growth unsynced.
			grow := func() *Incremental {
				ta, tb := tablePrefix(fullA, 50), tablePrefix(fullB, 60)
				s, err := NewScorer(ta, tb, incSpecs())
				if err != nil {
					t.Fatal(err)
				}
				inc, _, err := NewIncremental(context.Background(), s, opt)
				if err != nil {
					t.Fatal(err)
				}
				appendBatch(t, ta, fullA, 50, 90)
				appendBatch(t, tb, fullB, 60, 110)
				return inc
			}
			want, err := grow().Sync(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("fixture growth yields no delta pairs")
			}
			inc := grow()
			before := snapshotRetained(inc)
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := inc.Sync(canceled); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled Sync returned %v, want context.Canceled", err)
			}
			if after := snapshotRetained(inc); !reflect.DeepEqual(after, before) {
				t.Fatalf("canceled Sync changed the retained state:\n before %+v\n after  %+v", before, after)
			}
			got, err := inc.Sync(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			requirePairsEqual(t, name+" retry", got, want)
		})
	}
}

// TestIncrementalGrowthWithNoNewCandidates: table growth whose records are
// too dissimilar to pair with anything still syncs cleanly (empty delta,
// state advanced — a later real append must not re-emit or miss pairs).
func TestIncrementalGrowthWithNoNewCandidates(t *testing.T) {
	fullA, fullB := synthTables(40, 50, 33)
	ta := tablePrefix(fullA, 40)
	tb := tablePrefix(fullB, 40)
	s, err := NewScorer(ta, tb, incSpecs())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Mode: ModeToken, Attribute: "name", MinShared: 2, Threshold: 0.3}
	inc, _, err := NewIncremental(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ta.Append(records.Record{ID: 9000, EntityID: 9000, Values: []string{"zzz-unique-alpha", "zzz-unique-beta", "zzz"}}); err != nil {
		t.Fatal(err)
	}
	delta, err := inc.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 0 {
		t.Fatalf("dissimilar append produced %d pairs, want 0", len(delta))
	}
	// The dissimilar record is now part of the retained state; a real
	// append afterwards must still match from-scratch.
	appendBatch(t, tb, fullB, 40, 50)
	d2, err := inc.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Every delta pair must appear, bits and all, in the from-scratch set
	// over the final tables, and every from-scratch pair touching the new
	// B records must be in the delta.
	sFull, err := NewScorer(ta, tb, incSpecs())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Generate(context.Background(), sFull, opt)
	if err != nil {
		t.Fatal(err)
	}
	inWant := make(map[Pair]bool, len(want))
	for _, p := range want {
		inWant[p] = true
	}
	for _, p := range d2 {
		if !inWant[p] {
			t.Fatalf("delta pair %+v not in from-scratch set", p)
		}
	}
	inDelta := make(map[Pair]bool, len(d2))
	for _, p := range d2 {
		inDelta[p] = true
	}
	for _, p := range want {
		if p.B >= 40 && !inDelta[p] {
			t.Fatalf("from-scratch pair %+v touches appended records but is missing from the delta", p)
		}
	}
}

// TestIncrementalRejectsStaticModes: only token and lsh support delta
// maintenance.
func TestIncrementalRejectsStaticModes(t *testing.T) {
	ta, tb := synthTables(10, 10, 7)
	s, err := NewScorer(ta, tb, incSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeCross, ModeSorted} {
		if _, _, err := NewIncremental(context.Background(), s, Options{Mode: mode, Attribute: "name", Window: 4, Threshold: 0.3}); err == nil {
			t.Fatalf("mode %q: NewIncremental succeeded, want error", mode)
		}
	}
}

// TestBadOptionsRejectedAlike: Generate and NewIncremental refuse the same
// bad options with the same error, so a live workload cannot accept a
// configuration the static path rejects.
func TestBadOptionsRejectedAlike(t *testing.T) {
	ta, tb := synthTables(20, 20, 9)
	tbNoBrand := &records.Table{Name: tb.Name, Attributes: []string{"name", "description"}}
	for _, r := range tb.Records {
		tbNoBrand.Records = append(tbNoBrand.Records, records.Record{ID: r.ID, EntityID: r.EntityID, Values: r.Values[:2]})
	}
	s, err := NewScorer(ta, tbNoBrand, []AttributeSpec{
		{Attribute: "name", Kind: KindJaccard, Weight: 1},
		{Attribute: "description", Kind: KindJaccard, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	lsh := func(attr string, rows, bands int) Options {
		return Options{Mode: ModeLSH, Attribute: attr, Rows: rows, Bands: bands, Threshold: 0.3}
	}
	cases := []struct {
		name string
		opt  Options
		want error
	}{
		{"lsh rows 0", lsh("name", 0, 8), ErrBadSpec},
		{"lsh bands 0", lsh("name", 2, 0), ErrBadSpec},
		{"lsh rows*bands over the cap", lsh("name", 2, maxLSHHashes/2+1), ErrBadSpec},
		{"token minShared 0", Options{Mode: ModeToken, Attribute: "name", Threshold: 0.3}, ErrBadSpec},
		{"token attribute missing from B", Options{Mode: ModeToken, Attribute: "brand", MinShared: 1, Threshold: 0.3}, records.ErrBadTable},
		{"lsh attribute missing from B", lsh("brand", 2, 8), records.ErrBadTable},
	}
	for _, c := range cases {
		if _, err := Generate(context.Background(), s, c.opt); !errors.Is(err, c.want) {
			t.Errorf("%s: Generate err = %v, want %v", c.name, err, c.want)
		}
		if _, _, err := NewIncremental(context.Background(), s, c.opt); !errors.Is(err, c.want) {
			t.Errorf("%s: NewIncremental err = %v, want %v", c.name, err, c.want)
		}
	}
}
