package blocking

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"humo/internal/records"
)

// TestIncrementalOneRecordSyncs: hundreds of one-record Syncs, alternating
// tables, keep the union of the emitted pairs equal to a from-scratch
// Generate at every epoch, for both delta-maintained modes and at two
// worker counts. Unlike TestIncrementalEquivalence's few large batches,
// one-record appends leave the LSH band tails small next to their bases,
// so the tail is probed while it persists across many Syncs as well as
// right after a fold.
func TestIncrementalOneRecordSyncs(t *testing.T) {
	const baseA, baseB, appends = 120, 130, 320
	fullA, fullB := synthTables(baseA+appends/2, baseB+appends/2, 41)
	opts := map[string]Options{
		"token": {Mode: ModeToken, Attribute: "name", MinShared: 2, Threshold: 0.3},
		"lsh":   {Mode: ModeLSH, Attribute: "name", Rows: 2, Bands: 16, MinShared: 2, Threshold: 0.3},
	}
	// From-scratch reference per epoch: appends alternate A, B, A, ...
	grown := func(e int) (int, int) { return baseA + (e+1)/2, baseB + e/2 }
	want := make(map[string][][]Pair, len(opts))
	for name, opt := range opts {
		for e := 0; e <= appends; e++ {
			na, nb := grown(e)
			s, err := NewScorer(tablePrefix(fullA, na), tablePrefix(fullB, nb), incSpecs())
			if err != nil {
				t.Fatal(err)
			}
			pairs, err := Generate(context.Background(), s, opt)
			if err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], pairs)
		}
	}
	for name, opt := range opts {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				opt := opt
				opt.Workers = workers
				ta, tb := tablePrefix(fullA, baseA), tablePrefix(fullB, baseB)
				s, err := NewScorer(ta, tb, incSpecs())
				if err != nil {
					t.Fatal(err)
				}
				inc, got, err := NewIncremental(context.Background(), s, opt)
				if err != nil {
					t.Fatal(err)
				}
				requirePairsEqual(t, "epoch 0", got, want[name][0])
				tailKept, folds, nonEmpty := 0, 0, 0
				for e := 1; e <= appends; e++ {
					na, nb := grown(e)
					if na > ta.Len() {
						appendBatch(t, ta, fullA, na-1, na)
					} else {
						appendBatch(t, tb, fullB, nb-1, nb)
					}
					before := inc.tailSizes()
					delta, err := inc.Sync(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					after := inc.tailSizes()
					if after > 0 {
						tailKept++
					}
					if after < before { // some band merged its tail into the base
						folds++
					}
					if len(delta) > 0 {
						nonEmpty++
					}
					got = append(got, delta...)
					sortPairs(got)
					requirePairsEqual(t, fmt.Sprintf("epoch %d", e), got, want[name][e])
				}
				if nonEmpty < appends/5 {
					t.Fatalf("only %d of %d Syncs emitted pairs; the fixture is too sparse to test anything", nonEmpty, appends)
				}
				if opt.Mode == ModeLSH && (tailKept < appends/2 || folds == 0) {
					t.Fatalf("band tails persisted after %d Syncs and folded after %d; the test needs both paths", tailKept, folds)
				}
			})
		}
	}
}

// tailSizes totals the entries held in the LSH band tails (0 in ModeToken).
func (inc *Incremental) tailSizes() int {
	n := 0
	for b := range inc.tailA {
		n += len(inc.tailA[b]) + len(inc.tailB[b])
	}
	return n
}

// rebuildBlockTokens is the scorer's original full rebuild of the blocking
// token sets: every record of every shared attribute re-interned (ids of
// known tokens are stable, so only new ones are added), in the order a
// from-scratch build uses. It is the reference the delta extension must
// reproduce.
func rebuildBlockTokens(s *Scorer) {
	s.blockTok = make(map[string]blockCols, len(s.ta.Attributes))
	for _, name := range s.ta.Attributes {
		colA, err := s.ta.AttributeIndex(name)
		if err != nil {
			continue
		}
		colB, err := s.tb.AttributeIndex(name)
		if err != nil {
			continue
		}
		s.blockTok[name] = blockCols{
			a: rebuildColumn(s, s.ta, colA, s.repA, func(k int) bool { return s.colA[k] == colA }),
			b: rebuildColumn(s, s.tb, colB, s.repB, func(k int) bool { return s.colB[k] == colB }),
		}
	}
}

func rebuildColumn(s *Scorer, t *records.Table, col int, reps []colRep, covers func(k int) bool) [][]int32 {
	for k, spec := range s.specs {
		if !covers(k) {
			continue
		}
		switch spec.Kind {
		case KindJaccard:
			return reps[k].tokens
		case KindCosine:
			toks := make([][]int32, len(t.Records))
			for i := range reps[k].tf {
				toks[i] = reps[k].tf[i].IDs
			}
			return toks
		}
	}
	toks := make([][]int32, len(t.Records))
	for i, r := range t.Records {
		toks[i] = s.dict.InternTokens(r.Values[col])
	}
	return toks
}

// TestScorerExtendMatchesRebuild: extending a scorer over appended records
// interns only the new records yet ends with the same dictionary — same
// size, same token behind every id — and the same block-token ids as the
// full rebuild, for a Jaccard-covered, a Cosine-covered and an uncovered
// shared attribute.
func TestScorerExtendMatchesRebuild(t *testing.T) {
	specs := []AttributeSpec{
		{Attribute: "name", Kind: KindJaccard, Weight: 3},
		{Attribute: "description", Kind: KindCosine, Weight: 2},
		{Attribute: "brand", Kind: KindJaroWinkler, Weight: 1}, // brand's block tokens are interned apart
	}
	fullA, fullB := synthTables(90, 100, 43)
	build := func() (*Scorer, *records.Table, *records.Table) {
		ta, tb := tablePrefix(fullA, 40), tablePrefix(fullB, 45)
		s, err := NewScorer(ta, tb, specs)
		if err != nil {
			t.Fatal(err)
		}
		return s, ta, tb
	}
	delta, dta, dtb := build()
	ref, rta, rtb := build()
	// novel is a record whose every attribute carries tokens no other
	// record has, so each step interns fresh ids on both sides of every
	// attribute — including brand, which only the block-token pass interns.
	novel := func(side string, step int) records.Record {
		id := 1000000 + step
		tok := fmt.Sprintf("%s%d", side, step)
		return records.Record{ID: id, EntityID: id, Values: []string{"n" + tok, "d" + tok + " m" + tok, "b" + tok + " x" + tok}}
	}
	steps := [][4]int{{40, 41, 45, 45}, {41, 41, 45, 60}, {41, 70, 60, 61}, {70, 90, 61, 100}}
	for k, st := range steps {
		appendBatch(t, dta, fullA, st[0], st[1])
		appendBatch(t, rta, fullA, st[0], st[1])
		appendBatch(t, dtb, fullB, st[2], st[3])
		appendBatch(t, rtb, fullB, st[2], st[3])
		for _, tb := range []*records.Table{dta, rta, dtb, rtb} {
			side := "a"
			if tb == dtb || tb == rtb {
				side = "b"
			}
			if _, err := tb.Append(novel(side, k)); err != nil {
				t.Fatal(err)
			}
		}
		delta.extend()
		for k, spec := range ref.specs {
			ref.extendRep(ref.ta, ref.colA[k], spec.Kind, &ref.repA[k])
			ref.extendRep(ref.tb, ref.colB[k], spec.Kind, &ref.repB[k])
		}
		rebuildBlockTokens(ref)

		if delta.Dict().Len() != ref.Dict().Len() {
			t.Fatalf("after A[%d:%d] B[%d:%d]: dictionary has %d tokens, rebuild %d", st[0], st[1], st[2], st[3], delta.Dict().Len(), ref.Dict().Len())
		}
		for id := 0; id < ref.Dict().Len(); id++ {
			if got, want := delta.Dict().Token(int32(id)), ref.Dict().Token(int32(id)); got != want {
				t.Fatalf("token id %d is %q, rebuild has %q", id, got, want)
			}
		}
		for _, attr := range []string{"name", "description", "brand"} {
			gotA, gotB, err := delta.blockTokens(attr)
			if err != nil {
				t.Fatal(err)
			}
			wantA, wantB, err := ref.blockTokens(attr)
			if err != nil {
				t.Fatal(err)
			}
			for side, pair := range [2][2][][]int32{{gotA, wantA}, {gotB, wantB}} {
				got, want := pair[0], pair[1]
				if len(got) != len(want) {
					t.Fatalf("%s side %d: %d records, rebuild %d", attr, side, len(got), len(want))
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("%s side %d record %d: tokens %v, rebuild %v", attr, side, i, got[i], want[i])
					}
				}
			}
		}
	}
	// A scorer built from scratch over the final tables interns the same
	// vocabulary (ids may be assigned in another order).
	scratch, err := NewScorer(dta, dtb, specs)
	if err != nil {
		t.Fatal(err)
	}
	if scratch.Dict().Len() != delta.Dict().Len() {
		t.Fatalf("from-scratch dictionary has %d tokens, extended %d", scratch.Dict().Len(), delta.Dict().Len())
	}
}
