package humo_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"humo"
)

// genTables builds two deterministic product-catalog-like tables: half of
// A's entities reappear in B as corrupted copies, the rest of B is filler.
// Vocabulary scales with n the way real catalogs do, so token blocking has
// realistic selectivity.
func genTables(na, nb int, seed int64) (*humo.Table, *humo.Table) {
	rng := rand.New(rand.NewSource(seed))
	vocabN := na
	if vocabN < 500 {
		vocabN = 500
	}
	vocab := make([]string, vocabN)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%05d", i)
	}
	word := func(r *rand.Rand) string {
		// Mild skew: a fifth of draws come from a small hot set, the rest
		// spread over the whole vocabulary.
		if r.Float64() < 0.2 {
			return vocab[r.Intn(50)]
		}
		return vocab[r.Intn(len(vocab))]
	}
	title := func(r *rand.Rand) []string {
		n := 4 + r.Intn(4)
		out := make([]string, n)
		for i := range out {
			out[i] = word(r)
		}
		return out
	}
	corrupt := func(r *rand.Rand, words []string) []string {
		out := append([]string(nil), words...)
		if r.Float64() < 0.6 {
			out[r.Intn(len(out))] = word(r)
		}
		if r.Float64() < 0.3 {
			out = append(out, word(r))
		}
		return out
	}
	attrs := []string{"name", "description"}
	rec := func(id, entity int, words []string, r *rand.Rand) humo.Record {
		return humo.Record{
			ID:       id,
			EntityID: entity,
			Values: []string{
				strings.Join(words, " "),
				strings.Join(append(append([]string{}, words...), word(r), word(r)), " "),
			},
		}
	}
	ta := &humo.Table{Name: "a", Attributes: attrs}
	tb := &humo.Table{Name: "b", Attributes: attrs}
	shared := na / 2
	for i := 0; i < na; i++ {
		words := title(rng)
		ta.Records = append(ta.Records, rec(i, i, words, rng))
		if i < shared && len(tb.Records) < nb {
			tb.Records = append(tb.Records, rec(len(tb.Records), i, corrupt(rng, words), rng))
		}
	}
	for len(tb.Records) < nb {
		tb.Records = append(tb.Records, rec(len(tb.Records), na+len(tb.Records), title(rng), rng))
	}
	return ta, tb
}

func genConfig() humo.GenConfig {
	return humo.GenConfig{
		Specs: []humo.AttributeSpec{
			{Attribute: "name", Kind: humo.KindJaccard},
			{Attribute: "description", Kind: humo.KindCosine},
		},
		Block:     humo.BlockToken,
		MinShared: 2,
		Threshold: 0.3,
	}
}

func TestGenerateWorkload(t *testing.T) {
	ta, tb := genTables(300, 300, 1)
	g, err := humo.GenerateWorkload(context.Background(), ta, tb, genConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Candidates) == 0 || g.Workload.Len() != len(g.Candidates) {
		t.Fatalf("candidates %d, workload %d", len(g.Candidates), g.Workload.Len())
	}
	if g.Fingerprint == "" || g.Fingerprint != humo.WorkloadFingerprint(g.Workload) {
		t.Fatalf("fingerprint %q inconsistent", g.Fingerprint)
	}
	for i, c := range g.Candidates {
		if c.Sim < 0.3 {
			t.Fatalf("candidate %d below threshold: %+v", i, c)
		}
		if c.A < 0 || c.A >= ta.Len() || c.B < 0 || c.B >= tb.Len() {
			t.Fatalf("candidate %d out of range: %+v", i, c)
		}
	}
	// The matched half of the tables must actually be found.
	matches := 0
	for _, c := range g.Candidates {
		if ta.Records[c.A].EntityID == tb.Records[c.B].EntityID {
			matches++
		}
	}
	if matches < 100 {
		t.Fatalf("only %d true matches among candidates", matches)
	}
}

// TestGenerateWorkloadDeterminism pins the public determinism guarantee:
// identical fingerprints and candidates at any worker count, and across
// repeated runs.
func TestGenerateWorkloadDeterminism(t *testing.T) {
	ta, tb := genTables(200, 250, 2)
	cfg := genConfig()
	cfg.Workers = 1
	want, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 0} {
		cfg.Workers = workers
		got, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint != want.Fingerprint {
			t.Fatalf("workers=%d: fingerprint %s, want %s", workers, got.Fingerprint, want.Fingerprint)
		}
		if len(got.Candidates) != len(want.Candidates) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(got.Candidates), len(want.Candidates))
		}
		for i := range got.Candidates {
			if got.Candidates[i] != want.Candidates[i] {
				t.Fatalf("workers=%d: candidate %d = %+v, want %+v", workers, i, got.Candidates[i], want.Candidates[i])
			}
		}
	}
}

// TestGenerateWorkloadModes exercises all three strategies through the
// public surface; token candidates are a subset of cross candidates.
func TestGenerateWorkloadModes(t *testing.T) {
	ta, tb := genTables(120, 120, 3)
	cfg := genConfig()

	cfg.Block = humo.BlockCross
	cross, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inCross := make(map[[2]int]float64, len(cross.Candidates))
	for _, c := range cross.Candidates {
		inCross[[2]int{c.A, c.B}] = c.Sim
	}

	cfg.Block = humo.BlockToken
	tok, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tok.Candidates {
		if sim, ok := inCross[[2]int{c.A, c.B}]; !ok || sim != c.Sim {
			t.Fatalf("token candidate %+v not bit-identical in cross output", c)
		}
	}

	cfg.Block = humo.BlockSorted
	cfg.Window = 8
	if _, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg); err != nil {
		t.Fatal(err)
	}

	cfg.Block = humo.BlockLSH // default Rows/Bands
	lsh, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lsh.Candidates) == 0 {
		t.Fatal("no lsh candidates")
	}
	for _, c := range lsh.Candidates {
		if sim, ok := inCross[[2]int{c.A, c.B}]; !ok || sim != c.Sim {
			t.Fatalf("lsh candidate %+v not bit-identical in cross output", c)
		}
	}
}

// TestGenerateWorkloadLSHDeterminism pins BlockLSH's public determinism
// guarantee: identical fingerprints and candidates at any worker count and
// across runs — the MinHash seeds are fixed, so so are the sketches.
func TestGenerateWorkloadLSHDeterminism(t *testing.T) {
	ta, tb := genTables(250, 200, 5)
	cfg := genConfig()
	cfg.Block = humo.BlockLSH
	cfg.Workers = 1
	want, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	for _, workers := range []int{2, 3, 7, 0, 1} {
		cfg.Workers = workers
		got, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint != want.Fingerprint {
			t.Fatalf("workers=%d: fingerprint %s, want %s", workers, got.Fingerprint, want.Fingerprint)
		}
		if len(got.Candidates) != len(want.Candidates) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(got.Candidates), len(want.Candidates))
		}
		for i := range got.Candidates {
			if got.Candidates[i] != want.Candidates[i] {
				t.Fatalf("workers=%d: candidate %d = %+v, want %+v", workers, i, got.Candidates[i], want.Candidates[i])
			}
		}
	}
}

// TestGenerateWorkloadLSHRecall pins the banded-sketch recall on the seeded
// fixture: at the default Rows/Bands, BlockLSH recovers at least 95% of the
// BlockToken baseline (measured: 98.3%). Both runs are deterministic, so
// the measured recall is a constant of the fixture, not a flaky sample.
func TestGenerateWorkloadLSHRecall(t *testing.T) {
	ta, tb := genTables(5000, 5000, 42)
	cfg := genConfig()
	tok, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inTok := make(map[[2]int]bool, len(tok.Candidates))
	for _, c := range tok.Candidates {
		inTok[[2]int{c.A, c.B}] = true
	}
	cfg.Block = humo.BlockLSH // default Rows/Bands
	lsh, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for _, c := range lsh.Candidates {
		if inTok[[2]int{c.A, c.B}] {
			hit++
		}
	}
	recall := float64(hit) / float64(len(tok.Candidates))
	if recall < 0.95 {
		t.Fatalf("lsh recall %.4f of %d token candidates, want >= 0.95", recall, len(tok.Candidates))
	}
}

// TestBenchFixtureLSHRecall pins recall on the long-text benchmark fixture
// at the benchmark's own Rows/Bands: every match is found (measured recall
// 1.0 — long titles put even weak matches far up the banding S-curve), so
// the >= 10x of BenchmarkBlocked100k is not bought with misses.
func TestBenchFixtureLSHRecall(t *testing.T) {
	ta, tb := benchTables(20000, 20000, 42)
	tok, err := humo.GenerateWorkload(context.Background(), ta, tb, benchConfig(humo.BlockToken))
	if err != nil {
		t.Fatal(err)
	}
	inTok := make(map[[2]int]bool, len(tok.Candidates))
	for _, c := range tok.Candidates {
		inTok[[2]int{c.A, c.B}] = true
	}
	lsh, err := humo.GenerateWorkload(context.Background(), ta, tb, benchConfig(humo.BlockLSH))
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for _, c := range lsh.Candidates {
		if inTok[[2]int{c.A, c.B}] {
			hit++
		}
	}
	recall := float64(hit) / float64(len(tok.Candidates))
	if recall < 0.95 {
		t.Fatalf("lsh recall %.4f of %d token candidates, want >= 0.95", recall, len(tok.Candidates))
	}
}

// TestGenerateWorkloadAutoWeights: all-zero weights select the paper's
// distinct-value rule; explicit weights are used as given.
func TestGenerateWorkloadAutoWeights(t *testing.T) {
	ta, tb := genTables(80, 80, 4)
	cfg := genConfig()
	cfg.Block = humo.BlockCross
	cfg.Threshold = 0.2
	auto, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count distinct values per attribute, the rule's explicit form.
	distinct := func(col int) float64 {
		seen := map[string]struct{}{}
		for _, r := range ta.Records {
			seen[r.Values[col]] = struct{}{}
		}
		for _, r := range tb.Records {
			seen[r.Values[col]] = struct{}{}
		}
		return float64(len(seen))
	}
	cfg.Specs = []humo.AttributeSpec{
		{Attribute: "name", Kind: humo.KindJaccard, Weight: distinct(0)},
		{Attribute: "description", Kind: humo.KindCosine, Weight: distinct(1)},
	}
	explicit, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Fingerprint != explicit.Fingerprint {
		t.Fatalf("auto weights fingerprint %s != explicit distinct-value weights %s", auto.Fingerprint, explicit.Fingerprint)
	}

	// Uneven explicit weights change the scores — they are not ignored.
	cfg.Specs[0].Weight = 1
	cfg.Specs[1].Weight = 100
	uneven, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uneven.Fingerprint == auto.Fingerprint {
		t.Fatal("explicit uneven weights were ignored")
	}
}

func TestGenerateWorkloadErrors(t *testing.T) {
	ta, tb := genTables(30, 30, 5)
	if _, err := humo.GenerateWorkload(context.Background(), ta, tb, humo.GenConfig{}); err == nil {
		t.Error("missing specs should fail")
	}
	cfg := genConfig()
	cfg.Threshold = 1.01 // nothing can reach it
	if _, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg); !errors.Is(err, humo.ErrNoCandidates) {
		t.Errorf("impossible threshold: err = %v, want ErrNoCandidates", err)
	}
	cfg = genConfig()
	cfg.Specs[0].Attribute = "missing"
	if _, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg); err == nil {
		t.Error("unknown attribute should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := humo.GenerateWorkload(ctx, ta, tb, genConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v", err)
	}
}

// TestGenerateWorkloadSubsetSize: the knob reaches the built workload.
func TestGenerateWorkloadSubsetSize(t *testing.T) {
	ta, tb := genTables(200, 200, 6)
	cfg := genConfig()
	cfg.SubsetSize = 50
	g, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Workload.SubsetSize(); got != 50 {
		t.Fatalf("subset size %d, want 50", got)
	}
}

// TestGenerateWorkloadEndToEnd drives a generated workload through a full
// resolution, closing the loop the public API promises.
func TestGenerateWorkloadEndToEnd(t *testing.T) {
	ta, tb := genTables(250, 250, 7)
	cfg := genConfig()
	cfg.SubsetSize = 40
	g, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[int]bool, len(g.Candidates))
	for i, c := range g.Candidates {
		truth[i] = ta.Records[c.A].EntityID == tb.Records[c.B].EntityID
	}
	o := humo.NewSimulatedOracle(truth)
	sol, err := humo.Base(g.Workload, humo.Requirement{Alpha: 0.8, Beta: 0.8, Theta: 0.8}, o, humo.BaseConfig{StartSubset: -1})
	if err != nil {
		t.Fatal(err)
	}
	labels := sol.Resolve(g.Workload, o)
	if len(labels) != g.Workload.Len() {
		t.Fatalf("resolution labeled %d of %d pairs", len(labels), g.Workload.Len())
	}
}

// TestIncrementalWorkloadEpochs pins IncrementalWorkload's epoch contract
// in both delta-maintained modes: epoch 0 is GenerateWorkload's workload, a
// Sync without table growth returns nil and adds no epoch, growth that
// pairs with nothing returns an empty non-nil delta and still adds an
// epoch, and every epoch's candidate list is a prefix of every later one's.
func TestIncrementalWorkloadEpochs(t *testing.T) {
	ctx := context.Background()
	fullA, fullB := genTables(200, 240, 5)
	for _, block := range []humo.BlockingMode{humo.BlockToken, humo.BlockLSH} {
		t.Run(string(block), func(t *testing.T) {
			cfg := genConfig()
			cfg.Block = block
			ta := &humo.Table{Name: fullA.Name, Attributes: fullA.Attributes, Records: slices.Clone(fullA.Records[:150])}
			tb := &humo.Table{Name: fullB.Name, Attributes: fullB.Attributes, Records: slices.Clone(fullB.Records[:180])}
			want, err := humo.GenerateWorkload(ctx, ta, tb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			iw, err := humo.NewIncrementalWorkload(ctx, ta, tb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if iw.Fingerprint() != want.Fingerprint || !slices.Equal(iw.Generated().Candidates, want.Candidates) {
				t.Fatalf("epoch 0: fingerprint %s, %d candidates; GenerateWorkload has %s, %d",
					iw.Fingerprint(), len(iw.Generated().Candidates), want.Fingerprint, len(want.Candidates))
			}
			epochs := [][]humo.Candidate{slices.Clone(iw.Generated().Candidates)}

			if delta, err := iw.Sync(ctx); err != nil || delta != nil || iw.Epoch() != 0 {
				t.Fatalf("Sync without growth: delta %v, err %v, epoch %d; want nil, nil, 0", delta, err, iw.Epoch())
			}

			// A one-token record is below both modes' size floor.
			if _, err := ta.Append(humo.Record{ID: 9000, EntityID: 9000, Values: []string{"zzlone", "zzlone"}}); err != nil {
				t.Fatal(err)
			}
			delta, err := iw.Sync(ctx)
			if err != nil || delta == nil || len(delta) != 0 || iw.Epoch() != 1 {
				t.Fatalf("growth without candidates: delta %v (nil %t), err %v, epoch %d; want empty non-nil, nil, 1",
					delta, delta == nil, err, iw.Epoch())
			}
			epochs = append(epochs, slices.Clone(iw.Generated().Candidates))

			if _, err := ta.Append(fullA.Records[150:]...); err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Append(fullB.Records[180:]...); err != nil {
				t.Fatal(err)
			}
			if delta, err = iw.Sync(ctx); err != nil || len(delta) == 0 || iw.Epoch() != 2 {
				t.Fatalf("growth: %d delta pairs, err %v, epoch %d; want some, nil, 2", len(delta), err, iw.Epoch())
			}
			epochs = append(epochs, slices.Clone(iw.Generated().Candidates))

			final, bounds, chain := iw.Generated().Candidates, iw.Boundaries(), iw.Chain()
			if len(bounds) != len(epochs) || len(chain) != len(epochs) || chain[0] != want.Fingerprint || chain[2] != iw.Fingerprint() {
				t.Fatalf("bounds %v, chain %v over %d epochs", bounds, chain, len(epochs))
			}
			for e, cands := range epochs {
				if bounds[e] != len(cands) || !slices.Equal(final[:bounds[e]], cands) {
					t.Fatalf("epoch %d: boundary %d, %d candidates then; not a prefix of the final list", e, bounds[e], len(cands))
				}
			}
		})
	}
}

// TestGenerateWorkloadDSQuarterPinned pins the candidate set of
// BenchmarkGenerateWorkloadDS's recipe (LSH 2×32 on DS-like titles): the
// count and the workload fingerprint, so a faster blocking path has to
// produce the same candidates with the same similarity bits.
func TestGenerateWorkloadDSQuarterPinned(t *testing.T) {
	ta, tb, gen := dsQuarterRecipe(t)
	g, err := humo.GenerateWorkload(context.Background(), ta, tb, gen)
	if err != nil {
		t.Fatal(err)
	}
	const wantN, wantFP = 3606, "4beabd4a02a4f502"
	if len(g.Candidates) != wantN || g.Fingerprint != wantFP {
		t.Fatalf("%d candidates, fingerprint %s; want %d, %s", len(g.Candidates), g.Fingerprint, wantN, wantFP)
	}
}
