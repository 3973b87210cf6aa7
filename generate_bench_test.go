package humo_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"humo"
	"humo/internal/blocking"
)

// benchTables builds bibliographic-style tables for the large-scale
// blocking benchmarks: 10-18-token titles with ~10% of draws from a
// 50-token hot set (stopword-like skew), half of A reappearing in B with up
// to two token corruptions and one insertion. The long-text regime is where
// the inverted-index join degrades — every pair sharing one hot token costs
// a posting scan — while banded sketches only ever touch pairs sharing
// Rows tokens.
func benchTables(na, nb int, seed int64) (*humo.Table, *humo.Table) {
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
		if r.Float64() < 0.1 {
			return vocab[r.Intn(50)]
		}
		return vocab[r.Intn(len(vocab))]
	}
	title := func(r *rand.Rand) []string {
		n := 10 + r.Intn(9)
		out := make([]string, n)
		for i := range out {
			out[i] = word(r)
		}
		return out
	}
	corrupt := func(r *rand.Rand, words []string) []string {
		out := append([]string(nil), words...)
		for k := 0; k < 2; k++ {
			if r.Float64() < 0.6 {
				out[r.Intn(len(out))] = word(r)
			}
		}
		if r.Float64() < 0.3 {
			out = append(out, word(r))
		}
		return out
	}
	attrs := []string{"title"}
	rec := func(id, entity int, words []string) humo.Record {
		return humo.Record{ID: id, EntityID: entity, Values: []string{strings.Join(words, " ")}}
	}
	ta := &humo.Table{Name: "a", Attributes: attrs}
	tb := &humo.Table{Name: "b", Attributes: attrs}
	shared := na / 2
	for i := 0; i < na; i++ {
		words := title(rng)
		ta.Records = append(ta.Records, rec(i, i, words))
		if i < shared && len(tb.Records) < nb {
			tb.Records = append(tb.Records, rec(len(tb.Records), i, corrupt(rng, words)))
		}
	}
	for len(tb.Records) < nb {
		tb.Records = append(tb.Records, rec(len(tb.Records), na+len(tb.Records), title(rng)))
	}
	return ta, tb
}

func benchConfig(block humo.BlockingMode) humo.GenConfig {
	// Rows/Bands below the 2/32 defaults: on 10-18-token titles even weak
	// matches share most of their tokens, so 16 bands already give full
	// recall (pinned by TestBenchFixtureLSHRecall) at half the sketch work.
	return humo.GenConfig{
		Specs:     []humo.AttributeSpec{{Attribute: "title", Kind: humo.KindJaccard}},
		Block:     block,
		MinShared: 3,
		Rows:      2,
		Bands:     16,
		Threshold: 0.3,
	}
}

// BenchmarkGenerateWorkload is the CI bench gate's anchor: the public
// candidate-generation path (interned kernels, prefix-filtered inverted
// index or banded MinHash sketches, sharded scoring) at three scales per
// mode. The gate fails a PR that regresses it by more than 20% against the
// main baseline; see the bench job in .github/workflows/ci.yml.
//
// The guarded entries compare the two scalable modes head-to-head at
// 100k×100k (HUMO_BENCH_XL=1) and exercise the million-record regime
// (HUMO_BENCH_1M=1); both are skipped by default so the CI smoke run stays
// fast. Run them with e.g.
//
//	HUMO_BENCH_XL=1 go test -bench 'GenerateWorkload/(token|lsh)-100k' -run '^$' -benchtime 1x .
//	HUMO_BENCH_1M=1 go test -bench 'GenerateWorkload/lsh-1M' -run '^$' -benchtime 1x -timeout 60m .
func BenchmarkGenerateWorkload(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		ta, tb := genTables(n, n, 42)
		cfg := genConfig()
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(g.Candidates) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
	for _, n := range []int{1000, 10000, 50000} {
		ta, tb := genTables(n, n, 42)
		cfg := genConfig()
		cfg.Block = humo.BlockLSH // default Rows/Bands
		b.Run(fmt.Sprintf("lsh-%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(g.Candidates) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
	for _, mode := range []humo.BlockingMode{humo.BlockToken, humo.BlockLSH} {
		mode := mode
		b.Run(fmt.Sprintf("%s-100k", mode), func(b *testing.B) {
			if os.Getenv("HUMO_BENCH_XL") == "" {
				b.Skip("set HUMO_BENCH_XL=1 to run the 100k x 100k comparison")
			}
			ta, tb := benchTables(100000, 100000, 42)
			cfg := benchConfig(mode)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(g.Candidates) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
	b.Run("lsh-1M", func(b *testing.B) {
		if os.Getenv("HUMO_BENCH_1M") == "" {
			b.Skip("set HUMO_BENCH_1M=1 to run the million-record benchmark")
		}
		ta, tb := benchTables(1000000, 1000000, 42)
		cfg := benchConfig(humo.BlockLSH)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(g.Candidates) == 0 {
				b.Fatal("no candidates")
			}
		}
	})
}

// BenchmarkGenerateWorkloadCross is the exhaustive-scan strategy at 1k — the
// quadratic reference point for the token join above.
func BenchmarkGenerateWorkloadCross(b *testing.B) {
	ta, tb := genTables(1000, 1000, 42)
	cfg := genConfig()
	cfg.Block = humo.BlockCross
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// dsQuarterRecipe is the pipeline_lsh recipe at a quarter of the DS-like
// scale: Jaccard on title and authors, Jaro–Winkler on venue with
// distinct-value weights, LSH 2×32 on the title, threshold 0.2.
func dsQuarterRecipe(tb testing.TB) (*humo.Table, *humo.Table, humo.GenConfig) {
	tb.Helper()
	cfg := humo.DefaultDSConfig()
	cfg.Entities /= 4
	cfg.Filler /= 4
	ds, err := humo.DSLike(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ds.A, ds.B, humo.GenConfig{
		Specs: []humo.AttributeSpec{
			{Attribute: "title", Kind: humo.KindJaccard},
			{Attribute: "authors", Kind: humo.KindJaccard},
			{Attribute: "venue", Kind: humo.KindJaroWinkler},
		},
		Block:          humo.BlockLSH,
		BlockAttribute: "title",
		Threshold:      0.2,
		Rows:           2,
		Bands:          32,
	}
}

// BenchmarkGenerateWorkloadDS generates dsQuarterRecipe's workload. Unlike
// the Jaccard-only BenchmarkGenerateWorkload it runs a string kernel on
// every verified candidate, so it is the gated view of the scorer's
// per-value-pair memo (the venue column has a few dozen distinct values).
// TestGenerateWorkloadDSQuarterPinned pins its output.
func BenchmarkGenerateWorkloadDS(b *testing.B) {
	ta, tb, gen := dsQuarterRecipe(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := humo.GenerateWorkload(context.Background(), ta, tb, gen)
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Candidates) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkNewScorer builds the scorer of dsQuarterRecipe's tables, the
// serial preprocessing in front of every generation: tokenizing and
// interning each record's Jaccard columns and every shared attribute's
// blocking tokens, and interning the Jaro–Winkler venue values. The
// distinct-value weights are resolved once, outside the timer.
func BenchmarkNewScorer(b *testing.B) {
	ta, tb, gen := dsQuarterRecipe(b)
	specs, err := blocking.DistinctValueSpecs(ta, tb, gen.Specs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := blocking.NewScorer(ta, tb, specs); err != nil {
			b.Fatal(err)
		}
	}
}
