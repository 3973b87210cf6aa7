package blocking

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"humo/internal/records"
)

// The humo-level BenchmarkGenerateWorkload (CI bench gate) covers the
// public entry point at 1k/10k/50k records; these time the blocking layer
// alone. The reference implementation in reference_test.go stays as the
// equivalence tests' oracle.

// benchSynthTables is synthTables with a vocabulary that scales with n the
// way real catalogs do (the fixed 400-word vocabulary of the equivalence
// tests makes every posting list huge at 10k records, which stresses the
// dedup paths but is not a realistic workload shape).
func benchSynthTables(n int, seed int64) (*records.Table, *records.Table) {
	rng := rand.New(rand.NewSource(seed))
	vocabN := n
	if vocabN < 500 {
		vocabN = 500
	}
	vocab := make([]string, vocabN)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%05d", i)
	}
	word := func(r *rand.Rand) string {
		if r.Float64() < 0.2 {
			return vocab[r.Intn(50)]
		}
		return vocab[r.Intn(len(vocab))]
	}
	brands := []string{"acme", "globex", "initech", "umbrella", "stark", "wayne", "tyrell", "hooli"}
	title := func(r *rand.Rand) []string {
		k := 4 + r.Intn(4)
		out := make([]string, k)
		out[0] = brands[r.Intn(len(brands))]
		for i := 1; i < k; i++ {
			out[i] = word(r)
		}
		return out
	}
	corrupt := func(r *rand.Rand, words []string) []string {
		out := append([]string(nil), words...)
		if r.Float64() < 0.6 {
			out[1+r.Intn(len(out)-1)] = word(r)
		}
		return out
	}
	attrs := []string{"name", "description", "brand"}
	rec := func(id, entity int, words []string, r *rand.Rand) records.Record {
		return records.Record{
			ID:       id,
			EntityID: entity,
			Values: []string{
				strings.Join(words, " "),
				strings.Join(append(append([]string{}, words...), word(r), word(r)), " "),
				words[0],
			},
		}
	}
	ta := &records.Table{Name: "a", Attributes: attrs}
	tb := &records.Table{Name: "b", Attributes: attrs}
	shared := n / 2
	for i := 0; i < n; i++ {
		words := title(rng)
		ta.Records = append(ta.Records, rec(i, i, words, rng))
		if i < shared {
			tb.Records = append(tb.Records, rec(len(tb.Records), i, corrupt(rng, words), rng))
		}
	}
	for len(tb.Records) < n {
		tb.Records = append(tb.Records, rec(len(tb.Records), n+len(tb.Records), title(rng), rng))
	}
	return ta, tb
}

func BenchmarkTokenBlocked(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		ta, tb := benchSynthTables(n, 42)
		s, err := NewScorer(ta, tb, synthSpecs())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pairs, err := Generate(context.Background(), s, Options{Mode: ModeToken, Attribute: "name", MinShared: 2, Threshold: 0.2})
				if err != nil {
					b.Fatal(err)
				}
				if len(pairs) == 0 {
					b.Fatal("no pairs")
				}
			}
		})
	}
}

// benchLongTables builds bibliographic-style tables (10-18-token titles,
// ~10% of draws from a 50-token hot set) for the large-scale mode
// comparison: the long-text regime where inverted-index blocking pays a
// posting scan for every pair sharing one hot token, while bottom-Rows
// sketches never touch pairs sharing fewer than Rows tokens.
func benchLongTables(n int, seed int64) (*records.Table, *records.Table) {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, n)
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
		k := 10 + r.Intn(9)
		out := make([]string, k)
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
		return out
	}
	rec := func(id, entity int, words []string) records.Record {
		return records.Record{ID: id, EntityID: entity, Values: []string{strings.Join(words, " ")}}
	}
	ta := &records.Table{Name: "a", Attributes: []string{"title"}}
	tb := &records.Table{Name: "b", Attributes: []string{"title"}}
	shared := n / 2
	for i := 0; i < n; i++ {
		words := title(rng)
		ta.Records = append(ta.Records, rec(i, i, words))
		if i < shared {
			tb.Records = append(tb.Records, rec(len(tb.Records), i, corrupt(rng, words)))
		}
	}
	for len(tb.Records) < n {
		tb.Records = append(tb.Records, rec(len(tb.Records), n+len(tb.Records), title(rng)))
	}
	return ta, tb
}

// BenchmarkBlocked100k is the 100k x 100k head-to-head of the two scalable
// modes on one prebuilt scorer — pure candidate generation, no scorer
// construction in the timed loop. Guarded so the CI smoke run stays fast:
//
//	HUMO_BENCH_XL=1 go test -bench Blocked100k -run '^$' -benchtime 1x ./internal/blocking/
//
// On this fixture the LSH join is >= 10x faster than the token join (both
// ends of every found pair still go through the same verification and
// scoring), with recall pinned by TestGenerateWorkloadLSHRecall and the
// humo-level bench fixture test.
func BenchmarkBlocked100k(b *testing.B) {
	if os.Getenv("HUMO_BENCH_XL") == "" {
		b.Skip("set HUMO_BENCH_XL=1 to run the 100k x 100k comparison")
	}
	ta, tb := benchLongTables(100000, 42)
	specs := []AttributeSpec{{Attribute: "title", Kind: KindJaccard, Weight: 1}}
	s, err := NewScorer(ta, tb, specs)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opt Options) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pairs, err := Generate(context.Background(), s, opt)
			if err != nil {
				b.Fatal(err)
			}
			if len(pairs) == 0 {
				b.Fatal("no pairs")
			}
		}
	}
	b.Run("token", func(b *testing.B) {
		run(b, Options{Mode: ModeToken, Attribute: "title", MinShared: 3, Threshold: 0.3})
	})
	b.Run("lsh", func(b *testing.B) {
		run(b, Options{Mode: ModeLSH, Attribute: "title", Rows: 2, Bands: 16, MinShared: 3, Threshold: 0.3})
	})
}

func BenchmarkLSHBlocked(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		ta, tb := benchSynthTables(n, 42)
		s, err := NewScorer(ta, tb, synthSpecs())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pairs, err := Generate(context.Background(), s, Options{Mode: ModeLSH, Attribute: "name", Rows: 2, Bands: 32, Threshold: 0.2})
				if err != nil {
					b.Fatal(err)
				}
				if len(pairs) == 0 {
					b.Fatal("no pairs")
				}
			}
		})
	}
}

func BenchmarkCrossProduct(b *testing.B) {
	ta, tb := benchSynthTables(1000, 42)
	s, err := NewScorer(ta, tb, synthSpecs())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pairs := mustGenerate(b, s, Options{Threshold: 0.2}); len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

func BenchmarkScorePair(b *testing.B) {
	ta, tb := benchSynthTables(100, 42)
	s, err := NewScorer(ta, tb, synthSpecs())
	if err != nil {
		b.Fatal(err)
	}
	sc := s.NewScratch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ScoreWith(sc, i%100, (i*7)%100)
	}
}

// BenchmarkNewIncremental times a live workload's epoch 0 at 10k records:
// the initial candidates plus the blocking state later Syncs extend.
func BenchmarkNewIncremental(b *testing.B) {
	ta, tb := benchSynthTables(10000, 42)
	s, err := NewScorer(ta, tb, synthSpecs())
	if err != nil {
		b.Fatal(err)
	}
	for _, opt := range []Options{
		{Mode: ModeToken, Attribute: "name", MinShared: 2, Threshold: 0.2},
		{Mode: ModeLSH, Attribute: "name", Rows: 2, Bands: 32, Threshold: 0.2},
	} {
		b.Run(string(opt.Mode), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, pairs, err := NewIncremental(context.Background(), s, opt)
				if err != nil {
					b.Fatal(err)
				}
				if len(pairs) == 0 {
					b.Fatal("no pairs")
				}
			}
		})
	}
}
