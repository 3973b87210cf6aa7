package serve

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"humo"
)

// benchWorkload is testWorkload without the *testing.T (benchmarks share
// the helper file but report errors themselves).
func benchWorkload(n int, seed int64) ([]SpecPair, error) {
	labeled, err := humo.Logistic(humo.LogisticConfig{N: n, Tau: 14, Sigma: 0.1, Seed: seed})
	if err != nil {
		return nil, err
	}
	pairs, _ := humo.Split(labeled)
	sp := make([]SpecPair, len(pairs))
	for i, p := range pairs {
		sp[i] = SpecPair{ID: p.ID, Sim: p.Sim}
	}
	return sp, nil
}

// benchManager opens a manager with the given shard count and fills it with
// sessions.
func benchManager(b *testing.B, shards, sessions int) (*Manager, []string) {
	b.Helper()
	m, err := Open(Config{StateDir: b.TempDir(), Shards: shards, MaxSessions: sessions + 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	labeled, err := benchWorkload(600, 51)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%02d", i)
		if _, err := m.Create(ids[i], testSpec(labeled)); err != nil {
			b.Fatal(err)
		}
	}
	return m, ids
}

// BenchmarkManagerTraffic measures concurrent mixed lock-domain traffic —
// session lookups, poll-slot churn, and the occasional full list — against a
// single-lock manager (shards=1) and the sharded default. The sharded
// variant must win: it is the reason the lock domains exist.
//
// Work that runs outside the shard locks (Status snapshots, disk-backed
// Create/Answer) is excluded on purpose; it is identical in both
// configurations and would drown the contention this benchmark isolates.
func BenchmarkManagerTraffic(b *testing.B) {
	const sessions = 32
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m, ids := benchManager(b, shards, sessions)
			var cursor atomic.Int64
			// Model many concurrent HTTP handlers, not one per core: real
			// humod traffic is goroutine-parallel far beyond GOMAXPROCS, and
			// mutex contention (slow-path futex handoffs under many waiters)
			// appears per-goroutine, not per-core.
			b.SetParallelism(32)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := cursor.Add(1)
					id := ids[int(i)%len(ids)]
					if _, err := m.Get(id); err != nil {
						b.Error(err)
						return
					}
					if release, err := m.TryAcquirePoll(id); err == nil {
						release()
					}
					if i%256 == 0 {
						_ = m.List()
					}
				}
			})
		})
	}
}

// BenchmarkAnswerJournal measures the disk cost of one answered batch under
// the two persistence regimes: compact=1 rewrites the full base checkpoint
// on every batch (the rewrite-everything behavior delta journaling
// replaced), compact=64 appends one fsynced delta line and amortizes the
// rewrite. The gap widens with workload size — the rewrite is O(answered
// log), the delta is O(batch).
func BenchmarkAnswerJournal(b *testing.B) {
	labeled, err := humo.Logistic(humo.LogisticConfig{N: 20000, Tau: 14, Sigma: 0.1, Seed: 52})
	if err != nil {
		b.Fatal(err)
	}
	pairs, truth := humo.Split(labeled)
	sp := make([]SpecPair, len(pairs))
	for i, p := range pairs {
		sp[i] = SpecPair{ID: p.ID, Sim: p.Sim}
	}
	for _, compact := range []int{1, DefaultCompactEvery} {
		b.Run(fmt.Sprintf("compact=%d", compact), func(b *testing.B) {
			m, err := Open(Config{StateDir: b.TempDir(), CompactEvery: compact})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { m.Close() })
			ctx := context.Background()
			var s *ManagedSession
			gen := 0
			newSession := func() {
				if s != nil {
					if err := m.Delete(s.ID()); err != nil {
						b.Fatal(err)
					}
				}
				gen++
				var err error
				if s, err = m.Create(fmt.Sprintf("bench-%d", gen), testSpec(sp)); err != nil {
					b.Fatal(err)
				}
			}
			newSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch, err := s.Next(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if batch.Empty() {
					// Session exhausted: replace it off the clock.
					b.StopTimer()
					newSession()
					b.StartTimer()
					if batch, err = s.Next(ctx); err != nil || batch.Empty() {
						b.Fatalf("fresh session: %v %v", batch, err)
					}
				}
				ans := make(map[int]bool, len(batch.IDs))
				for _, id := range batch.IDs {
					ans[id] = truth[id]
				}
				if err := s.Answer(ans); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ingestBenchRow is one record of the BenchmarkIngestAppend tables: records
// come in clusters sharing two cluster tokens, plus one or two tokens
// unique to the record, so every A×B pair inside a cluster is an LSH
// candidate with Jaccard between 1/3 and 1/2 and no pair across clusters
// is.
func ingestBenchRow(table string, cluster, i int) []string {
	name := fmt.Sprintf("c%da c%db %s%d", cluster, cluster, table, i)
	if i%2 == 1 {
		name += fmt.Sprintf(" %sx%d", table, i)
	}
	return []string{name}
}

// ingestBenchRequest builds an LSH workload request of roughly pairs
// candidate pairs: clusters of four records per table, 16 candidate pairs
// per cluster before LSH misses.
func ingestBenchRequest(pairs int) WorkloadRequest {
	const perCluster = 4
	clusters := pairs / (perCluster * perCluster)
	req := WorkloadRequest{
		Name:      "bench",
		TableA:    TableSpec{Attributes: []string{"name"}},
		TableB:    TableSpec{Attributes: []string{"name"}},
		Specs:     []WorkloadAttr{{Attribute: "name", Kind: "jaccard"}},
		Block:     "lsh",
		Threshold: 0.1,
	}
	for i := 0; i < clusters*perCluster; i++ {
		req.TableA.Rows = append(req.TableA.Rows, ingestBenchRow("a", i%clusters, i))
		req.TableB.Rows = append(req.TableB.Rows, ingestBenchRow("b", i%clusters, i))
	}
	return req
}

// BenchmarkIngestAppend measures one live append end to end through
// Manager.AppendRecords: the fsynced journal line, Table.Append, the delta
// Sync, the workload CSV rewrite, and the Extend plus base-checkpoint
// rewrite of two live sessions. Each op appends one row, alternating
// tables, so the delta is a handful of pairs and the per-op cost shows what
// still scales with the workload; compare the 10k and 100k slopes. The
// sessions run the base search, whose replay after each Extend is cheap,
// so the background re-search does not blur the append path. The
// million-pair size needs HUMO_BENCH_1M=1:
//
//	HUMO_BENCH_1M=1 go test -bench 'IngestAppend/1M' -run '^$' -benchtime 20x ./internal/serve
func BenchmarkIngestAppend(b *testing.B) {
	for _, size := range []struct {
		name  string
		pairs int
	}{{"10k", 10000}, {"100k", 100000}, {"1M", 1000000}} {
		b.Run(size.name, func(b *testing.B) {
			if size.pairs >= 1000000 && os.Getenv("HUMO_BENCH_1M") == "" {
				b.Skip("set HUMO_BENCH_1M=1 to run the million-pair append benchmark")
			}
			m, err := Open(Config{StateDir: b.TempDir(), DataDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { m.Close() })
			req := ingestBenchRequest(size.pairs)
			info, err := m.BuildWorkload(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < 2; k++ {
				s, err := m.Create(fmt.Sprintf("live-%d", k), Spec{
					Method: "base", Alpha: 0.9, Beta: 0.9, Theta: 0.9, WorkloadFile: info.File,
				})
				if err != nil {
					b.Fatal(err)
				}
				// Answer one batch so the session holds labels and stays
				// parked on the next one.
				batch, err := s.Next(context.Background())
				if err != nil || batch.Empty() {
					b.Fatalf("session %d: first batch %v, %v", k, batch, err)
				}
				ans := make(map[int]bool, len(batch.IDs))
				for _, id := range batch.IDs {
					ans[id] = id%3 == 0
				}
				if err := s.Answer(ans); err != nil {
					b.Fatal(err)
				}
			}
			clusters := len(req.TableA.Rows) / 4
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ar AppendRequest
				row := len(req.TableA.Rows) + i
				if i%2 == 0 {
					ar.RowsA = [][]string{ingestBenchRow("a", i%clusters, row)}
				} else {
					ar.RowsB = [][]string{ingestBenchRow("b", i%clusters, row)}
				}
				ai, err := m.AppendRecords("bench", ar)
				if err != nil {
					b.Fatal(err)
				}
				if ai.NewPairs > 0 && ai.SessionsExtended != 2 {
					b.Fatalf("append %d extended %d sessions, want 2", i, ai.SessionsExtended)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(info.Pairs), "pairs")
		})
	}
}
