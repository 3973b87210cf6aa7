package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"humo/internal/dataio"
)

// requireCSVAtHead asserts the on-disk workload CSV is byte-identical to a
// from-scratch WritePairsFingerprinted of the live workload's chain head.
func requireCSVAtHead(t *testing.T, m *Manager, name, path string, step int) {
	t.Helper()
	m.lwmu.Lock()
	ws := m.live[name]
	m.lwmu.Unlock()
	var want bytes.Buffer
	if err := dataio.WritePairsFingerprinted(&want, ws.iw.Generated().CorePairs(), ws.iw.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("step %d: workload CSV (%d bytes) differs from a full rewrite (%d bytes)", step, len(got), want.Len())
	}
}

// TestIngestCSVMatchesFullRewrite: the workload CSV that appends rewrite
// from cached rows is byte-identical, after every append, to writing the
// whole cumulative pair list afresh — for the build, each append, and the
// appends after a restart, whose row cache recovery rebuilt.
func TestIngestCSVMatchesFullRewrite(t *testing.T) {
	for _, block := range []string{"token", "lsh"} {
		t.Run(block, func(t *testing.T) {
			stateDir, dataDir := t.TempDir(), t.TempDir()
			req := ingestWorkloadRequest("stream", 25)
			req.Block = block
			m, err := Open(Config{StateDir: stateDir, DataDir: dataDir})
			if err != nil {
				t.Fatal(err)
			}
			info, err := m.BuildWorkload(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dataDir, info.File)
			requireCSVAtHead(t, m, "stream", path, 0)
			step, grew := 0, 0
			appendN := func(m *Manager, n int) {
				for i := 0; i < n; i++ {
					step++
					var ar AppendRequest
					if step%2 == 0 {
						ar.RowsA = [][]string{ingestRow(step + 3)}
					} else {
						ar.RowsB = [][]string{ingestRow(step)}
					}
					if step%5 == 0 {
						ar = ingestAppend(2)
					}
					ai, err := m.AppendRecords("stream", ar)
					if err != nil {
						t.Fatal(err)
					}
					if ai.NewPairs > 0 {
						grew++
					}
					requireCSVAtHead(t, m, "stream", path, step)
				}
			}
			appendN(m, 12)
			m.Close()

			m2, err := Open(Config{StateDir: stateDir, DataDir: dataDir})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			requireCSVAtHead(t, m2, "stream", path, step)
			appendN(m2, 6)
			if grew < step/2 {
				t.Fatalf("only %d of %d appends added pairs", grew, step)
			}
		})
	}
}

// TestIngestLatencyHistograms: every applied append records its sync and
// CSV-rewrite time, and every session it extends records one Extend plus
// base-rewrite time, next to the whole apply.
func TestIngestLatencyHistograms(t *testing.T) {
	m, err := Open(Config{StateDir: t.TempDir(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	info, err := m.BuildWorkload(context.Background(), ingestWorkloadRequest("stream", 30))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s1", "s2"} {
		s, err := m.Create(id, ingestSpec(info.File))
		if err != nil {
			t.Fatal(err)
		}
		answerBatches(t, s, 1)
	}
	const appends = 3
	extended := 0
	for i := 0; i < appends; i++ {
		ai, err := m.AppendRecords("stream", ingestAppend(2))
		if err != nil {
			t.Fatal(err)
		}
		extended += ai.SessionsExtended
	}
	if extended == 0 {
		t.Fatal("no append extended a session")
	}
	for name, want := range map[string]int64{
		"ingest_apply_latency":  appends,
		"ingest_sync_latency":   appends,
		"ingest_csv_latency":    appends,
		"ingest_extend_latency": int64(extended),
	} {
		if got := m.metrics.Histogram(name).Count(); got != want {
			t.Errorf("%s has %d observations, want %d", name, got, want)
		}
	}
}
