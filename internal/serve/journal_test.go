package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"humo/internal/dataio"
)

// readDeltas reads a session's delta file without recovering it: the
// per-batch label maps, the line count, and the byte offset just past the
// last complete line. A missing file is an empty journal.
func readDeltas(path string) ([]map[int]bool, int, int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	lines, complete, err := readJournal[deltaLine](f)
	if err != nil {
		return nil, 0, 0, err
	}
	deltas, err := deltaLabels(lines)
	return deltas, len(lines), complete, err
}

// TestDeltaJournalRoundTrip: appended batches read back in order, truncate
// empties the file, remove unlinks it.
func TestDeltaJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal.jsonl")
	j := newJournal(path)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("journal file created before the first append")
	}
	batches := []map[int]bool{
		{1: true, 2: false},
		{3: true},
		{2: true}, // later batch overrides pair 2
	}
	for _, b := range batches {
		if err := j.appendDelta(b); err != nil {
			t.Fatal(err)
		}
	}
	if j.len() != 3 {
		t.Fatalf("len = %d, want 3", j.len())
	}

	deltas, lines, _, err := readDeltas(path)
	if err != nil || lines != 3 {
		t.Fatalf("readDeltas: %d lines, err %v", lines, err)
	}
	for i, want := range batches {
		if len(deltas[i]) != len(want) {
			t.Fatalf("delta %d = %v, want %v", i, deltas[i], want)
		}
		for id, v := range want {
			if deltas[i][id] != v {
				t.Fatalf("delta %d = %v, want %v", i, deltas[i], want)
			}
		}
	}

	if err := j.truncate(); err != nil {
		t.Fatal(err)
	}
	if j.len() != 0 {
		t.Fatalf("len = %d after truncate", j.len())
	}
	if _, lines, _, err := readDeltas(path); err != nil || lines != 0 {
		t.Fatalf("after truncate: %d lines, err %v", lines, err)
	}
	// The handle stays valid for appends after a truncate (O_APPEND
	// through-handle truncation, the compaction path).
	if err := j.appendDelta(map[int]bool{9: true}); err != nil {
		t.Fatal(err)
	}
	if _, lines, _, err := readDeltas(path); err != nil || lines != 1 {
		t.Fatalf("append after truncate: %d lines, err %v", lines, err)
	}

	if err := j.remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("remove left the journal file")
	}
}

// TestReadDeltasMissingFile: no journal file is an empty journal, not an
// error.
func TestReadDeltasMissingFile(t *testing.T) {
	deltas, lines, complete, err := readDeltas(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || lines != 0 || complete != 0 || deltas != nil {
		t.Fatalf("missing file: deltas=%v lines=%d complete=%d err=%v", deltas, lines, complete, err)
	}
}

// TestReadDeltasTornTail: a final line without its newline (power cut
// mid-append) is dropped silently — that answer was never acknowledged —
// while the complete prefix survives, and the reported complete offset
// points at the start of the fragment so recovery can truncate it away.
func TestReadDeltasTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal.jsonl")
	j := newJournal(path)
	if err := j.appendDelta(map[int]bool{1: true}); err != nil {
		t.Fatal(err)
	}
	if err := j.appendDelta(map[int]bool{2: false}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), data...), []byte(`{"v":1,"seq":3,"lab`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	deltas, lines, complete, err := readDeltas(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if lines != 2 || len(deltas) != 2 || !deltas[0][1] || deltas[1][2] {
		t.Fatalf("torn tail: deltas=%v lines=%d", deltas, lines)
	}
	if complete != int64(len(data)) {
		t.Fatalf("complete = %d, want %d (end of last full line)", complete, len(data))
	}
}

// TestReadDeltasCorruption: malformed content before the final line, an
// unknown version, a non-numeric pair id, and a broken seq chain
// (duplicated, dropped or reordered lines) each fail loudly with
// errJournalCorrupt.
func TestReadDeltasCorruption(t *testing.T) {
	for name, content := range map[string]string{
		"garbage line":   "not json\n" + `{"v":1,"seq":2,"labels":{"1":true}}` + "\n",
		"unknown field":  `{"v":1,"seq":1,"labels":{"1":true},"extra":1}` + "\n",
		"bad version":    `{"v":9,"seq":1,"labels":{"1":true}}` + "\n",
		"non-numeric id": `{"v":1,"seq":1,"labels":{"x":true}}` + "\n",
		"mid-file tear":  `{"v":1,"se` + "\n" + `{"v":1,"seq":2,"labels":{"1":true}}` + "\n",
		"seq not 1":      `{"v":1,"seq":2,"labels":{"1":true}}` + "\n",
		"seq duplicate":  `{"v":1,"seq":1,"labels":{"1":true}}` + "\n" + `{"v":1,"seq":1,"labels":{"2":true}}` + "\n",
		"seq gap":        `{"v":1,"seq":1,"labels":{"1":true}}` + "\n" + `{"v":1,"seq":3,"labels":{"2":true}}` + "\n",
	} {
		path := filepath.Join(t.TempDir(), "s.journal.jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := readDeltas(path); !errors.Is(err, errJournalCorrupt) {
			t.Errorf("%s: err = %v, want errJournalCorrupt", name, err)
		}
	}
}

// TestManagerRecoveryDeltasWithoutBase: surviving deltas with a missing base
// checkpoint are corruption (deltas can only exist after the base landed)
// and must fail Open loudly, not silently restart the session fresh.
func TestManagerRecoveryDeltasWithoutBase(t *testing.T) {
	dir := t.TempDir()
	pairs, truth := testWorkload(t, 800, 21)
	m1, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m1.Create("gone", testSpec(pairs))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Next(context.Background())
	if err != nil || b.Empty() {
		t.Fatalf("batch: %v %v", b, err)
	}
	ans := make(map[int]bool, len(b.IDs))
	for _, id := range b.IDs {
		ans[id] = truth[id]
	}
	if err := s.Answer(ans); err != nil {
		t.Fatal(err)
	}
	s.Session().Cancel() // crash without Close: the delta stays journaled
	if err := os.Remove(filepath.Join(dir, "gone.checkpoint.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{StateDir: dir}); !errors.Is(err, errJournalCorrupt) {
		t.Fatalf("Open = %v, want errJournalCorrupt", err)
	}
}

// TestManagerCompaction: with a threshold of 2, every second answered batch
// folds the journal into the base and truncates the delta file — and a
// recovery from any point in that cycle is bit-identical, including the
// crash window where deltas are already folded into the base (idempotent
// replay).
func TestManagerCompaction(t *testing.T) {
	dir := t.TempDir()
	pairs, truth := testWorkload(t, 2000, 22)
	spec := testSpec(pairs)
	m1, err := Open(Config{StateDir: dir, CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m1.Create("cmp", spec)
	if err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(dir, "cmp.journal.jsonl")
	ctx := context.Background()
	answerOne := func() {
		t.Helper()
		b, err := s.Next(ctx)
		if err != nil || b.Empty() {
			t.Fatalf("batch: %v %v", b, err)
		}
		ans := make(map[int]bool, len(b.IDs))
		for _, id := range b.IDs {
			ans[id] = truth[id]
		}
		if err := s.Answer(ans); err != nil {
			t.Fatal(err)
		}
	}
	journalLines := func() int {
		t.Helper()
		_, lines, _, err := readDeltas(jp)
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}

	answerOne()
	if got := journalLines(); got != 1 {
		t.Fatalf("after 1 answer: %d journal lines, want 1", got)
	}
	answerOne() // threshold reached: compaction truncates the journal
	if got := journalLines(); got != 0 {
		t.Fatalf("after compaction: %d journal lines, want 0", got)
	}
	if m1.Metrics().Counter("journal_compactions_total").Value() == 0 {
		t.Fatal("no compaction counted")
	}
	answerOne() // one uncompacted delta on top of the compacted base
	answered := len(s.Session().Answered())

	// Simulate the compaction crash window: the base rewrite landed but the
	// process died before the journal truncate, so the surviving delta line
	// is already folded into the base. Replay then applies the same labels
	// twice; idempotent replay must absorb it.
	if err := dataio.WriteFileAtomic(filepath.Join(dir, "cmp.checkpoint.json"), s.Session().Checkpoint); err != nil {
		t.Fatal(err)
	}
	s.Session().Cancel() // crash without Close
	if got := journalLines(); got != 1 {
		t.Fatalf("crash window: %d journal lines, want the folded delta to survive", got)
	}

	m2, err := Open(Config{StateDir: dir, CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	s2, err := m2.Get("cmp")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Session().Answered()); got != answered {
		t.Fatalf("recovered %d answers, want %d", got, answered)
	}
	drive(t, s2, truth)
	<-s2.Session().DoneChan()
	wantSol, wantCost := oneShotSolution(t, spec, truth)
	if got := s2.Session().Solution(); got != wantSol {
		t.Errorf("recovered solution %+v, want %+v", got, wantSol)
	}
	if got := s2.Session().Cost(); got != wantCost {
		t.Errorf("recovered cost %d, want %d", got, wantCost)
	}
}

// TestManagerRecoveryTruncatesTornTail: recovery must physically remove a
// torn final journal line, not just skip it. The journal reopens with
// O_APPEND, so a surviving fragment would have the first post-recovery
// append concatenate onto it, corrupting the journal and bricking the NEXT
// restart after a single benign mid-append crash.
func TestManagerRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	pairs, truth := testWorkload(t, 800, 25)
	m1, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m1.Create("torn", testSpec(pairs))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	answerOne := func(s *ManagedSession) {
		t.Helper()
		b, err := s.Next(ctx)
		if err != nil || b.Empty() {
			t.Fatalf("batch: %v %v", b, err)
		}
		ans := make(map[int]bool, len(b.IDs))
		for _, id := range b.IDs {
			ans[id] = truth[id]
		}
		if err := s.Answer(ans); err != nil {
			t.Fatal(err)
		}
	}
	answerOne(s)
	answered1 := len(s.Session().Answered())
	s.Session().Cancel() // crash, mid-append: a torn fragment at the tail
	jp := filepath.Join(dir, "torn.journal.jsonl")
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"seq":2,"lab`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	s2, err := m2.Get("torn")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Session().Answered()); got != answered1 {
		t.Fatalf("recovered %d answers, want %d", got, answered1)
	}
	answerOne(s2) // the append that would land on the fragment
	answered2 := len(s2.Session().Answered())
	s2.Session().Cancel() // crash again, before any compaction

	m3, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatalf("second recovery, after a post-torn append: %v", err)
	}
	defer m3.Close()
	s3, err := m3.Get("torn")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s3.Session().Answered()); got != answered2 {
		t.Fatalf("second recovery: %d answers, want %d", got, answered2)
	}
}

// TestManagerAnswerJournalAppendFailure: a failed journal append must never
// leave acknowledged labels existing only in memory. The labels are applied
// before the append, so a blind retry applies nothing new and would
// otherwise be acknowledged without ever being persisted; Answer must keep
// failing until a compaction folds the orphaned labels into the base, and
// once one lands the acknowledged state must survive a crash.
func TestManagerAnswerJournalAppendFailure(t *testing.T) {
	dir := t.TempDir()
	pairs, truth := testWorkload(t, 800, 26)
	m1, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m1.Create("flaky", testSpec(pairs))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Next(context.Background())
	if err != nil || b.Empty() {
		t.Fatalf("batch: %v %v", b, err)
	}
	ans := make(map[int]bool, len(b.IDs))
	for _, id := range b.IDs {
		ans[id] = truth[id]
	}
	// Sabotage both the journal and the base path: the append fails and so
	// does the fallback compaction.
	goodCp := s.cpPath
	s.mu.Lock()
	s.jr.close() //nolint:errcheck // nothing was appended yet
	s.jr.path = filepath.Join(dir, "no-such-dir", "flaky.journal.jsonl")
	s.cpPath = filepath.Join(dir, "no-such-dir", "flaky.checkpoint.json")
	s.mu.Unlock()
	if err := s.Answer(ans); err == nil {
		t.Fatal("Answer acknowledged with journal and base both unwritable")
	}
	if err := s.Answer(ans); err == nil {
		t.Fatal("retry acknowledged labels that are persisted nowhere")
	}
	// The base becomes writable again: the retry forces a compaction that
	// persists the orphaned labels, so THIS attempt is acknowledged.
	s.mu.Lock()
	s.cpPath = goodCp
	s.mu.Unlock()
	if err := s.Answer(ans); err != nil {
		t.Fatalf("retry with a writable base: %v", err)
	}
	answered := len(s.Session().Answered())
	s.Session().Cancel() // crash without Close

	m2, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	s2, err := m2.Get("flaky")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Session().Answered()); got != answered {
		t.Fatalf("recovered %d answers, want %d acknowledged", got, answered)
	}
}

// TestManagerShardCountIsRuntimeOnly: a state directory written under one
// shard count reopens under any other with identical sessions — sharding
// must never leak into the on-disk layout.
func TestManagerShardCountIsRuntimeOnly(t *testing.T) {
	dir := t.TempDir()
	pairs, truth := testWorkload(t, 1200, 23)
	spec := testSpec(pairs)
	m1, err := Open(Config{StateDir: dir, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"alpha", "beta", "gamma"}
	for _, id := range ids {
		s, err := m1.Create(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Next(context.Background())
		if err != nil || b.Empty() {
			t.Fatalf("batch: %v %v", b, err)
		}
		ans := make(map[int]bool, len(b.IDs))
		for _, bid := range b.IDs {
			ans[bid] = truth[bid]
		}
		if err := s.Answer(ans); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{StateDir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != len(ids) {
		t.Fatalf("recovered %d sessions under Shards:1, want %d", m2.Len(), len(ids))
	}
	var names []string
	for _, s := range m2.List() {
		names = append(names, s.ID())
	}
	if got := strings.Join(names, ","); got != "alpha,beta,gamma" {
		t.Fatalf("List = %s", got)
	}
	s, err := m2.Get("beta")
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, truth)
	<-s.Session().DoneChan()
	wantSol, wantCost := oneShotSolution(t, spec, truth)
	if got := s.Session().Solution(); got != wantSol {
		t.Errorf("solution %+v, want %+v", got, wantSol)
	}
	if got := s.Session().Cost(); got != wantCost {
		t.Errorf("cost %d, want %d", got, wantCost)
	}
}
