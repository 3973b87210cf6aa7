package humo_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"humo"
)

// extendFixture splits the logistic benchmark into a static prefix and a
// delta spread across the similarity range (every fourth pair), so an
// Extend perturbs most strata instead of only the tail.
func extendFixture(t *testing.T) (static, delta []humo.Pair, truth map[int]bool) {
	t.Helper()
	labeled, err := humo.Logistic(humo.LogisticConfig{N: 4000, Tau: 14, Sigma: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pairs, tr := humo.Split(labeled)
	for i, p := range pairs {
		if i%4 == 3 {
			delta = append(delta, p)
		} else {
			static = append(static, p)
		}
	}
	return static, delta, tr
}

// driveBatches answers up to n batches from truth and reports how many it
// actually served (fewer means the session terminated first).
func driveBatches(t *testing.T, s *humo.Session, truth map[int]bool, n int) int {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		b, err := s.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if b.Empty() {
			return i
		}
		ans := make(map[int]bool, len(b.IDs))
		for _, id := range b.IDs {
			v, ok := truth[id]
			if !ok {
				t.Fatalf("batch asked for unknown pair %d", id)
			}
			ans[id] = v
		}
		if err := s.Answer(ans); err != nil {
			t.Fatalf("Answer: %v", err)
		}
	}
	return n
}

// TestSessionExtendEquivalence pins the streaming core contract: a session
// started over the static pairs and Extended mid-flight with the delta
// terminates with the bit-identical Solution and resolution a session over
// the full workload finds. Cost is deliberately not compared — the
// extended run may pay for stale strata the one-shot run never visits.
func TestSessionExtendEquivalence(t *testing.T) {
	static, delta, truth := extendFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cfg := humo.SessionConfig{Method: humo.MethodBase, Base: humo.BaseConfig{StartSubset: -1}, Resolve: true}

	fullW, err := humo.NewWorkload(append(append([]humo.Pair(nil), static...), delta...), 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := humo.NewSession(fullW, req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveFromTruth(t, full, truth)
	if err := full.Err(); err != nil {
		t.Fatalf("full session failed: %v", err)
	}

	staticW, err := humo.NewWorkload(static, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := humo.NewSession(staticW, req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Answer a couple of batches over the static workload, then fetch one
	// more batch and Extend while it is surfaced-but-unanswered: the epoch
	// switch must abandon it cleanly and the replay must re-ask whatever
	// still matters.
	if n := driveBatches(t, s, truth, 2); n < 2 {
		t.Fatalf("static session terminated after %d batches, before the Extend", n)
	}
	if b, err := s.Next(context.Background()); err != nil || b.Empty() {
		t.Fatalf("Next before Extend: batch=%v err=%v", b, err)
	}
	if err := s.Extend(delta); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("Epoch after Extend = %d, want 1", got)
	}
	if chain := s.WorkloadChain(); len(chain) != 2 || chain[1] != humo.WorkloadFingerprint(fullW) {
		t.Fatalf("chain after Extend = %v, want 2 elements ending at the full-workload fingerprint", chain)
	}
	driveFromTruth(t, s, truth)
	if err := s.Err(); err != nil {
		t.Fatalf("extended session failed: %v", err)
	}

	if got, want := s.Solution(), full.Solution(); got != want {
		t.Fatalf("extended solution %+v, want %+v", got, want)
	}
	gotL, wantL := s.Labels(), full.Labels()
	if len(gotL) != len(wantL) {
		t.Fatalf("extended resolution has %d labels, want %d", len(gotL), len(wantL))
	}
	for i := range gotL {
		if gotL[i] != wantL[i] {
			t.Fatalf("resolution diverges at sorted position %d", i)
		}
	}
}

// TestSessionExtendAfterTerminal: extending a terminated session — whether
// it finished or was Canceled — fails with ErrSessionDone and leaves the
// answered-label log untouched.
func TestSessionExtendAfterTerminal(t *testing.T) {
	static, delta, truth := extendFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cfg := humo.SessionConfig{Method: humo.MethodBase, Base: humo.BaseConfig{StartSubset: -1}}
	staticW, err := humo.NewWorkload(static, 0)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("finished", func(t *testing.T) {
		s, err := humo.NewSession(staticW, req, cfg)
		if err != nil {
			t.Fatal(err)
		}
		driveFromTruth(t, s, truth)
		before := s.Answered()
		if err := s.Extend(delta); !errors.Is(err, humo.ErrSessionDone) {
			t.Fatalf("Extend after termination = %v, want ErrSessionDone", err)
		}
		after := s.Answered()
		if len(after) != len(before) {
			t.Fatalf("label log changed across failed Extend: %d -> %d entries", len(before), len(after))
		}
		if got := s.Epoch(); got != 0 {
			t.Fatalf("Epoch after failed Extend = %d, want 0", got)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		s, err := humo.NewSession(staticW, req, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := driveBatches(t, s, truth, 1); n != 1 {
			t.Fatalf("served %d batches, want 1", n)
		}
		seeded := map[int]bool{static[0].ID: true}
		if err := s.Answer(seeded); err != nil {
			t.Fatal(err)
		}
		s.Cancel()
		before := s.Answered()
		if err := s.Extend(delta); !errors.Is(err, humo.ErrSessionDone) {
			t.Fatalf("Extend after Cancel = %v, want ErrSessionDone", err)
		}
		after := s.Answered()
		if len(after) != len(before) || !after[static[0].ID] {
			t.Fatalf("label log damaged by failed Extend: before %d entries, after %d", len(before), len(after))
		}
	})
}

// TestSessionExtendEmptyNoOp pins Extend's empty-delta semantics: nil and
// empty slices return nil without bumping the epoch — even on a terminated
// session, mirroring Answer's empty-call behavior — so ingest layers can
// forward growth-without-candidates syncs unconditionally.
func TestSessionExtendEmptyNoOp(t *testing.T) {
	static, _, truth := extendFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cfg := humo.SessionConfig{Method: humo.MethodBase, Base: humo.BaseConfig{StartSubset: -1}}
	staticW, err := humo.NewWorkload(static, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := humo.NewSession(staticW, req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Extend(nil); err != nil {
		t.Fatalf("Extend(nil) on live session = %v, want nil", err)
	}
	if err := s.Extend([]humo.Pair{}); err != nil {
		t.Fatalf("Extend(empty) on live session = %v, want nil", err)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("empty Extend bumped the epoch to %d", got)
	}
	if chain := s.WorkloadChain(); len(chain) != 1 {
		t.Fatalf("empty Extend grew the chain to %v", chain)
	}
	driveFromTruth(t, s, truth)
	if err := s.Extend(nil); err != nil {
		t.Fatalf("Extend(nil) on terminated session = %v, want nil", err)
	}
}

// TestSessionExtendDuplicateID: a delta pair whose id already exists in the
// workload is rejected wholesale, leaving the session live at its epoch.
func TestSessionExtendDuplicateID(t *testing.T) {
	static, delta, _ := extendFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cfg := humo.SessionConfig{Method: humo.MethodBase, Base: humo.BaseConfig{StartSubset: -1}}
	staticW, err := humo.NewWorkload(static, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := humo.NewSession(staticW, req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel()
	bad := append([]humo.Pair(nil), delta[:3]...)
	bad = append(bad, static[0])
	if err := s.Extend(bad); err == nil {
		t.Fatal("Extend with a duplicate pair id succeeded")
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("failed Extend bumped the epoch to %d", got)
	}
	if s.Done() {
		t.Fatal("failed Extend terminated the session")
	}
}

// TestSessionExtendCheckpointRestore: a checkpoint taken mid-flight in an
// extended epoch restores over the extended workload — with the chain
// verified end-to-end — and the restored session terminates bit-identically
// to the original. Exercises the per-epoch rng replay with a sampling
// method.
func TestSessionExtendCheckpointRestore(t *testing.T) {
	static, delta, truth := extendFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cfg := humo.SessionConfig{Method: humo.MethodHybrid, Seed: 11, Resolve: true}
	staticW, err := humo.NewWorkload(static, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := humo.NewSession(staticW, req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := driveBatches(t, s, truth, 2); n < 2 {
		t.Fatalf("static session terminated after %d batches, before the Extend", n)
	}
	if err := s.Extend(delta); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if n := driveBatches(t, s, truth, 2); n < 2 {
		t.Fatalf("extended session terminated after %d batches, before the checkpoint", n)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	wantChain := s.WorkloadChain()
	extendedW := s.Workload()

	// The identity header is readable without the workload and carries the
	// chain recovery needs to locate the epoch.
	info, err := humo.ReadCheckpointInfo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadCheckpointInfo: %v", err)
	}
	if info.WorkloadHash != humo.WorkloadFingerprint(extendedW) {
		t.Fatalf("checkpoint hash %s does not fingerprint the extended workload", info.WorkloadHash)
	}
	if len(info.WorkloadChain) != 2 || info.WorkloadChain[1] != info.WorkloadHash {
		t.Fatalf("checkpoint chain %v, want 2 elements ending at the workload hash", info.WorkloadChain)
	}

	driveFromTruth(t, s, truth)
	if err := s.Err(); err != nil {
		t.Fatalf("original session failed: %v", err)
	}

	r, err := humo.RestoreSessionDeltas(extendedW, req, cfg, bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := r.Epoch(); got != 1 {
		t.Fatalf("restored Epoch = %d, want 1", got)
	}
	if gotChain := r.WorkloadChain(); len(gotChain) != len(wantChain) || gotChain[0] != wantChain[0] || gotChain[1] != wantChain[1] {
		t.Fatalf("restored chain %v, want %v", gotChain, wantChain)
	}
	driveFromTruth(t, r, truth)
	if err := r.Err(); err != nil {
		t.Fatalf("restored session failed: %v", err)
	}
	if got, want := r.Solution(), s.Solution(); got != want {
		t.Fatalf("restored solution %+v, want %+v", got, want)
	}
	gotL, wantL := r.Labels(), s.Labels()
	if len(gotL) != len(wantL) {
		t.Fatalf("restored resolution has %d labels, want %d", len(gotL), len(wantL))
	}
	for i := range gotL {
		if gotL[i] != wantL[i] {
			t.Fatalf("restored resolution diverges at sorted position %d", i)
		}
	}
}

// TestSessionExtendDuplicateIDReported: the duplicate-id check names the
// first offending delta pair in delta order, whether it repeats an earlier
// delta pair or a workload pair, and a refused Extend leaves the session's
// workload untouched.
func TestSessionExtendDuplicateIDReported(t *testing.T) {
	static, delta, _ := extendFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cfg := humo.SessionConfig{Method: humo.MethodBase, Base: humo.BaseConfig{StartSubset: -1}}
	staticW, err := humo.NewWorkload(static, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := humo.NewSession(staticW, req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel()
	cases := []struct {
		name  string
		pairs []humo.Pair
		id    int
	}{
		{"inside delta", []humo.Pair{delta[0], delta[1], delta[0], static[5]}, delta[0].ID},
		{"against workload", []humo.Pair{delta[0], static[7], delta[1], static[2]}, static[7].ID},
		{"workload before delta repeat", []humo.Pair{delta[0], static[3], delta[0]}, static[3].ID},
		{"delta repeat before workload", []humo.Pair{delta[2], delta[2], static[9]}, delta[2].ID},
	}
	for _, c := range cases {
		err := s.Extend(c.pairs)
		want := fmt.Sprintf("humo: Extend pair id %d already in the workload", c.id)
		if err == nil || err.Error() != want {
			t.Fatalf("%s: Extend error %v, want %q", c.name, err, want)
		}
		if got := s.Workload(); got != staticW || s.Epoch() != 0 {
			t.Fatalf("%s: refused Extend changed the workload (epoch %d)", c.name, s.Epoch())
		}
	}
}
