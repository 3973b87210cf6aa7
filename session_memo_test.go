package humo_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"humo"
)

// sessionOutcome is what a driven session shows: every batch it surfaced,
// its solution, cost and final labels.
type sessionOutcome struct {
	batches [][]int
	sol     humo.Solution
	cost    int
	labels  string
}

// driveSession answers a session's batches from truth, at most limit of
// them when limit > 0, and reports what it showed.
func driveSession(s *humo.Session, truth map[int]bool, limit int) (sessionOutcome, error) {
	var out sessionOutcome
	for limit <= 0 || len(out.batches) < limit {
		b, err := s.Next(context.Background())
		if err != nil {
			return out, err
		}
		if b.Empty() {
			break
		}
		out.batches = append(out.batches, b.IDs)
		ans := make(map[int]bool, len(b.IDs))
		for _, id := range b.IDs {
			ans[id] = truth[id]
		}
		if err := s.Answer(ans); err != nil {
			return out, err
		}
	}
	if limit <= 0 {
		if err := s.Err(); err != nil {
			return out, err
		}
		out.sol, out.cost, out.labels = s.Solution(), s.Cost(), fmt.Sprint(s.Labels())
	}
	return out, nil
}

func runSession(w *humo.Workload, truth map[int]bool, cfg humo.SessionConfig) (sessionOutcome, error) {
	s, err := humo.NewSession(w, humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}, cfg)
	if err != nil {
		return sessionOutcome{}, err
	}
	return driveSession(s, truth, 0)
}

// rebuildWorkload returns a workload equal to w, pair for pair, with an
// empty GP fit memo.
func rebuildWorkload(tb testing.TB, w *humo.Workload) *humo.Workload {
	tb.Helper()
	pairs := make([]humo.Pair, w.Len())
	for i := range pairs {
		pairs[i] = w.Pair(i)
	}
	fw, err := humo.NewWorkload(pairs, w.SubsetSize())
	if err != nil {
		tb.Fatal(err)
	}
	return fw
}

func sameOutcome(t *testing.T, what string, got, want sessionOutcome) {
	t.Helper()
	if fmt.Sprint(got.batches) != fmt.Sprint(want.batches) || got.sol != want.sol || got.cost != want.cost || got.labels != want.labels {
		t.Errorf("%s: %d batches, solution %+v, cost %d; on a workload of its own %d batches, solution %+v, cost %d (labels equal: %v)",
			what, len(got.batches), got.sol, got.cost, len(want.batches), want.sol, want.cost, got.labels == want.labels)
	}
}

// TestSessionsShareFitMemo: sessions on one workload share its GP fit
// memo, and each shows exactly what it shows on a workload of its own: a
// hybrid session, a risk session at the same seed, a hybrid session
// restored from a mid-run checkpoint, and four sessions running at once.
func TestSessionsShareFitMemo(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cold := func(cfg humo.SessionConfig) sessionOutcome {
		out, err := runSession(rebuildWorkload(t, w), truth, cfg)
		if err != nil {
			t.Fatalf("%s seed %d on a fresh workload: %v", cfg.Method, cfg.Seed, err)
		}
		return out
	}
	hybrid := humo.SessionConfig{Method: humo.MethodHybrid, Seed: 23, Resolve: true}
	risk := humo.SessionConfig{Method: humo.MethodRisk, Seed: 23, Resolve: true}
	ref := cold(hybrid)
	for _, cfg := range []humo.SessionConfig{hybrid, risk} {
		got, err := runSession(w, truth, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, fmt.Sprintf("%s on the shared workload", cfg.Method), got, cold(cfg))
	}

	// Checkpoint a hybrid session after three batches and restore it on the
	// shared workload (its refits are memo hits) and on a fresh one.
	s, err := humo.NewSession(w, req, hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driveSession(s, truth, 3); err != nil {
		t.Fatal(err)
	}
	var cp bytes.Buffer
	if err := s.Checkpoint(&cp); err != nil {
		t.Fatal(err)
	}
	s.Cancel()
	rest := ref
	rest.batches = ref.batches[3:]
	for name, rw := range map[string]*humo.Workload{"shared": w, "fresh": rebuildWorkload(t, w)} {
		r, err := humo.RestoreSession(rw, req, hybrid, bytes.NewReader(cp.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := driveSession(r, truth, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, "hybrid restored on the "+name+" workload", got, rest)
	}

	cfgs := []humo.SessionConfig{
		{Method: humo.MethodHybrid, Seed: 31, Resolve: true},
		{Method: humo.MethodRisk, Seed: 31, Resolve: true},
		{Method: humo.MethodHybrid, Seed: 32, Resolve: true},
		{Method: humo.MethodRisk, Seed: 32, Resolve: true},
	}
	shared := rebuildWorkload(t, w)
	got := make([]sessionOutcome, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = runSession(shared, truth, cfg)
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameOutcome(t, fmt.Sprintf("concurrent %s seed %d", cfg.Method, cfg.Seed), got[i], cold(cfg))
	}
}
