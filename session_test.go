package humo_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"humo"
)

// sessionFixture builds the shared parity workload: the paper's logistic
// generator at a size small enough for five methods to run twice.
func sessionFixture(t *testing.T) (*humo.Workload, map[int]bool) {
	t.Helper()
	labeled, err := humo.Logistic(humo.LogisticConfig{N: 12000, Tau: 14, Sigma: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pairs, truth := humo.Split(labeled)
	w, err := humo.NewWorkload(pairs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w, truth
}

// driveFromTruth answers every surfaced batch from the truth map, asserting
// batch hygiene (sorted, deduplicated, never re-surfaced) along the way. It
// returns the number of batches served.
func driveFromTruth(t *testing.T, s *humo.Session, truth map[int]bool) int {
	t.Helper()
	ctx := context.Background()
	surfaced := make(map[int]struct{})
	batches := 0
	for {
		b, err := s.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if b.Empty() {
			return batches
		}
		batches++
		ans := make(map[int]bool, len(b.IDs))
		for i, id := range b.IDs {
			if i > 0 && b.IDs[i-1] >= id {
				t.Fatalf("batch not sorted/deduplicated at position %d: %v >= %v", i, b.IDs[i-1], id)
			}
			if _, seen := surfaced[id]; seen {
				t.Fatalf("pair %d surfaced in two batches", id)
			}
			surfaced[id] = struct{}{}
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
}

// parityCases enumerates the five methods with matched one-shot and session
// configurations (same seeds, same knobs).
func parityCases(w *humo.Workload, truth map[int]bool) map[string]struct {
	oneShot func() (humo.Solution, *humo.SimulatedOracle, error)
	cfg     humo.SessionConfig
} {
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	return map[string]struct {
		oneShot func() (humo.Solution, *humo.SimulatedOracle, error)
		cfg     humo.SessionConfig
	}{
		"base": {
			oneShot: func() (humo.Solution, *humo.SimulatedOracle, error) {
				o := humo.NewSimulatedOracle(truth)
				sol, err := humo.Base(w, req, o, humo.BaseConfig{StartSubset: -1})
				return sol, o, err
			},
			cfg: humo.SessionConfig{Method: humo.MethodBase, Base: humo.BaseConfig{StartSubset: -1}},
		},
		"allsampling": {
			oneShot: func() (humo.Solution, *humo.SimulatedOracle, error) {
				o := humo.NewSimulatedOracle(truth)
				sol, err := humo.AllSampling(w, req, o, humo.SamplingConfig{
					PairsPerSubset: 30, Rand: rand.New(rand.NewSource(21)),
				})
				return sol, o, err
			},
			cfg: humo.SessionConfig{
				Method:   humo.MethodAllSampling,
				Sampling: humo.SamplingConfig{PairsPerSubset: 30},
				Seed:     21,
			},
		},
		"sampling": {
			oneShot: func() (humo.Solution, *humo.SimulatedOracle, error) {
				o := humo.NewSimulatedOracle(truth)
				sol, err := humo.PartialSampling(w, req, o, humo.SamplingConfig{
					Rand: rand.New(rand.NewSource(22)),
				})
				return sol, o, err
			},
			cfg: humo.SessionConfig{Method: humo.MethodPartialSampling, Seed: 22},
		},
		"hybrid": {
			oneShot: func() (humo.Solution, *humo.SimulatedOracle, error) {
				o := humo.NewSimulatedOracle(truth)
				sol, err := humo.Hybrid(w, req, o, humo.HybridConfig{
					Sampling: humo.SamplingConfig{Rand: rand.New(rand.NewSource(23))},
				})
				return sol, o, err
			},
			cfg: humo.SessionConfig{Method: humo.MethodHybrid, Seed: 23},
		},
		"budgeted": {
			oneShot: func() (humo.Solution, *humo.SimulatedOracle, error) {
				o := humo.NewSimulatedOracle(truth)
				sol, err := humo.Budgeted(w, 2500, o, humo.SamplingConfig{
					PairsPerSubset: 20, Rand: rand.New(rand.NewSource(24)),
				})
				return sol, o, err
			},
			cfg: humo.SessionConfig{
				Method:      humo.MethodBudgeted,
				Sampling:    humo.SamplingConfig{PairsPerSubset: 20},
				BudgetPairs: 2500,
				Seed:        24,
			},
		},
		"risk": {
			oneShot: func() (humo.Solution, *humo.SimulatedOracle, error) {
				o := humo.NewSimulatedOracle(truth)
				sol, err := humo.RiskAware(w, req, o, humo.RiskConfig{
					Sampling: humo.SamplingConfig{Rand: rand.New(rand.NewSource(25))},
				})
				return sol, o, err
			},
			cfg: humo.SessionConfig{Method: humo.MethodRisk, Seed: 25},
		},
	}
}

// TestSessionOneShotParity drives a Session batch by batch for every method
// and requires the bit-identical Solution and human cost of the direct
// search call with the same seed.
func TestSessionOneShotParity(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	for name, tc := range parityCases(w, truth) {
		t.Run(name, func(t *testing.T) {
			wantSol, o, err := tc.oneShot()
			if err != nil {
				t.Fatalf("one-shot: %v", err)
			}
			s, err := humo.NewSession(w, req, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			batches := driveFromTruth(t, s, truth)
			if err := s.Err(); err != nil {
				t.Fatalf("session error: %v", err)
			}
			if got := s.Solution(); got != wantSol {
				t.Errorf("solution diverged: session %+v, one-shot %+v", got, wantSol)
			}
			if got, want := s.Cost(), o.Cost(); got != want {
				t.Errorf("cost diverged: session %d, one-shot %d", got, want)
			}
			if !wantSol.Empty() && batches == 0 {
				t.Errorf("search labeled pairs but the session surfaced no batch")
			}
		})
	}
}

// TestSessionResolveParity checks the Resolve extension: the session's full
// labeling equals one-shot search + Resolve over the same oracle, cost
// included.
func TestSessionResolveParity(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}

	o := humo.NewSimulatedOracle(truth)
	sol, err := humo.Hybrid(w, req, o, humo.HybridConfig{
		Sampling: humo.SamplingConfig{Rand: rand.New(rand.NewSource(23))},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := sol.Resolve(w, o)

	s, err := humo.NewSession(w, req, humo.SessionConfig{
		Method: humo.MethodHybrid, Seed: 23, Resolve: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveFromTruth(t, s, truth)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	got := s.Labels()
	if len(got) != len(wantLabels) {
		t.Fatalf("labels length %d, want %d", len(got), len(wantLabels))
	}
	for i := range got {
		if got[i] != wantLabels[i] {
			t.Fatalf("label %d diverged", i)
		}
	}
	if gc, wc := s.Cost(), o.Cost(); gc != wc {
		t.Errorf("resolve cost diverged: session %d, one-shot %d", gc, wc)
	}
}

// TestSessionKnownPreload: with the full truth preloaded, the session
// terminates without surfacing a single batch and still reports the search's
// real cost.
func TestSessionKnownPreload(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	s, err := humo.NewSession(w, req, humo.SessionConfig{
		Method: humo.MethodPartialSampling, Seed: 22, Known: truth,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := driveFromTruth(t, s, truth); n != 0 {
		t.Fatalf("fully preloaded session surfaced %d batches", n)
	}
	if s.Cost() == 0 {
		t.Error("preloaded session reported zero cost")
	}
	wantSol, o, err := parityCases(w, truth)["sampling"].oneShot()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Solution(); got != wantSol {
		t.Errorf("solution diverged: %+v vs %+v", got, wantSol)
	}
	if got := s.Cost(); got != o.Cost() {
		t.Errorf("cost diverged: %d vs %d", got, o.Cost())
	}
}

// TestSessionCancelMidBatch cancels while a batch is outstanding: the
// session terminates with ErrSessionCanceled, and late Answers are refused.
func TestSessionCancelMidBatch(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	s, err := humo.NewSession(w, req, humo.SessionConfig{Method: humo.MethodHybrid, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := s.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b.Empty() {
		t.Fatal("expected an initial batch")
	}
	s.Cancel()
	if _, err := s.Next(ctx); !errors.Is(err, humo.ErrSessionCanceled) {
		t.Fatalf("Next after Cancel: %v, want ErrSessionCanceled", err)
	}
	if err := s.Err(); !errors.Is(err, humo.ErrSessionCanceled) {
		t.Fatalf("Err after Cancel: %v", err)
	}
	if err := s.Answer(map[int]bool{b.IDs[0]: truth[b.IDs[0]]}); !errors.Is(err, humo.ErrSessionDone) {
		t.Fatalf("Answer after Cancel: %v, want ErrSessionDone", err)
	}
}

// TestSessionNextContext: a canceled ctx interrupts Next without killing
// the session, which then proceeds normally.
func TestSessionNextContext(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	s, err := humo.NewSession(w, req, humo.SessionConfig{Method: humo.MethodBase, Base: humo.BaseConfig{StartSubset: -1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Next(context.Background())
	if err != nil || b.Empty() {
		t.Fatalf("initial Next: batch %v, err %v", b, err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// The pending batch is still served even under a canceled ctx (no wait
	// is needed), so answer it first, then hit the waiting path.
	ans := make(map[int]bool, len(b.IDs))
	for _, id := range b.IDs {
		ans[id] = truth[id]
	}
	if err := s.Answer(ans); err != nil {
		t.Fatal(err)
	}
	// By now the search may or may not have produced its next batch. Next
	// serves a batch that is already there and otherwise returns ctx's
	// error; TestNextCanceledBeforeBatch pins the second arm on its own.
	if b, err := s.Next(canceled); err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next with canceled ctx: %v, want context.Canceled or a ready batch", err)
		}
	} else if b.Empty() {
		t.Fatal("Next with canceled ctx: empty batch and no error, want context.Canceled or a ready batch")
	}
	driveFromTruth(t, s, truth)
	if err := s.Err(); err != nil {
		t.Fatalf("session failed after ctx interruption: %v", err)
	}
}

// TestSessionPartialAnswers: answering half a batch keeps the remainder
// pending; the search resumes only once the batch is covered.
func TestSessionPartialAnswers(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	s, err := humo.NewSession(w, req, humo.SessionConfig{Method: humo.MethodAllSampling,
		Sampling: humo.SamplingConfig{PairsPerSubset: 30}, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := s.Next(ctx)
	if err != nil || len(b.IDs) < 2 {
		t.Fatalf("initial batch %v, err %v", b, err)
	}
	half := b.IDs[:len(b.IDs)/2]
	ans := make(map[int]bool, len(half))
	for _, id := range half {
		ans[id] = truth[id]
	}
	if err := s.Answer(ans); err != nil {
		t.Fatal(err)
	}
	rem, err := s.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(b.IDs) - len(half); len(rem.IDs) != want {
		t.Fatalf("remainder batch has %d ids, want %d", len(rem.IDs), want)
	}
	for _, id := range rem.IDs {
		if _, answered := ans[id]; answered {
			t.Fatalf("answered pair %d resurfaced", id)
		}
	}
	driveFromTruth(t, s, truth)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCheckpointRestore round-trips a half-driven session through
// Checkpoint/RestoreSession and requires the restored run to terminate with
// the same Solution and cost as an uninterrupted one.
func TestSessionCheckpointRestore(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cfg := humo.SessionConfig{Method: humo.MethodHybrid, Seed: 23}

	// Reference: an uninterrupted session.
	ref, err := humo.NewSession(w, req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveFromTruth(t, ref, truth)
	if err := ref.Err(); err != nil {
		t.Fatal(err)
	}

	// Interrupted: answer three batches, checkpoint, abandon.
	s, err := humo.NewSession(w, req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		b, err := s.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b.Empty() {
			t.Fatal("session terminated before the checkpoint point")
		}
		ans := make(map[int]bool, len(b.IDs))
		for _, id := range b.IDs {
			ans[id] = truth[id]
		}
		if err := s.Answer(ans); err != nil {
			t.Fatal(err)
		}
	}
	var cp bytes.Buffer
	if err := s.Checkpoint(&cp); err != nil {
		t.Fatal(err)
	}
	s.Cancel()

	// Restore in a "new process" and drive to completion.
	restored, err := humo.RestoreSession(w, req, cfg, bytes.NewReader(cp.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	driveFromTruth(t, restored, truth)
	if err := restored.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Solution(), ref.Solution(); got != want {
		t.Errorf("restored solution %+v, want %+v", got, want)
	}
	if got, want := restored.Cost(), ref.Cost(); got != want {
		t.Errorf("restored cost %d, want %d", got, want)
	}
}

// TestRestoreSessionMismatch: a checkpoint is refused under a different
// seed, method, requirement or workload.
func TestRestoreSessionMismatch(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cfg := humo.SessionConfig{Method: humo.MethodHybrid, Seed: 23}
	s, err := humo.NewSession(w, req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cp bytes.Buffer
	if err := s.Checkpoint(&cp); err != nil {
		t.Fatal(err)
	}
	s.Cancel()

	bad := cfg
	bad.Seed = 99
	if _, err := humo.RestoreSession(w, req, bad, bytes.NewReader(cp.Bytes())); !errors.Is(err, humo.ErrCheckpointMismatch) {
		t.Errorf("seed mismatch: %v, want ErrCheckpointMismatch", err)
	}
	bad = cfg
	bad.Method = humo.MethodBase
	if _, err := humo.RestoreSession(w, req, bad, bytes.NewReader(cp.Bytes())); !errors.Is(err, humo.ErrCheckpointMismatch) {
		t.Errorf("method mismatch: %v, want ErrCheckpointMismatch", err)
	}
	bad = cfg
	bad.Hybrid.Sampling.PairsPerSubset = 17
	if _, err := humo.RestoreSession(w, req, bad, bytes.NewReader(cp.Bytes())); !errors.Is(err, humo.ErrCheckpointMismatch) {
		t.Errorf("search-knob mismatch: %v, want ErrCheckpointMismatch", err)
	}
	badReq := req
	badReq.Alpha = 0.8
	if _, err := humo.RestoreSession(w, badReq, cfg, bytes.NewReader(cp.Bytes())); !errors.Is(err, humo.ErrCheckpointMismatch) {
		t.Errorf("requirement mismatch: %v, want ErrCheckpointMismatch", err)
	}
	other, err := humo.NewWorkload([]humo.Pair{{ID: 1, Sim: 0.5}, {ID: 2, Sim: 0.7}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := humo.RestoreSession(other, req, cfg, bytes.NewReader(cp.Bytes())); !errors.Is(err, humo.ErrCheckpointMismatch) {
		t.Errorf("workload mismatch: %v, want ErrCheckpointMismatch", err)
	}
	_ = truth
}

// TestSessionRunWithLabeler drives Run with an Oracle-backed Labeler and
// checks parity; a failing Labeler must cancel the session and surface its
// error.
func TestSessionRunWithLabeler(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}

	wantSol, o, err := parityCases(w, truth)["hybrid"].oneShot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := humo.NewSession(w, req, humo.SessionConfig{Method: humo.MethodHybrid, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	human := humo.NewSimulatedOracle(truth)
	sol, err := s.Run(context.Background(), humo.OracleLabeler(human))
	if err != nil {
		t.Fatal(err)
	}
	if sol != wantSol {
		t.Errorf("Run solution %+v, want %+v", sol, wantSol)
	}
	if got, want := s.Cost(), o.Cost(); got != want {
		t.Errorf("Run cost %d, want %d", got, want)
	}
	if human.Cost() != s.Cost() {
		t.Errorf("labeler answered %d pairs, session charged %d", human.Cost(), s.Cost())
	}

	boom := errors.New("crowd platform down")
	failing, err := humo.NewSession(w, req, humo.SessionConfig{Method: humo.MethodHybrid, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	_, err = failing.Run(context.Background(), humo.LabelerFunc(func(ctx context.Context, ids []int) (map[int]bool, error) {
		return nil, boom
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("Run with failing labeler: %v, want wrapped %v", err, boom)
	}
	if !failing.Done() || !errors.Is(failing.Err(), humo.ErrSessionCanceled) {
		t.Errorf("failing Run left session done=%v err=%v", failing.Done(), failing.Err())
	}
}

// TestSessionConfigValidation: bad configurations fail at NewSession, not
// deep inside the first batch.
func TestSessionConfigValidation(t *testing.T) {
	w, _ := sessionFixture(t)
	if _, err := humo.NewSession(nil, humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9},
		humo.SessionConfig{Method: humo.MethodBase}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := humo.NewSession(w, humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9},
		humo.SessionConfig{Method: "quantum"}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := humo.NewSession(w, humo.Requirement{Alpha: 1.5, Beta: 0.9, Theta: 0.9},
		humo.SessionConfig{Method: humo.MethodBase}); err == nil {
		t.Error("invalid requirement accepted")
	}
	if _, err := humo.NewSession(w, humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9},
		humo.SessionConfig{Method: humo.MethodHybrid,
			Hybrid: humo.HybridConfig{Sampling: humo.SamplingConfig{Rand: rand.New(rand.NewSource(1))}}}); err == nil {
		t.Error("caller-supplied Rand accepted")
	}
}

// TestSessionAnswerEmptyNoOp pins the documented no-op contract: an empty
// (or nil) Answer records nothing, leaves the surfaced batch intact, and
// returns nil even on a terminated session — it must never consume a poll
// cycle or release the search.
func TestSessionAnswerEmptyNoOp(t *testing.T) {
	w, _ := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	s, err := humo.NewSession(w, req, humo.SessionConfig{Method: humo.MethodHybrid, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := s.Next(ctx)
	if err != nil || b.Empty() {
		t.Fatalf("initial batch: %v %v", b, err)
	}
	if err := s.Answer(nil); err != nil {
		t.Fatalf("Answer(nil) = %v, want nil", err)
	}
	if err := s.Answer(map[int]bool{}); err != nil {
		t.Fatalf("Answer(empty) = %v, want nil", err)
	}
	if got := s.Pending(); len(got) != len(b.IDs) {
		t.Fatalf("empty Answer disturbed the pending batch: %d of %d left", len(got), len(b.IDs))
	}
	again, err := s.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.IDs) != len(b.IDs) {
		t.Fatalf("empty Answer consumed the batch: Next returned %d ids, want %d", len(again.IDs), len(b.IDs))
	}
	s.Cancel()
	// Terminated session: empty stays a no-op, real labels stay an error.
	if err := s.Answer(nil); err != nil {
		t.Fatalf("Answer(nil) after termination = %v, want nil", err)
	}
	if err := s.Answer(map[int]bool{1: true}); err == nil {
		t.Fatal("Answer with labels after termination should fail")
	}
}

// TestSessionRiskProgress drives a MethodRisk session and checks the
// progress snapshot: absent for other methods, present and certified once a
// risk session completes.
func TestSessionRiskProgress(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	s, err := humo.NewSession(w, req, humo.SessionConfig{Method: humo.MethodRisk, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	driveFromTruth(t, s, truth)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	p, ok := s.RiskProgress()
	if !ok {
		t.Fatal("completed risk session reported no progress")
	}
	if !p.Certified || p.Remaining != 0 {
		t.Errorf("final risk progress %+v, want certified with nothing remaining", p)
	}
	sol := s.Solution()
	if p.Lo != sol.Lo || p.Hi != sol.Hi {
		t.Errorf("progress bounds [%d,%d] differ from solution %v", p.Lo, p.Hi, sol)
	}

	// Other methods never report risk progress.
	h, err := humo.NewSession(w, req, humo.SessionConfig{Method: humo.MethodHybrid, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	driveFromTruth(t, h, truth)
	if _, ok := h.RiskProgress(); ok {
		t.Error("hybrid session reported risk progress")
	}
}

// TestSessionRiskConfigValidation pins the session-level constraints on the
// risk configuration: live Rand and Progress fields are refused.
func TestSessionRiskConfigValidation(t *testing.T) {
	w, _ := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cfg := humo.SessionConfig{Method: humo.MethodRisk, Seed: 1}
	cfg.Risk.Sampling.Rand = rand.New(rand.NewSource(1))
	if _, err := humo.NewSession(w, req, cfg); err == nil {
		t.Error("risk sampling Rand should be refused")
	}
	cfg = humo.SessionConfig{Method: humo.MethodRisk, Seed: 1}
	cfg.Risk.Progress = func(humo.RiskProgress) {}
	if _, err := humo.NewSession(w, req, cfg); err == nil {
		t.Error("risk Progress hook should be refused")
	}
}

// TestSessionRiskCheckpointRestore round-trips a half-driven risk session
// through Checkpoint/RestoreSession: the restored run must land on the
// uninterrupted solution and cost (the schedule replays bit-identically
// from the label log), and a restore with different risk knobs must be
// refused by the configuration fingerprint.
func TestSessionRiskCheckpointRestore(t *testing.T) {
	w, truth := sessionFixture(t)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cfg := humo.SessionConfig{Method: humo.MethodRisk, Seed: 25}

	ref, err := humo.NewSession(w, req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveFromTruth(t, ref, truth)
	if err := ref.Err(); err != nil {
		t.Fatal(err)
	}

	s, err := humo.NewSession(w, req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		b, err := s.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b.Empty() {
			t.Fatal("risk session terminated before the checkpoint point")
		}
		ans := make(map[int]bool, len(b.IDs))
		for _, id := range b.IDs {
			ans[id] = truth[id]
		}
		if err := s.Answer(ans); err != nil {
			t.Fatal(err)
		}
	}
	var cp bytes.Buffer
	if err := s.Checkpoint(&cp); err != nil {
		t.Fatal(err)
	}
	s.Cancel()

	// Different risk knobs: the fingerprint must refuse the restore.
	tuned := cfg
	tuned.Risk.Schedule.BatchSize = 7
	if _, err := humo.RestoreSession(w, req, tuned, bytes.NewReader(cp.Bytes())); !errors.Is(err, humo.ErrCheckpointMismatch) {
		t.Fatalf("restore with changed risk knobs: %v, want ErrCheckpointMismatch", err)
	}
	// Workers-only changes replay fine (wall-clock knob, not a schedule knob).
	workers := cfg
	workers.Risk.Schedule.Workers = 8
	restored, err := humo.RestoreSession(w, req, workers, bytes.NewReader(cp.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	driveFromTruth(t, restored, truth)
	if err := restored.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Solution(), ref.Solution(); got != want {
		t.Errorf("restored solution %v, want %v", got, want)
	}
	if got, want := restored.Cost(), ref.Cost(); got != want {
		t.Errorf("restored cost %d, want %d", got, want)
	}
}
