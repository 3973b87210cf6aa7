package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"humo/internal/core"
	"humo/internal/datagen"
	"humo/internal/metrics"
	"humo/internal/oracle"
	"humo/internal/risk"
)

// dsBundle builds the seeded DS-like benchmark workload (the experiment
// harness's small-scale configuration) with its oracle ground truth.
func dsBundle(t testing.TB) (*core.Workload, map[int]bool, []bool) {
	t.Helper()
	cfg := datagen.DefaultDSConfig()
	cfg.Entities = 600
	cfg.Filler = 6000
	ds, err := datagen.DSLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs, truthMap := datagen.Split(ds.Pairs)
	w, err := core.NewWorkload(pairs, 50)
	if err != nil {
		t.Fatal(err)
	}
	return w, truthMap, datagen.TruthSlice(ds.Pairs)
}

// TestRiskBeatsHybridOnDSLike pins the r-HUMO claim on the seeded DS-like
// benchmark: MethodRisk satisfies the same precision/recall requirement as
// MethodHybrid while consuming strictly fewer oracle labels, end to end
// (sampling + schedule + final DH resolution).
func TestRiskBeatsHybridOnDSLike(t *testing.T) {
	w, truthMap, truth := dsBundle(t)
	req := core.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	for _, seed := range []int64{1, 2, 5} {
		oH := oracle.NewSimulated(truthMap)
		hyb, err := core.HybridSearch(w, req, oH, core.HybridConfig{
			Sampling: core.SamplingConfig{Rand: rand.New(rand.NewSource(seed))},
		})
		if err != nil {
			t.Fatal(err)
		}
		hyb.Resolve(w, oH)
		costHyb := oH.Cost()

		oR := oracle.NewSimulated(truthMap)
		sol, err := core.RiskSearch(w, req, oR, core.RiskConfig{
			Sampling: core.SamplingConfig{Rand: rand.New(rand.NewSource(seed))},
		})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Method != "RISK" {
			t.Fatalf("method = %q, want RISK", sol.Method)
		}
		labels := sol.Resolve(w, oR)
		costRisk := oR.Cost()
		q, err := metrics.Evaluate(labels, truth)
		if err != nil {
			t.Fatal(err)
		}
		if q.Precision < req.Alpha || q.Recall < req.Beta {
			t.Errorf("seed %d: risk missed the requirement: %+v", seed, q)
		}
		if costRisk >= costHyb {
			t.Errorf("seed %d: risk cost %d not strictly below hybrid cost %d", seed, costRisk, costHyb)
		}
	}
}

// recordingOracle wraps an oracle and records every batch it is asked, so
// the exact schedule of a search can be compared bit for bit.
type recordingOracle struct {
	inner *oracle.Simulated
	log   [][]int
}

func (r *recordingOracle) Label(id int) bool { return r.LabelAll([]int{id})[0] }

func (r *recordingOracle) LabelAll(ids []int) []bool {
	r.log = append(r.log, append([]int(nil), ids...))
	return r.inner.LabelAll(ids)
}

// TestRiskScheduleDeterministic pins the determinism contract: on the
// seeded DS-like workload the full schedule — every oracle batch in order —
// and the solution are bit-identical across runs and across worker counts.
// The critical-value tables are shared process-wide, so the first run may
// fill them cold while every later run reads them warm: the comparison is
// also a cold-vs-warm equivalence check.
func TestRiskScheduleDeterministic(t *testing.T) {
	w, truthMap, _ := dsBundle(t)
	req := core.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	run := func(schedWorkers, sampWorkers int) ([][]int, core.Solution) {
		o := &recordingOracle{inner: oracle.NewSimulated(truthMap)}
		sol, err := core.RiskSearch(w, req, o, core.RiskConfig{
			Sampling: core.SamplingConfig{Rand: rand.New(rand.NewSource(3)), Workers: sampWorkers},
			Schedule: risk.Config{Workers: schedWorkers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return o.log, sol
	}
	refLog, refSol := run(1, 1)
	if len(refLog) == 0 {
		t.Fatal("no oracle batches recorded")
	}
	for _, workers := range [][2]int{{1, 1}, {8, 1}, {1, 8}, {0, 0}} {
		log, sol := run(workers[0], workers[1])
		if sol != refSol {
			t.Fatalf("workers %v: solution %v differs from %v", workers, sol, refSol)
		}
		if !reflect.DeepEqual(log, refLog) {
			t.Fatalf("workers %v: schedule diverged", workers)
		}
	}
}

func TestRiskSearchValidation(t *testing.T) {
	w, truthMap, _ := dsBundle(t)
	o := oracle.NewSimulated(truthMap)
	if _, err := core.RiskSearch(w, core.Requirement{Alpha: 2, Beta: 0.9, Theta: 0.9}, o, core.RiskConfig{}); err == nil {
		t.Error("invalid requirement should fail")
	}
	req := core.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	if _, err := core.RiskSearch(w, req, o, core.RiskConfig{BudgetPairs: -1}); err == nil {
		t.Error("negative anytime budget should fail")
	}
	if _, err := core.RiskSearch(w, req, o, core.RiskConfig{Schedule: risk.Config{TailProb: 0.7}}); err == nil {
		t.Error("invalid schedule config should fail")
	}
	if _, err := core.RiskSearch(w, req, o, core.RiskConfig{
		Sampling: core.SamplingConfig{PairsPerSubset: 10},
	}); err == nil {
		t.Error("partial per-subset sampling without Rand should fail")
	}
}

// TestRiskAnytimeBudget pins the anytime contract: the schedule stops at
// the label budget, reports the exhaustion, and the returned division still
// meets the requirement once its DH is resolved by the human.
func TestRiskAnytimeBudget(t *testing.T) {
	w, truthMap, truth := dsBundle(t)
	req := core.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	var last core.RiskProgress
	o := oracle.NewSimulated(truthMap)
	const budget = 30
	sol, err := core.RiskSearch(w, req, o, core.RiskConfig{
		Sampling:    core.SamplingConfig{Rand: rand.New(rand.NewSource(1))},
		BudgetPairs: budget,
		Progress:    func(p core.RiskProgress) { last = p },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !last.BudgetExhausted {
		t.Errorf("budget %d should exhaust before convergence; final progress %+v", budget, last)
	}
	if last.Certified {
		t.Error("an exhausted schedule must not report convergence")
	}
	if last.Answered > budget {
		t.Errorf("schedule answered %d pairs, budget %d", last.Answered, budget)
	}
	labels := sol.Resolve(w, o)
	q, err := metrics.Evaluate(labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if q.Precision < req.Alpha || q.Recall < req.Beta {
		t.Errorf("anytime division missed the requirement after resolution: %+v", q)
	}
}

// TestRiskProgressReporting pins the progress stream invariants: batches
// count up, answered grows monotonically, and the final report is certified
// with nothing remaining.
func TestRiskProgressReporting(t *testing.T) {
	w, truthMap, _ := dsBundle(t)
	req := core.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	var reports []core.RiskProgress
	o := oracle.NewSimulated(truthMap)
	if _, err := core.RiskSearch(w, req, o, core.RiskConfig{
		Sampling: core.SamplingConfig{Rand: rand.New(rand.NewSource(1))},
		Progress: func(p core.RiskProgress) { reports = append(reports, p) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no progress reported")
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Answered < reports[i-1].Answered {
			t.Fatalf("answered shrank between reports %d and %d", i-1, i)
		}
	}
	final := reports[len(reports)-1]
	if !final.Certified || final.BudgetExhausted {
		t.Errorf("final progress %+v, want certified without budget exhaustion", final)
	}
	if final.Remaining != 0 {
		t.Errorf("certified schedule left %d pairs unanswered in DH", final.Remaining)
	}
}

// TestRiskSearchCostNeverExceedsCensus sanity-bounds the schedule: even on
// a workload whose matches are spread everywhere, the total human cost
// cannot exceed the workload size.
func TestRiskSearchCostNeverExceedsCensus(t *testing.T) {
	labeled, err := datagen.Logistic(datagen.LogisticConfig{N: 3000, Tau: 6, Sigma: 0.3, SubsetSize: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pairs, truthMap := datagen.Split(labeled)
	w, err := core.NewWorkload(pairs, 100)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.NewSimulated(truthMap)
	sol, err := core.RiskSearch(w, core.Requirement{Alpha: 0.95, Beta: 0.95, Theta: 0.9}, o, core.RiskConfig{
		Sampling: core.SamplingConfig{Rand: rand.New(rand.NewSource(4))},
	})
	if err != nil {
		t.Fatal(err)
	}
	sol.Resolve(w, o)
	if o.Cost() > w.Len() {
		t.Errorf("cost %d exceeds workload size %d", o.Cost(), w.Len())
	}
}
