package humo_test

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"testing"

	"humo"
	"humo/internal/experiments"
)

// benchExperiment wraps one paper table/figure reproduction as a benchmark.
// Datasets are generated and cached once per benchmark (outside the timer);
// each iteration then re-runs the experiment's searches end to end at small
// scale with a few repetitions. cmd/humoexp runs the same experiments at the
// paper's full scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	env := experiments.NewEnv(experiments.ScaleSmall, 3, 7)
	if _, err := experiments.Run(env, id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(env, id)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// Paper artifacts (§VIII): one benchmark per table and figure.

func BenchmarkFig4MatchDistributions(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5LogisticCurves(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkTable1SVMReference(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkFig6HumanCost(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkTable2BaseQuality(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkTable3SampQuality(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkTable4HybrQuality(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkFig7ConfidenceDS(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8ConfidenceAB(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9VaryTau(b *testing.B)            { benchExperiment(b, "fig9") }
func BenchmarkFig10VarySigma(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkTable5HumoVsActlDS(b *testing.B)     { benchExperiment(b, "table5") }
func BenchmarkTable6HumoVsActlAB(b *testing.B)     { benchExperiment(b, "table6") }
func BenchmarkFig11CostPerF1(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkTable7Runtime(b *testing.B)          { benchExperiment(b, "table7") }
func BenchmarkFig12Scalability(b *testing.B)       { benchExperiment(b, "fig12") }

// Ablations beyond the paper (see DESIGN.md §4).

func BenchmarkAblationBaseWindow(b *testing.B)   { benchExperiment(b, "ablation-window") }
func BenchmarkAblationSubsetSize(b *testing.B)   { benchExperiment(b, "ablation-subset") }
func BenchmarkAblationAllVsPartial(b *testing.B) { benchExperiment(b, "ablation-allsamp") }
func BenchmarkAblationGPEpsilon(b *testing.B)    { benchExperiment(b, "ablation-eps") }
func BenchmarkAblationHumanError(b *testing.B)   { benchExperiment(b, "ablation-human-error") }
func BenchmarkAblationBudget(b *testing.B)       { benchExperiment(b, "ablation-budget") }
func BenchmarkAblationMetric(b *testing.B)       { benchExperiment(b, "ablation-metric") }

// Parallel harness: the same multi-repetition experiment pinned to one
// worker vs fanned out across GOMAXPROCS. The emitted tables are
// bit-identical; only wall-clock differs (compare the two benchmarks on a
// multi-core machine to see the speedup).

func benchExperimentWorkers(b *testing.B, id string, workers int) {
	b.Helper()
	env := experiments.NewEnv(experiments.ScaleSmall, 6, 7)
	env.Workers = workers
	if _, err := experiments.Run(env, id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(env, id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Workers1(b *testing.B)   { benchExperimentWorkers(b, "table3", 1) }
func BenchmarkTable3WorkersMax(b *testing.B) { benchExperimentWorkers(b, "table3", 0) }
func BenchmarkTable4Workers1(b *testing.B)   { benchExperimentWorkers(b, "table4", 1) }
func BenchmarkTable4WorkersMax(b *testing.B) { benchExperimentWorkers(b, "table4", 0) }

// Micro-benchmarks of the hot paths underneath the experiments.

func benchWorkload(b *testing.B, n int) (*humo.Workload, map[int]bool) {
	b.Helper()
	labeled, err := humo.Logistic(humo.LogisticConfig{N: n, Tau: 14, Sigma: 0.1, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	pairs, truth := humo.Split(labeled)
	w, err := humo.NewWorkload(pairs, 0)
	if err != nil {
		b.Fatal(err)
	}
	return w, truth
}

// coldWorkload rebuilds w outside the timer: an equal workload whose GP fit
// memo is empty, so that an iteration times every GP fit of its search
// instead of reading the fits of the iterations before it.
func coldWorkload(b *testing.B, w *humo.Workload) *humo.Workload {
	b.StopTimer()
	defer b.StartTimer()
	return rebuildWorkload(b, w)
}

func BenchmarkBaseSearch100k(b *testing.B) {
	w, truth := benchWorkload(b, 100000)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := humo.NewSimulatedOracle(truth)
		if _, err := humo.Base(w, req, o, humo.BaseConfig{StartSubset: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartialSampling100k(b *testing.B) {
	w, truth := benchWorkload(b, 100000)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := humo.NewSimulatedOracle(truth)
		cfg := humo.SamplingConfig{Rand: rand.New(rand.NewSource(int64(i)))}
		if _, err := humo.PartialSampling(coldWorkload(b, w), req, o, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHybrid100k(b *testing.B) {
	w, truth := benchWorkload(b, 100000)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := humo.NewSimulatedOracle(truth)
		cfg := humo.HybridConfig{Sampling: humo.SamplingConfig{Rand: rand.New(rand.NewSource(int64(i)))}}
		if _, err := humo.Hybrid(coldWorkload(b, w), req, o, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRiskSchedule is the CI-gated hot path of the risk-aware search:
// the full r-HUMO loop — GP fit, rarest-risk-first batch scheduling, the
// per-batch posterior re-estimation and certified-bound rescans — on a
// 100k-pair workload. scripts/bench_gate.sh fails a PR when its mean ns/op
// regresses by more than 20% against the base commit. Each iteration runs
// on a freshly built workload (coldWorkload), so it fits every GP. The
// Student-t critical values come from the process-wide stats.TTable, so
// iterations after the first read a warm table; the cold fill is measured
// on its own by internal/stats' BenchmarkTwoSidedTTable/cold.
func BenchmarkRiskSchedule(b *testing.B) {
	w, truth := benchWorkload(b, 100000)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := humo.NewSimulatedOracle(truth)
		cfg := humo.RiskConfig{Sampling: humo.SamplingConfig{Rand: rand.New(rand.NewSource(int64(i)))}}
		if _, err := humo.RiskAware(coldWorkload(b, w), req, o, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrectSchedule is the CI-gated hot path of risk-corrected
// verification: stratifying a 100k-pair machine label set, the per-stratum
// error posteriors, the riskiest-first batch schedule with per-batch
// re-estimation, and the stratified certificate rescans, run to
// certification. scripts/bench_gate.sh fails a PR when its mean ns/op
// regresses by more than 20% against the base commit. As in
// BenchmarkRiskSchedule, iterations after the first read a warm
// critical-value table.
func BenchmarkCorrectSchedule(b *testing.B) {
	w, truth := benchWorkload(b, 100000)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	// Synthetic classifier: ground truth with every 17th label flipped,
	// scored by similarity — errors spread across the score range.
	machine := make([]humo.CorrectLabel, w.Len())
	for i := 0; i < w.Len(); i++ {
		p := w.Pair(i)
		match := truth[p.ID]
		if p.ID%17 == 0 {
			match = !match
		}
		machine[i] = humo.CorrectLabel{ID: p.ID, Match: match, Score: p.Sim}
	}
	sort.Slice(machine, func(i, j int) bool { return machine[i].ID < machine[j].ID })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := humo.NewSimulatedOracle(truth)
		cfg := humo.CorrectConfig{Labels: machine, Rand: rand.New(rand.NewSource(int64(i)))}
		if _, _, err := humo.Correct(w, req, o, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionRestore restores a finished hybrid session's checkpoint
// on a 100k-pair workload and replays it to the end: the search re-runs
// from the label log without surfacing a batch. warm restores on the
// workload the session ran on, whose GP fit memo already holds every fit
// of the replay; cold restores on a freshly built equal workload
// (coldWorkload), which fits every GP again.
func BenchmarkSessionRestore(b *testing.B) {
	w, truth := benchWorkload(b, 100000)
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	cfg := humo.SessionConfig{Method: humo.MethodHybrid, Seed: 1}
	s, err := humo.NewSession(w, req, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := driveSession(s, truth, 0); err != nil {
		b.Fatal(err)
	}
	var cp bytes.Buffer
	if err := s.Checkpoint(&cp); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"warm", "cold"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rw := w
				if mode == "cold" {
					rw = coldWorkload(b, w)
				}
				r, err := humo.RestoreSession(rw, req, cfg, bytes.NewReader(cp.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				if next, err := r.Next(context.Background()); err != nil || !next.Empty() {
					b.Fatalf("restored session surfaced %d pairs (err %v), want none", len(next.IDs), err)
				}
				if r.Solution() != s.Solution() {
					b.Fatalf("restored solution %+v, want %+v", r.Solution(), s.Solution())
				}
			}
		})
	}
}

func BenchmarkWorkloadConstruction(b *testing.B) {
	labeled, err := humo.Logistic(humo.LogisticConfig{N: 100000, Tau: 14, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	pairs, _ := humo.Split(labeled)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := humo.NewWorkload(pairs, 0); err != nil {
			b.Fatal(err)
		}
	}
}
