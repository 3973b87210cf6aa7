package experiments

import (
	"context"
	"fmt"

	"humo"
	"humo/internal/core"
	"humo/internal/crowd"
	"humo/internal/metrics"
	"humo/internal/parallel"
)

func init() {
	registry["crowdcost"] = CrowdCost
}

// runCrowdMethod executes the hybrid search on the bundle as a session
// driven by a crowd workforce, so every label request — whole subsets,
// per-subset samples, the final DH resolution — flows through the
// pack/vote/propagate pipeline instead of a perfect reviewer, and evaluates
// the resolved labeling (machine zones + crowd answers in DH) against ground
// truth. flat selects the CrowdER-free baseline: fixed-size pages, a fixed
// odd number of votes per pair, no transitive propagation, no escalation.
func runCrowdMethod(b *workloadBundle, flat bool, req core.Requirement, seed int64, workers int) (runResult, crowd.Stats, error) {
	l, err := crowd.NewLabeler(b.refs, b.truthMap, crowd.Config{
		Seed:    seed,
		Workers: workers,
		Flat:    flat,
	})
	if err != nil {
		return runResult{}, crowd.Stats{}, err
	}
	s, err := humo.NewSession(b.w, req, humo.SessionConfig{Method: humo.MethodHybrid, Seed: seed, Resolve: true})
	if err != nil {
		return runResult{}, crowd.Stats{}, err
	}
	sol, err := s.Run(context.Background(), l)
	if err != nil {
		return runResult{}, crowd.Stats{}, fmt.Errorf("crowd HYBR on %s: %w", b.name, err)
	}
	q, err := metrics.Evaluate(s.Labels(), b.truth)
	if err != nil {
		return runResult{}, crowd.Stats{}, err
	}
	return runResult{sol: sol, quality: q}, l.Stats(), nil
}

// crowdRun pairs the flat-baseline and crowd-pipeline outcomes of one
// repetition, sharing the same worker pool seed so the two differ only in
// packing, propagation and vote policy.
type crowdRun struct {
	flat, clustered           runResult
	flatStats, clusteredStats crowd.Stats
}

// crowdAvg aggregates repetitions of one (bundle, requirement) cell.
type crowdAvg struct {
	flatHITs, crowdHITs   float64
	flatVotes, crowdVotes float64
	conflicts             float64
	flatSuccessPct        float64
	crowdSuccessPct       float64
}

// hitsSavedPct reports the relative HIT saving of the crowd pipeline.
func (a crowdAvg) hitsSavedPct() float64 {
	if a.flatHITs == 0 {
		return 0
	}
	return 100 * (a.flatHITs - a.crowdHITs) / a.flatHITs
}

// votesSavedPct reports the relative vote saving of the crowd pipeline.
func (a crowdAvg) votesSavedPct() float64 {
	if a.flatVotes == 0 {
		return 0
	}
	return 100 * (a.flatVotes - a.crowdVotes) / a.flatVotes
}

// crowdAvgRuns fans the repetitions out exactly like avgRuns: seeds are
// fixed per index, results collected by index, so the table is bit-identical
// for any Env.Workers count.
func (e *Env) crowdAvgRuns(b *workloadBundle, req core.Requirement, runs int) (crowdAvg, error) {
	results, err := parallel.Map(e.Workers, runs, func(r int) (crowdRun, error) {
		seed := e.Seed + int64(r)*7919
		var (
			out  crowdRun
			rerr error
		)
		out.flat, out.flatStats, rerr = runCrowdMethod(b, true, req, seed, e.Workers)
		if rerr != nil {
			return out, rerr
		}
		out.clustered, out.clusteredStats, rerr = runCrowdMethod(b, false, req, seed, e.Workers)
		return out, rerr
	})
	var a crowdAvg
	if err != nil {
		return a, err
	}
	flatOK, crowdOK := 0, 0
	for _, res := range results {
		a.flatHITs += float64(res.flatStats.HITs)
		a.crowdHITs += float64(res.clusteredStats.HITs)
		a.flatVotes += float64(res.flatStats.Votes)
		a.crowdVotes += float64(res.clusteredStats.Votes)
		a.conflicts += float64(res.clusteredStats.Conflicts)
		if res.flat.met(req) {
			flatOK++
		}
		if res.clustered.met(req) {
			crowdOK++
		}
	}
	n := float64(runs)
	a.flatHITs /= n
	a.crowdHITs /= n
	a.flatVotes /= n
	a.crowdVotes /= n
	a.conflicts /= n
	a.flatSuccessPct = 100 * float64(flatOK) / n
	a.crowdSuccessPct = 100 * float64(crowdOK) / n
	return a, nil
}

// CrowdCost compares the crowd-workforce pipeline (CrowdER-style cluster
// HITs, transitive propagation, posterior-weighted adaptive voting) against
// the flat batcher (fixed pages, fixed votes, no inference) on both
// simulated datasets under identical quality requirements. Both sides run
// the same hybrid search over the same workload with the same simulated
// worker pool; the saved columns measure what the crowd machinery buys at
// equal quality.
func CrowdCost(e *Env) ([]*Table, error) {
	bundles, err := e.bothBundles()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "crowdcost",
		Title: fmt.Sprintf("crowd HITs and votes, flat batcher vs CrowdER-style pipeline (theta=0.9, %d runs)", e.Runs),
		Header: []string{
			"requirement",
			"DS flat HITs", "DS crowd HITs", "DS HITs saved %", "DS votes saved %", "DS success %",
			"AB flat HITs", "AB crowd HITs", "AB HITs saved %", "AB votes saved %", "AB success %",
		},
		Notes: []string{
			"both pipelines share the search seed and the simulated worker pool; " +
				"saved = (flat - crowd) / flat of the average HIT (page) and vote " +
				"counts; success is the crowd pipeline's rate of meeting the " +
				"requirement (the flat batcher's rate is equal on every grid " +
				"cell unless noted).",
		},
	}
	for _, level := range []float64{0.80, 0.90, 0.95} {
		req := core.Requirement{Alpha: level, Beta: level, Theta: 0.9}
		row := []string{fmt.Sprintf("a=b=%.2f", level)}
		for _, b := range bundles {
			a, err := e.crowdAvgRuns(b, req, e.Runs)
			if err != nil {
				return nil, err
			}
			if a.flatSuccessPct != a.crowdSuccessPct {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s a=b=%.2f: flat success %.0f%%, crowd success %.0f%%",
					b.name, level, a.flatSuccessPct, a.crowdSuccessPct))
			}
			row = append(row,
				fmt.Sprintf("%.1f", a.flatHITs), fmt.Sprintf("%.1f", a.crowdHITs),
				pct(a.hitsSavedPct()), pct(a.votesSavedPct()),
				fmt.Sprintf("%.0f", a.crowdSuccessPct))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}
