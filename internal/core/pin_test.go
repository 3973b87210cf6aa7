package core_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"humo/internal/core"
	"humo/internal/correct"
	"humo/internal/datagen"
	"humo/internal/oracle"
)

// pinnedSearchDigests are the schedule digests (searchDigest) of the three
// scheduling searches on logisticPinBundle, recorded before the searches
// read their critical values from the shared stats.TTable. A change here is
// a change of results: every label request, solution and cost is hashed.
var pinnedSearchDigests = map[string]string{
	"RISK": "e49522db5715052e",
	"CORR": "a722d7b6fba2a02a",
	"HYBR": "ed29ea8bd5266faa",
}

// logisticPinBundle is a fixed 20k-pair logistic workload (τ=14, σ=0.1)
// with a similarity-scored classifier that gets every 17th label wrong.
func logisticPinBundle(t *testing.T) (*core.Workload, map[int]bool, []correct.Labeled) {
	t.Helper()
	lp, err := datagen.Logistic(datagen.LogisticConfig{N: 20000, Tau: 14, Sigma: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pairs, truth := datagen.Split(lp)
	w, err := core.NewWorkload(pairs, 0)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]correct.Labeled, 0, len(pairs))
	for _, p := range pairs {
		labels = append(labels, correct.Labeled{ID: p.ID, Match: truth[p.ID] != (p.ID%17 == 0), Score: p.Sim})
	}
	return w, truth, labels
}

// searchDigest hashes a search's full label-request sequence (batch by
// batch), its solution, its oracle cost and, for the corrected search, the
// emitted labels.
func searchDigest(log [][]int, sol core.Solution, cost int, labels []bool) string {
	h := fnv.New64a()
	for _, batch := range log {
		fmt.Fprintf(h, "%v;", batch)
	}
	fmt.Fprintf(h, "|%s %d %d %d|%d|%v", sol.Method, sol.Lo, sol.Hi, sol.SampledPairs, cost, labels)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSearchResultsPinned is the cross-version pin of the scheduling
// searches: RiskSearch, CorrectSearch and HybridSearch must reproduce the
// recorded request sequences, solutions and costs bit for bit, so
// optimisations of their estimators are checked to change time only.
func TestSearchResultsPinned(t *testing.T) {
	w, truth, labels := logisticPinBundle(t)
	req := core.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	seed := func() *rand.Rand { return rand.New(rand.NewSource(3)) }
	runs := map[string]func(o core.Oracle) (core.Solution, []bool, error){
		"RISK": func(o core.Oracle) (core.Solution, []bool, error) {
			sol, err := core.RiskSearch(w, req, o, core.RiskConfig{Sampling: core.SamplingConfig{Rand: seed()}})
			return sol, nil, err
		},
		"CORR": func(o core.Oracle) (core.Solution, []bool, error) {
			return core.CorrectSearch(w, req, o, core.CorrectConfig{Labels: labels, Rand: seed()})
		},
		"HYBR": func(o core.Oracle) (core.Solution, []bool, error) {
			sol, err := core.HybridSearch(w, req, o, core.HybridConfig{Sampling: core.SamplingConfig{Rand: seed()}})
			return sol, nil, err
		},
	}
	for name, run := range runs {
		o := &recordingOracle{inner: oracle.NewSimulated(truth)}
		sol, got, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := searchDigest(o.log, sol, o.inner.Cost(), got)
		if d != pinnedSearchDigests[name] {
			t.Errorf("%s: digest %s, pinned %s (solution %+v, cost %d, %d batches)",
				name, d, pinnedSearchDigests[name], sol, o.inner.Cost(), len(o.log))
		}
	}
}
