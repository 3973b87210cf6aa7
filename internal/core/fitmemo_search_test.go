package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"humo/internal/core"
	"humo/internal/oracle"
)

// memoRun is one search's observable result: its schedule digest
// (searchDigest), solution and oracle cost.
type memoRun struct {
	digest string
	sol    core.Solution
	cost   int
}

func runMemoSearch(w *core.Workload, truth map[int]bool, method string, seed int64) (memoRun, error) {
	o := &recordingOracle{inner: oracle.NewSimulated(truth)}
	req := core.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	sCfg := core.SamplingConfig{Rand: rand.New(rand.NewSource(seed))}
	var sol core.Solution
	var err error
	if method == "HYBR" {
		sol, err = core.HybridSearch(w, req, o, core.HybridConfig{Sampling: sCfg})
	} else {
		sol, err = core.RiskSearch(w, req, o, core.RiskConfig{Sampling: sCfg})
	}
	if err != nil {
		return memoRun{}, err
	}
	return memoRun{searchDigest(o.log, sol, o.inner.Cost(), nil), sol, o.inner.Cost()}, nil
}

// freshWorkload rebuilds w pair for pair: an equal workload with an empty
// GP fit memo.
func freshWorkload(t *testing.T, w *core.Workload) *core.Workload {
	t.Helper()
	pairs := make([]core.Pair, w.Len())
	for i := range pairs {
		pairs[i] = w.Pair(i)
	}
	fw, err := core.NewWorkload(pairs, w.SubsetSize())
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// TestFitMemoSearchesMatchFreshWorkload: searches that share one workload,
// and with it its GP fit memo, give exactly the results each gives on a
// workload of its own — serially (the hybrid search, the risk search at
// the same seed, then the hybrid search again) and from four goroutines at
// once.
func TestFitMemoSearchesMatchFreshWorkload(t *testing.T) {
	w, truth, _ := logisticPinBundle(t)
	cold := func(method string, seed int64) memoRun {
		r, err := runMemoSearch(freshWorkload(t, w), truth, method, seed)
		if err != nil {
			t.Fatalf("%s seed %d on a fresh workload: %v", method, seed, err)
		}
		return r
	}
	check := func(method string, seed int64, got memoRun, want memoRun) {
		t.Helper()
		if got != want {
			t.Errorf("%s seed %d on the shared workload: %+v, on a fresh one %+v", method, seed, got, want)
		}
	}

	fitted := 0
	for i, method := range []string{"HYBR", "RISK", "HYBR"} {
		got, err := runMemoSearch(w, truth, method, 3)
		if err != nil {
			t.Fatal(err)
		}
		check(method, 3, got, cold(method, 3))
		n := core.FitMemoLen(w)
		if i == 0 {
			fitted = n
		} else if n != fitted {
			// The risk search and the repeated hybrid search refit only
			// what the first search fitted.
			t.Errorf("after %s the memo holds %d fits, want the first search's %d", method, n, fitted)
		}
	}
	if fitted == 0 {
		t.Fatal("the hybrid search memoized no fit")
	}

	type job struct {
		method string
		seed   int64
	}
	jobs := []job{{"HYBR", 5}, {"RISK", 5}, {"HYBR", 6}, {"RISK", 6}}
	want := make([]memoRun, len(jobs))
	for i, j := range jobs {
		want[i] = cold(j.method, j.seed)
	}
	shared := freshWorkload(t, w)
	got := make([]memoRun, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = runMemoSearch(shared, truth, j.method, j.seed)
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		check(j.method, j.seed, got[i], want[i])
	}
}
