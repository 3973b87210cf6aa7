package experiments

import (
	"fmt"
	"time"

	"humo/internal/core"
)

func init() {
	registry["table7"] = Table7
	registry["fig12"] = Fig12
}

// Table7 reproduces the machine-runtime comparison on the two simulated
// real datasets (paper Table VII). Runtime covers only the optimization
// search, excluding data generation and human-verification latency, as in
// the paper. Each timed search runs on its own freshly built copy of the
// dataset's workload, so it fits every GP itself: a search on a shared
// workload would read the GP fits that earlier searches left in the
// workload's memo and report less than a cold search costs.
func Table7(e *Env) ([]*Table, error) {
	bundles, err := e.bothBundles()
	if err != nil {
		return nil, err
	}
	req := core.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	t := &Table{
		ID:     "table7",
		Title:  "machine runtime of the optimization searches",
		Header: []string{"dataset", "# pairs", "BASE", "SAMP", "HYBR"},
	}
	for _, b := range bundles {
		row := []string{b.name, fmt.Sprintf("%d", b.w.Len())}
		for _, m := range []string{methodBase, methodSamp, methodHybr} {
			avg, err := e.avgRuns(b.coldCopy(), m, req, minInt(e.Runs, 5))
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDuration(avg.elapsedMean))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// Fig12 reproduces the scalability experiment: runtime of the three
// approaches on synthetic workloads of growing size (paper Fig. 12). As in
// Table7, every timed search runs on its own freshly built workload.
func Fig12(e *Env) ([]*Table, error) {
	sizes := []int{10000, 50000, 100000, 200000, 400000, 800000}
	if e.Scale == ScaleSmall {
		sizes = []int{10000, 20000, 40000, 80000}
	}
	req := core.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	t := &Table{
		ID:     "fig12",
		Title:  "runtime scalability on synthetic workloads (tau=14, sigma=0.1)",
		Header: []string{"# pairs", "BASE", "SAMP", "HYBR"},
	}
	for _, n := range sizes {
		b, err := e.syntheticBundle(14, 0.1, n, e.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		b = b.coldCopy()
		row := []string{fmt.Sprintf("%d", n)}
		for _, m := range []string{methodBase, methodSamp, methodHybr} {
			res, err := runMethod(b, m, req, e.Seed)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDuration(res.elapsed))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

func fmtDuration(d time.Duration) string {
	return d.Round(time.Microsecond * 100).String()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
