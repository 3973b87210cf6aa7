// Package experiments reproduces every results table and figure of the
// paper's §VIII evaluation. Each experiment id (table1, fig6, ...) has a
// runner that returns one or more result Tables printing the same rows or
// series the paper reports; cmd/humoexp exposes them on the command line and
// bench_test.go wraps each in a benchmark.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"humo/internal/core"
	"humo/internal/crowd"
	"humo/internal/datagen"
	"humo/internal/metrics"
	"humo/internal/oracle"
	"humo/internal/parallel"
)

// ErrUnknownExperiment reports an unregistered experiment id.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// Table is a rendered experimental result: an id matching the paper
// artifact, a caption, column headers and formatted rows.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				for p := len(cell); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	printRow(divider(widths))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func divider(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Scale selects the dataset sizes the harness runs at.
type Scale int

const (
	// ScaleSmall shrinks datasets and repetition counts so the full suite
	// finishes in well under a minute — used by tests and benchmarks.
	ScaleSmall Scale = iota
	// ScaleFull mirrors the paper's dataset scale and repetition counts.
	ScaleFull
)

// Env carries the materialized datasets and run parameters shared by the
// experiment runners. Datasets are generated lazily, cached, and safe to
// request from concurrent runners: each cache is guarded by a sync.Once that
// also latches the generation error, so every caller observes the same
// dataset (or the same failure) no matter which goroutine got there first.
type Env struct {
	Scale Scale
	// Runs is the number of repetitions for the stochastic approaches
	// (the paper averages over 100).
	Runs int
	// Seed drives all experiment-level randomness.
	Seed int64
	// Workers bounds the goroutines used when repetitions fan out in
	// avgRuns; <= 0 selects GOMAXPROCS. Repetition seeds are fixed per
	// index, so every worker count produces bit-identical tables.
	Workers int

	dsOnce, abOnce   sync.Once
	dsWOnce, abWOnce sync.Once
	ds, ab           *datagen.ERDataset
	dsErr, abErr     error
	dsW, abW         *workloadBundle
	dsWErr, abWErr   error
}

// NewEnv builds an environment. runs <= 0 selects the scale default
// (100 for full, 10 for small).
func NewEnv(scale Scale, runs int, seed int64) *Env {
	if runs <= 0 {
		if scale == ScaleFull {
			runs = 100
		} else {
			runs = 10
		}
	}
	return &Env{Scale: scale, Runs: runs, Seed: seed}
}

// workloadBundle couples a workload with its ground truth in both layouts.
// refs carries the pair→record mapping for crowd-workforce experiments; it
// is populated only for the DS/AB bundles (synthetic bundles have no record
// identities to cluster on).
type workloadBundle struct {
	name     string
	w        *core.Workload
	truthMap map[int]bool
	truth    []bool // aligned with sorted pair positions
	refs     []crowd.PairRef
	// coldFits makes runMethod time each search on its own freshly built
	// copy of w, whose GP fit memo is empty: the runtime experiments
	// measure a first search on a workload, not one that reads the fits of
	// the searches before it.
	coldFits bool
}

func newBundle(name string, pairs []datagen.LabeledPair, subsetSize int) (*workloadBundle, error) {
	cp, truthMap := datagen.Split(pairs)
	w, err := core.NewWorkload(cp, subsetSize)
	if err != nil {
		return nil, err
	}
	return &workloadBundle{name: name, w: w, truthMap: truthMap, truth: datagen.TruthSlice(pairs)}, nil
}

func (b *workloadBundle) oracle() *oracle.Simulated { return oracle.NewSimulated(b.truthMap) }

// coldCopy returns b with coldFits set.
func (b *workloadBundle) coldCopy() *workloadBundle {
	c := *b
	c.coldFits = true
	return &c
}

// searchWorkload returns the workload runMethod searches: w itself, or
// under coldFits an equal, freshly built one.
func (b *workloadBundle) searchWorkload() (*core.Workload, error) {
	if !b.coldFits {
		return b.w, nil
	}
	pairs := make([]core.Pair, b.w.Len())
	for i := range pairs {
		pairs[i] = b.w.Pair(i)
	}
	return core.NewWorkload(pairs, b.w.SubsetSize())
}

// subsetSize returns the unit-subset size for the environment: the paper's
// 200 at full scale, 50 at small scale so the shrunken datasets still span
// a meaningful number of subsets.
func (e *Env) subsetSize() int {
	if e.Scale == ScaleFull {
		return core.DefaultSubsetSize
	}
	return 50
}

// DSConfig returns the generator configuration for the simulated
// DBLP-Scholar dataset at the environment's scale.
func (e *Env) DSConfig() datagen.DSConfig {
	cfg := datagen.DefaultDSConfig()
	if e.Scale == ScaleSmall {
		cfg.Entities = 600
		cfg.Filler = 6000
	}
	return cfg
}

// ABConfig returns the generator configuration for the simulated Abt-Buy
// dataset at the environment's scale.
func (e *Env) ABConfig() datagen.ABConfig {
	cfg := datagen.DefaultABConfig()
	if e.Scale == ScaleSmall {
		cfg.Entities = 260
		cfg.ExtraA = 8
		cfg.ExtraB = 10
	}
	return cfg
}

// DS returns the cached simulated DBLP-Scholar dataset. Safe for concurrent
// callers: the dataset is generated exactly once and the error is latched.
func (e *Env) DS() (*datagen.ERDataset, error) {
	e.dsOnce.Do(func() { e.ds, e.dsErr = datagen.DSLike(e.DSConfig()) })
	return e.ds, e.dsErr
}

// AB returns the cached simulated Abt-Buy dataset. Safe for concurrent
// callers.
func (e *Env) AB() (*datagen.ERDataset, error) {
	e.abOnce.Do(func() { e.ab, e.abErr = datagen.ABLike(e.ABConfig()) })
	return e.ab, e.abErr
}

func (e *Env) dsBundle() (*workloadBundle, error) {
	e.dsWOnce.Do(func() {
		ds, err := e.DS()
		if err != nil {
			e.dsWErr = err
			return
		}
		e.dsW, e.dsWErr = newBundle("DS", ds.Pairs, e.subsetSize())
		if e.dsWErr == nil {
			e.dsW.refs = ds.CrowdRefs()
		}
	})
	return e.dsW, e.dsWErr
}

func (e *Env) abBundle() (*workloadBundle, error) {
	e.abWOnce.Do(func() {
		ab, err := e.AB()
		if err != nil {
			e.abWErr = err
			return
		}
		e.abW, e.abWErr = newBundle("AB", ab.Pairs, e.subsetSize())
		if e.abWErr == nil {
			e.abW.refs = ab.CrowdRefs()
		}
	})
	return e.abW, e.abWErr
}

// runResult captures one approach run end to end.
type runResult struct {
	sol     core.Solution
	quality metrics.Quality
	cost    int // distinct manually labeled pairs (samples + DH)
	elapsed time.Duration
}

func (r runResult) costPct(w *core.Workload) float64 {
	return 100 * float64(r.cost) / float64(w.Len())
}

func (r runResult) met(req core.Requirement) bool {
	return r.quality.Precision >= req.Alpha && r.quality.Recall >= req.Beta
}

// Method names accepted by runMethod.
const (
	methodBase    = "BASE"
	methodSamp    = "SAMP"
	methodAllSamp = "ALLSAMP"
	methodHybr    = "HYBR"
	methodRisk    = "RISK"
)

// runMethod executes one optimization approach on the bundle with a fresh
// oracle and evaluates the resolved labeling against ground truth. The
// elapsed time covers only the machine search, matching the paper's runtime
// metric ("the reported runtime does not include ... the latency incurred by
// human verification").
func runMethod(b *workloadBundle, method string, req core.Requirement, seed int64) (runResult, error) {
	o := b.oracle()
	rng := rand.New(rand.NewSource(seed))
	sCfg := core.SamplingConfig{Rand: rng}
	w, err := b.searchWorkload()
	if err != nil {
		return runResult{}, err
	}
	var sol core.Solution
	start := time.Now()
	switch method {
	case methodBase:
		sol, err = core.BaseSearch(w, req, o, core.BaseConfig{StartSubset: -1})
	case methodSamp:
		sol, err = core.PartialSamplingSearch(w, req, o, sCfg)
	case methodAllSamp:
		sol, err = core.AllSamplingSearch(w, req, o, sCfg)
	case methodHybr:
		sol, err = core.HybridSearch(w, req, o, core.HybridConfig{Sampling: sCfg})
	case methodRisk:
		sol, err = core.RiskSearch(w, req, o, core.RiskConfig{Sampling: sCfg})
	default:
		return runResult{}, fmt.Errorf("%w: method %q", ErrUnknownExperiment, method)
	}
	elapsed := time.Since(start)
	if err != nil {
		return runResult{}, fmt.Errorf("%s on %s: %w", method, b.name, err)
	}
	labels := sol.Resolve(b.w, o)
	q, err := metrics.Evaluate(labels, b.truth)
	if err != nil {
		return runResult{}, err
	}
	return runResult{sol: sol, quality: q, cost: o.Cost(), elapsed: elapsed}, nil
}

// avgRuns repeats a stochastic method `runs` times with distinct seeds and
// averages cost and quality; it also reports the success rate of meeting the
// requirement — the Tables III/IV protocol.
type avgResult struct {
	costPct     float64
	precision   float64
	recall      float64
	successPct  float64
	elapsedMean time.Duration
}

// avgRuns fans the repetitions out across Env.Workers goroutines. Every
// repetition r derives its seed from its index alone (e.Seed + r*7919, the
// sequential harness's formula), results are collected by index, and the
// averages are accumulated in index order afterwards — so the statistics are
// bit-identical for any worker count, including 1 (strictly sequential).
// Only elapsedMean is wall-clock and varies run to run regardless of workers.
func (e *Env) avgRuns(b *workloadBundle, method string, req core.Requirement, runs int) (avgResult, error) {
	if method == methodBase {
		// BASE is deterministic: one run suffices.
		runs = 1
	}
	results, err := parallel.Map(e.Workers, runs, func(r int) (runResult, error) {
		return runMethod(b, method, req, e.Seed+int64(r)*7919)
	})
	if err != nil {
		return avgResult{}, err
	}
	return summarize(results, b, req), nil
}

// summarize accumulates repetition results into the averaged statistics, in
// index order so the output is independent of how the runs were scheduled.
func summarize(results []runResult, b *workloadBundle, req core.Requirement) avgResult {
	var out avgResult
	var elapsed time.Duration
	success := 0
	for _, res := range results {
		out.costPct += res.costPct(b.w)
		out.precision += res.quality.Precision
		out.recall += res.quality.Recall
		elapsed += res.elapsed
		if res.met(req) {
			success++
		}
	}
	n := float64(len(results))
	out.costPct /= n
	out.precision /= n
	out.recall /= n
	out.successPct = 100 * float64(success) / n
	out.elapsedMean = time.Duration(int64(elapsed) / int64(len(results)))
	return out
}

// Runner executes one experiment and returns its result tables.
type Runner func(e *Env) ([]*Table, error)

// registry maps experiment ids to runners; populated by init() in the
// per-experiment files.
var registry = map[string]Runner{}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id.
func Run(e *Env, id string) ([]*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %s)", ErrUnknownExperiment, id, strings.Join(IDs(), ", "))
	}
	return r(e)
}

func pct(v float64) string   { return fmt.Sprintf("%.2f", v) }
func frac4(v float64) string { return fmt.Sprintf("%.4f", v) }
