// Package loadgen is the load-generation harness for humod: N concurrent
// clients drive M sessions through the full create → next → answer →
// status → delete lifecycle over the real HTTP API, answering from
// generated ground truth, and report per-operation latency quantiles and
// overall throughput. It is run small as a CI smoke (a p99 sanity bound)
// and large as a benchmark harness (cmd/humod -loadtest).
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"humo"
	"humo/internal/obs"
	"humo/internal/parallel"
	"humo/internal/serve"
)

// Config parameterizes a load run.
type Config struct {
	// BaseURL is the humod server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients bounds concurrently driven sessions (default 4).
	Clients int
	// Sessions is the total number of sessions driven (default Clients).
	Sessions int
	// Pairs sizes each session's generated workload (default 800).
	Pairs int
	// Seed derives each session's workload and search seed (session i uses
	// Seed+i), so a run is reproducible end to end.
	Seed int64
	// AppendEvery switches the run to the streaming-ingest scenario: each
	// session resolves a server-built workload (POST /v1/workloads) and
	// every N answer rounds a record batch is appended to it (POST
	// /v1/workloads/{name}/records), so the session absorbs candidate
	// deltas while resolving. 0 (the default) drives the static scenario.
	AppendEvery int
	// AppendRows is the records appended per table per append (default 4;
	// only with AppendEvery > 0).
	AppendRows int
}

func (cfg *Config) setDefaults() error {
	if cfg.BaseURL == "" {
		return errors.New("loadgen: Config.BaseURL is required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = cfg.Clients
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 800
	}
	if cfg.AppendEvery < 0 {
		cfg.AppendEvery = 0
	}
	if cfg.AppendRows <= 0 {
		cfg.AppendRows = 4
	}
	return nil
}

// The operation names latencies are keyed by.
const (
	OpCreate   = "create"
	OpNext     = "next"
	OpAnswer   = "answer"
	OpStatus   = "status"
	OpDelete   = "delete"
	OpWorkload = "workload"
	OpAppend   = "append"
)

// OpStats summarizes one operation across the run. Quantiles are upper
// bucket bounds (obs.Histogram).
type OpStats struct {
	Count  int64
	Errors int64
	Mean   time.Duration
	P50    time.Duration
	P95    time.Duration
	P99    time.Duration
	Max    time.Duration
}

// Report is the outcome of a load run.
type Report struct {
	Sessions   int
	Clients    int
	Pairs      int
	Elapsed    time.Duration
	Ops        int64              // total successful operations
	Throughput float64            // successful operations per second
	Retried    int64              // 429-shed polls that were retried
	PerOp      map[string]OpStats // keyed by Op* names
}

// String renders the report as an aligned transcript table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d sessions x %d pairs, %d clients, %.2fs wall, %d ops (%.0f ops/s, %d polls shed+retried)\n",
		r.Sessions, r.Pairs, r.Clients, r.Elapsed.Seconds(), r.Ops, r.Throughput, r.Retried)
	names := make([]string, 0, len(r.PerOp))
	for name := range r.PerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%-8s %8s %7s %10s %10s %10s %10s\n", "op", "count", "errors", "p50", "p95", "p99", "max")
	for _, name := range names {
		s := r.PerOp[name]
		fmt.Fprintf(&b, "%-8s %8d %7d %10s %10s %10s %10s\n",
			name, s.Count, s.Errors, s.P50, s.P95, s.P99, s.Max)
	}
	return b.String()
}

// runner carries the per-run instruments.
type runner struct {
	cfg     Config
	lat     map[string]*obs.Histogram
	errs    map[string]*obs.Counter
	retried obs.Counter
}

// Run drives the configured load against a live humod and returns the
// report. Worker failures (non-retryable HTTP errors, sessions that fail
// server-side) abort the run with an error; 429 shed polls are retried and
// counted, not failed — backpressure is an expected answer under load.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if err := cfg.setDefaults(); err != nil {
		return Report{}, err
	}
	r := &runner{
		cfg:  cfg,
		lat:  make(map[string]*obs.Histogram),
		errs: make(map[string]*obs.Counter),
	}
	for _, op := range []string{OpCreate, OpNext, OpAnswer, OpStatus, OpDelete, OpWorkload, OpAppend} {
		r.lat[op] = &obs.Histogram{}
		r.errs[op] = &obs.Counter{}
	}
	t0 := time.Now()
	err := parallel.ForEach(cfg.Clients, cfg.Sessions, func(i int) error {
		return r.driveSession(ctx, i)
	})
	elapsed := time.Since(t0)
	rep := Report{
		Sessions: cfg.Sessions,
		Clients:  cfg.Clients,
		Pairs:    cfg.Pairs,
		Elapsed:  elapsed,
		Retried:  r.retried.Value(),
		PerOp:    make(map[string]OpStats, len(r.lat)),
	}
	for op, h := range r.lat {
		s := h.Snapshot()
		if s.Count == 0 && r.errs[op].Value() == 0 {
			continue // op not exercised by this scenario
		}
		rep.PerOp[op] = OpStats{
			Count:  s.Count,
			Errors: r.errs[op].Value(),
			Mean:   time.Duration(s.MeanU) * time.Microsecond,
			P50:    time.Duration(s.P50U) * time.Microsecond,
			P95:    time.Duration(s.P95U) * time.Microsecond,
			P99:    time.Duration(s.P99U) * time.Microsecond,
			Max:    time.Duration(s.MaxU) * time.Microsecond,
		}
		rep.Ops += s.Count
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Ops) / elapsed.Seconds()
	}
	return rep, err
}

// P99 returns the worst p99 across the hot operations (next/answer/status),
// the bound the CI smoke asserts on. Create and delete are excluded: they
// amortize workload construction and journal teardown.
func (r Report) P99() time.Duration {
	var worst time.Duration
	for _, op := range []string{OpNext, OpAnswer, OpStatus} {
		if s, ok := r.PerOp[op]; ok && s.P99 > worst {
			worst = s.P99
		}
	}
	return worst
}

// statusEvery interleaves one status poll every this many answer rounds.
const statusEvery = 2

// scenario is what one driven session resolves: the create spec, the
// stand-in human that answers each surfaced pair, and an optional hook run
// after every answered round (the streaming scenario appends records there).
type scenario struct {
	spec   serve.Spec
	answer func(pairID int) bool
	round  func(ctx context.Context, rounds int) error
}

// driveSession runs one session start to finish: create, then next → answer
// (→ round hook, → status every statusEvery rounds) until the session is
// done, then delete. 429-shed polls are retried and counted.
func (r *runner) driveSession(ctx context.Context, i int) error {
	var sc scenario
	var err error
	if r.cfg.AppendEvery > 0 {
		sc, err = r.streamScenario(ctx, i)
	} else {
		sc, err = r.staticScenario(i)
	}
	if err != nil {
		return err
	}
	id := fmt.Sprintf("load-%d-%d", r.cfg.Seed, i)
	create := serve.CreateRequest{ID: id, Spec: sc.spec}
	if code, _, err := r.do(ctx, OpCreate, "POST", "/v1/sessions", create); err != nil {
		return err
	} else if code != http.StatusCreated {
		return fmt.Errorf("loadgen: session %d create: status %d", i, code)
	}
	rounds := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var next struct {
			IDs   []int  `json:"ids"`
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		code, body, err := r.do(ctx, OpNext, "GET", "/v1/sessions/"+id+"/next?wait=30s", nil)
		if err != nil {
			return err
		}
		switch code {
		case http.StatusNoContent:
			continue
		case http.StatusTooManyRequests:
			r.retried.Inc()
			select {
			case <-time.After(20 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		case http.StatusOK:
		default:
			return fmt.Errorf("loadgen: session %d next: status %d", i, code)
		}
		if err := json.Unmarshal(body, &next); err != nil {
			return fmt.Errorf("loadgen: session %d next body: %w", i, err)
		}
		if next.Done {
			if next.Error != "" {
				return fmt.Errorf("loadgen: session %d failed server-side: %s", i, next.Error)
			}
			break
		}
		labels := make(map[string]bool, len(next.IDs))
		for _, pid := range next.IDs {
			labels[strconv.Itoa(pid)] = sc.answer(pid)
		}
		if code, _, err := r.do(ctx, OpAnswer, "POST", "/v1/sessions/"+id+"/answers", map[string]any{"labels": labels}); err != nil {
			return err
		} else if code != http.StatusOK {
			return fmt.Errorf("loadgen: session %d answer: status %d", i, code)
		}
		rounds++
		if sc.round != nil {
			if err := sc.round(ctx, rounds); err != nil {
				return err
			}
		}
		if rounds%statusEvery == 0 {
			if code, _, err := r.do(ctx, OpStatus, "GET", "/v1/sessions/"+id, nil); err != nil {
				return err
			} else if code != http.StatusOK {
				return fmt.Errorf("loadgen: session %d status: status %d", i, code)
			}
		}
	}
	if code, _, err := r.do(ctx, OpDelete, "DELETE", "/v1/sessions/"+id, nil); err != nil {
		return err
	} else if code != http.StatusNoContent {
		return fmt.Errorf("loadgen: session %d delete: status %d", i, code)
	}
	return nil
}

// staticScenario resolves a generated logistic workload sent inline with
// the create request, answered from its ground truth.
func (r *runner) staticScenario(i int) (scenario, error) {
	labeled, err := humo.Logistic(humo.LogisticConfig{N: r.cfg.Pairs, Tau: 14, Sigma: 0.1, Seed: r.cfg.Seed + int64(i)})
	if err != nil {
		return scenario{}, fmt.Errorf("loadgen: session %d workload: %w", i, err)
	}
	pairs, truth := humo.Split(labeled)
	sp := make([]serve.SpecPair, len(pairs))
	for j, p := range pairs {
		sp[j] = serve.SpecPair{ID: p.ID, Sim: p.Sim}
	}
	return scenario{
		spec: serve.Spec{
			Method: "hybrid", Seed: r.cfg.Seed + int64(i),
			Alpha: 0.9, Beta: 0.9, Theta: 0.9,
			SubsetSize: 100,
			Pairs:      sp,
		},
		answer: func(pid int) bool { return truth[pid] },
	}, nil
}

// do performs one timed request. Transport errors count against the op and
// return an error; HTTP error statuses are returned for the caller to
// interpret (4xx/5xx semantics differ per op).
func (r *runner) do(ctx context.Context, op, method, path string, body any) (int, []byte, error) {
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.cfg.BaseURL+path, reader)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	res, err := http.DefaultClient.Do(req)
	d := time.Since(t0)
	r.lat[op].Observe(d)
	if err != nil {
		r.errs[op].Inc()
		return 0, nil, fmt.Errorf("loadgen: %s %s: %w", method, path, err)
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		r.errs[op].Inc()
		return 0, nil, fmt.Errorf("loadgen: %s %s body: %w", method, path, err)
	}
	if res.StatusCode >= 500 {
		r.errs[op].Inc()
	}
	return res.StatusCode, data, nil
}

// streamVocab seeds token overlap between generated rows, so the server's
// token blocking yields a dense candidate set and every append produces
// fresh candidate pairs for the sessions to absorb.
var streamVocab = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
	"golf", "hotel", "india", "juliett", "kilo", "lima",
}

// streamRow derives one deterministic record from a session-scoped salt
// and row index.
func streamRow(salt int64, i int) []string {
	v := streamVocab
	j := i + int(salt%int64(len(v)))
	name := v[j%len(v)] + " " + v[(j*3+1)%len(v)]
	desc := v[(j*5+2)%len(v)] + " " + v[(j*7+3)%len(v)]
	return []string{name, desc}
}

// maxAppendsPerSession bounds how many appends a streaming session absorbs:
// every append grows the workload and hence the rounds remaining, so
// without a bound a session could chase its own tail.
const maxAppendsPerSession = 3

// streamScenario is the streaming-ingest session: build a live workload
// server-side, resolve it over the HTTP API, and append records every
// AppendEvery answer rounds so the session absorbs candidate deltas
// mid-resolution.
func (r *runner) streamScenario(ctx context.Context, i int) (scenario, error) {
	salt := r.cfg.Seed + int64(i)
	name := fmt.Sprintf("load-%d-%d-w", r.cfg.Seed, i)
	// Rows per base table: token blocking emits roughly O(rows^2 / vocab)
	// candidates here, so size the tables toward the configured pair count.
	n := 10
	for ; n < 200 && n*n/len(streamVocab)*2 < r.cfg.Pairs; n++ {
	}
	wreq := serve.WorkloadRequest{
		Name:   name,
		TableA: serve.TableSpec{Attributes: []string{"name", "description"}},
		TableB: serve.TableSpec{Attributes: []string{"name", "description"}},
		Specs: []serve.WorkloadAttr{
			{Attribute: "name", Kind: "jaccard"},
			{Attribute: "description", Kind: "cosine"},
		},
		Block: "token", MinShared: 1, Threshold: 0.1,
	}
	for j := 0; j < n; j++ {
		wreq.TableA.Rows = append(wreq.TableA.Rows, streamRow(salt, j))
		wreq.TableB.Rows = append(wreq.TableB.Rows, streamRow(salt, j+1))
	}
	code, _, err := r.do(ctx, OpWorkload, "POST", "/v1/workloads", wreq)
	if err != nil {
		return scenario{}, err
	}
	if code != http.StatusCreated {
		return scenario{}, fmt.Errorf("loadgen: session %d workload build: status %d", i, code)
	}
	appends := 0
	return scenario{
		spec: serve.Spec{
			Method: "hybrid", Seed: salt,
			Alpha: 0.85, Beta: 0.85, Theta: 0.85,
			SubsetSize:   40,
			WorkloadFile: name + ".csv",
		},
		// Server-built candidates have no ground truth on the client; any
		// pure function of the pair id is a deterministic stand-in oracle.
		answer: func(pid int) bool { return pid%3 == 0 },
		round: func(ctx context.Context, rounds int) error {
			if appends >= maxAppendsPerSession || rounds%r.cfg.AppendEvery != 0 {
				return nil
			}
			areq := serve.AppendRequest{}
			for j := appends * r.cfg.AppendRows; j < (appends+1)*r.cfg.AppendRows; j++ {
				areq.RowsA = append(areq.RowsA, streamRow(salt+7, j))
				areq.RowsB = append(areq.RowsB, streamRow(salt+11, j))
			}
			appends++
			if code, _, err := r.do(ctx, OpAppend, "POST", "/v1/workloads/"+name+"/records", areq); err != nil {
				return err
			} else if code != http.StatusOK {
				return fmt.Errorf("loadgen: session %d append: status %d", i, code)
			}
			return nil
		},
	}, nil
}
