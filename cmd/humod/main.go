// Command humod serves many concurrent resolution sessions over an HTTP
// JSON API, surviving process restarts.
//
// Each session drives one humo.Session; human workforces pull pending
// batches with GET /next (long-poll) and push answers with POST /answers.
// Sessions are partitioned by id hash across independent lock domains
// (-shards), and every answered batch is journaled as a delta appended to
// the session's journal file (compacted into the base checkpoint every
// -compact-every batches), so a humod killed at any point — SIGTERM or
// power cord — restarts on the same -state directory with every live
// session restored and completes each resolution bit-identically to an
// uninterrupted run.
//
// API (see internal/serve and the package documentation for the contract):
//
//	POST   /v1/sessions               create (inline pairs or workload_file)
//	GET    /v1/sessions               list
//	GET    /v1/sessions/{id}          status / solution / cost
//	GET    /v1/sessions/{id}/next     long-poll the pending batch
//	POST   /v1/sessions/{id}/answers  submit (partial) answers
//	GET    /v1/sessions/{id}/labels   long-poll answered labels
//	DELETE /v1/sessions/{id}          cancel and forget
//	POST   /v1/workloads              build a workload server-side from
//	                                  uploaded tables; persisted under -data
//	                                  so sessions reference it by file name
//	GET    /metrics                   counters + latency histograms (JSON)
//
// Long-polls are bounded per shard (-max-polls); polls beyond the bound are
// shed with 429 + Retry-After. On SIGTERM the server drains: new creates
// and polls get 503, parked polls complete inside the -drain window, then
// every session is checkpointed one last time.
//
// Load harness: -loadtest turns the binary into the load generator instead
// of the server, driving -load-sessions sessions from -clients concurrent
// clients against -target (or against a self-hosted throwaway server when
// -target is empty) and printing per-operation latency quantiles;
// -p99-max fails the run (exit 1) if the hot-path p99 exceeds the bound.
//
// Example:
//
//	humod -addr 127.0.0.1:8080 -state ./humod-state -data ./workloads
//	humod -loadtest -clients 8 -load-sessions 32 -pairs 1500
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"humo/internal/cliutil"
	"humo/internal/loadgen"
	"humo/internal/obs"
	"humo/internal/serve"
)

func main() {
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, shutdown))
}

// Exit codes: 0 clean shutdown, 1 runtime error, 2 usage error.
const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

// run is the whole server, parameterized over its streams and shutdown
// signal so tests can boot a real listener in-process, kill it
// mid-resolution, and restart it on the same state directory.
func run(args []string, stdout, stderr io.Writer, shutdown <-chan os.Signal) int {
	fs := flag.NewFlagSet("humod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		stateDir     = fs.String("state", "humod-state", "state directory for session specs and checkpoint journals")
		dataDir      = fs.String("data", ".", "directory workload_file session references are resolved in")
		maxSessions  = fs.Int("max-sessions", serve.DefaultMaxSessions, "cap on concurrently live sessions")
		shards       = fs.Int("shards", serve.DefaultShards, "independent session lock domains")
		maxPolls     = fs.Int("max-polls", serve.DefaultMaxPollsPerShard, "in-flight long-poll bound per shard (beyond it polls get 429)")
		compactEvery = fs.Int("compact-every", serve.DefaultCompactEvery, "answered batches between delta-journal compactions")
		drain        = fs.Duration("drain", 5*time.Second, "graceful-shutdown window for in-flight requests")
		logRequests  = fs.Bool("log-requests", false, "structured request log on stderr (adaptive steady-state sampling)")
		logEvery     = fs.Int("log-sample", 10, "with -log-requests, keep every Nth steady-state line (errors always log)")
		version      = fs.Bool("version", false, "print version information and exit")

		loadtest    = fs.Bool("loadtest", false, "run as a load generator instead of a server")
		target      = fs.String("target", "", "with -loadtest: server URL to drive (empty self-hosts a throwaway server)")
		clients     = fs.Int("clients", 4, "with -loadtest: concurrent clients")
		sessions    = fs.Int("load-sessions", 8, "with -loadtest: total sessions driven")
		pairs       = fs.Int("pairs", 800, "with -loadtest: workload pairs per session")
		loadSeed    = fs.Int64("load-seed", 1, "with -loadtest: base seed (session i uses seed+i)")
		p99Max      = fs.Duration("p99-max", 0, "with -loadtest: fail (exit 1) if hot-path p99 exceeds this bound (0 disables)")
		loadState   = fs.String("load-state", "", "with -loadtest and no -target: state dir of the self-hosted server (default temp dir)")
		appendEvery = fs.Int("append-every", 0, "with -loadtest: streaming scenario — append records to each session's server-built workload every N answer rounds (0 = static scenario)")
		appendRows  = fs.Int("append-rows", 4, "with -loadtest and -append-every: records appended per table per append")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	if *version {
		fmt.Fprintln(stdout, cliutil.VersionString("humod"))
		return exitOK
	}
	for name, v := range map[string]int{
		"-max-sessions": *maxSessions, "-shards": *shards, "-max-polls": *maxPolls,
		"-compact-every": *compactEvery, "-clients": *clients,
		"-load-sessions": *sessions, "-pairs": *pairs, "-log-sample": *logEvery,
		"-append-every": *appendEvery, "-append-rows": *appendRows,
	} {
		if err := cliutil.ValidateNonNegative(name, v); err != nil {
			fmt.Fprintln(stderr, "humod:", err)
			return exitUsage
		}
	}
	if *loadtest {
		return runLoadtest(loadtestConfig{
			target: *target, clients: *clients, sessions: *sessions,
			pairs: *pairs, seed: *loadSeed, p99Max: *p99Max,
			state: *loadState, shards: *shards, maxPolls: *maxPolls,
			appendEvery: *appendEvery, appendRows: *appendRows,
		}, stdout, stderr)
	}

	cfg := serve.Config{
		StateDir:         *stateDir,
		DataDir:          *dataDir,
		MaxSessions:      *maxSessions,
		Shards:           *shards,
		MaxPollsPerShard: *maxPolls,
		CompactEvery:     *compactEvery,
	}
	m, err := serve.Open(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "humod:", err)
		return exitError
	}
	if n := m.Len(); n > 0 {
		fmt.Fprintf(stdout, "humod: recovered %d session(s) from %s\n", n, *stateDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		m.Close()
		fmt.Fprintln(stderr, "humod:", err)
		return exitError
	}
	fmt.Fprintf(stdout, "humod: listening on %s\n", ln.Addr())

	var hc serve.HandlerConfig
	if *logRequests {
		hc.Log = obs.NewLogger(stderr, obs.Config{Interval: *logEvery})
	}

	// Long-polls block on their request context, which derives from
	// baseCtx: canceling it on shutdown makes every parked poll return
	// immediately instead of running out the drain window.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	srv := &http.Server{
		Handler:     serve.NewObservedHandler(m, hc),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	code := exitOK
	select {
	case <-shutdown:
		fmt.Fprintln(stdout, "humod: draining")
		// Drain order: shed new work first (503), then wake parked polls so
		// they complete with what they have, then wait out in-flight
		// requests, then checkpoint. Nothing in flight is cut off before it
		// answered its client.
		m.StartDrain()
		baseCancel()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "humod: draining requests:", err)
			code = exitError
		}
		cancel()
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "humod:", err)
			code = exitError
		}
	}
	// Checkpoint-on-shutdown: every session's delta journal is compacted
	// into its base snapshot one last time before the process exits,
	// whatever interrupted it.
	if err := m.Close(); err != nil {
		fmt.Fprintln(stderr, "humod: checkpointing sessions:", err)
		code = exitError
	}
	fmt.Fprintln(stdout, "humod: state saved, bye")
	return code
}

// loadtestConfig carries the -loadtest flags.
type loadtestConfig struct {
	target      string
	clients     int
	sessions    int
	pairs       int
	seed        int64
	p99Max      time.Duration
	state       string
	shards      int
	maxPolls    int
	appendEvery int
	appendRows  int
}

// runLoadtest drives loadgen against cfg.target, self-hosting a throwaway
// humod first when no target is given.
func runLoadtest(cfg loadtestConfig, stdout, stderr io.Writer) int {
	target := cfg.target
	if target == "" {
		state := cfg.state
		if state == "" {
			dir, err := os.MkdirTemp("", "humod-loadtest-*")
			if err != nil {
				fmt.Fprintln(stderr, "humod:", err)
				return exitError
			}
			defer os.RemoveAll(dir)
			state = dir
		}
		m, err := serve.Open(serve.Config{
			StateDir:         state,
			DataDir:          state,
			MaxSessions:      cfg.sessions + 1,
			Shards:           cfg.shards,
			MaxPollsPerShard: cfg.maxPolls,
		})
		if err != nil {
			fmt.Fprintln(stderr, "humod:", err)
			return exitError
		}
		defer m.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(stderr, "humod:", err)
			return exitError
		}
		srv := &http.Server{Handler: serve.NewHandler(m)}
		go srv.Serve(ln) //nolint:errcheck // torn down with the process
		defer srv.Close()
		target = "http://" + ln.Addr().String()
		fmt.Fprintf(stdout, "humod: self-hosted load target on %s (state %s)\n", target, state)
	}
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     target,
		Clients:     cfg.clients,
		Sessions:    cfg.sessions,
		Pairs:       cfg.pairs,
		Seed:        cfg.seed,
		AppendEvery: cfg.appendEvery,
		AppendRows:  cfg.appendRows,
	})
	if err != nil {
		fmt.Fprintln(stderr, "humod: loadtest:", err)
		return exitError
	}
	fmt.Fprint(stdout, rep.String())
	if cfg.p99Max > 0 {
		if p99 := rep.P99(); p99 > cfg.p99Max {
			fmt.Fprintf(stderr, "humod: loadtest p99 %s exceeds bound %s\n", p99, cfg.p99Max)
			return exitError
		}
		fmt.Fprintf(stdout, "humod: loadtest p99 %s within bound %s\n", rep.P99(), cfg.p99Max)
	}
	return exitOK
}
