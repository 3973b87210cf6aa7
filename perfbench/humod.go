package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"humo"
	"humo/internal/serve"
)

// humodSize is the humod_http shape: recovered sessions, pairs per
// session, and batches answered before the state is closed.
type humodSize struct{ sessions, pairs, preAnswered int }

func humodScale(e *env) humodSize {
	if e.tiny {
		return humodSize{sessions: 6, pairs: 600, preAnswered: 2}
	}
	return humodSize{sessions: 128, pairs: 3000, preAnswered: 2}
}

// sessionSpec is session k of the humod workloads: a small logistic
// workload, hybrid for even k and risk for odd k, resolved to final labels.
func sessionSpec(seed int64, k, pairs int) (serve.Spec, map[int]bool, error) {
	lp, err := humo.Logistic(humo.LogisticConfig{N: pairs, Tau: 14, Sigma: 0.1, Seed: seed*100000 + int64(k)})
	if err != nil {
		return serve.Spec{}, nil, err
	}
	ps, truth := humo.Split(lp)
	spec := serve.Spec{Method: "hybrid", Seed: seed + int64(k), Alpha: 0.9, Beta: 0.9, Theta: 0.9, Resolve: true}
	if k%2 == 1 {
		spec.Method = "risk"
	}
	for _, p := range ps {
		spec.Pairs = append(spec.Pairs, serve.SpecPair{ID: p.ID, Sim: p.Sim})
	}
	return spec, truth, nil
}

// checkedSession is one session whose HTTP labels are compared with a
// library run after timing.
type checkedSession struct {
	k      int
	labels map[int]bool
}

func humodHTTP(e *env, r *result) error {
	size := humodScale(e)
	state := filepath.Join(e.dir, "state")
	if err := humodPrepare(e, state, size); err != nil {
		return fmt.Errorf("preparing state: %w", err)
	}

	// Set-up: recovery of the prepared state until the listener answers,
	// three times; the last manager stays up for the timed phase.
	var m *serve.Manager
	var srv *server
	var setups, opens []float64
	for i := 0; i < 3; i++ {
		if m != nil {
			if err := srv.stop(); err != nil {
				return err
			}
			if err := m.Close(); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if m, err = serve.Open(serve.Config{StateDir: state, MaxSessions: 1 << 14}); err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(t0)))
		if srv, err = startServer(m, e.trace); err != nil {
			return err
		}
		probe := newClient(e, srv.base, newHTTPStats())
		if _, err := probe.call("status", "GET", "/v1/sessions", nil, nil, -1, 0, http.StatusOK); err != nil {
			return err
		}
		probe.close()
		setups = append(setups, time.Since(t0).Seconds())
	}
	sort.Float64s(setups)
	sort.Float64s(opens)
	r.set("setup_s", median(setups), "s", len(setups), "median of 3 recoveries until the listener answers")
	r.layer("serve.open_ms", median(opens), "ms", len(opens), "median of 3")
	r.layer("serve.sessions_recovered", float64(m.Len()), "count", 1, "")

	st := newHTTPStats()
	var (
		mu        sync.Mutex
		queue     []int // recovered sessions still to drive
		nextFresh = size.sessions
		checked   []checkedSession
		lifecycle samples
		labels    samples
		rounds    int
		untraced  []float64
	)
	for k := 0; k < size.sessions; k++ {
		queue = append(queue, k)
	}
	e.probes(refProbes)
	runtime.GC()
	p0 := readProc()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(e, srv.base, st)
			defer cl.close()
			for {
				mu.Lock()
				k, fresh := 0, len(queue) == 0
				if fresh {
					k = nextFresh
					nextFresh++
				} else {
					k, queue = queue[0], queue[1:]
				}
				mu.Unlock()
				if fresh && time.Since(start) >= e.seconds {
					return
				}
				// Pairs of sessions (one hybrid, one risk) alternate
				// between traced and untraced.
				traced := e.trace && (k/2)%2 == 1
				lc, err := humodSession(cl, k, fresh, traced, e.seed, size.pairs)
				if err != nil {
					st.fail("session %d: %v", k, err)
					continue
				}
				mu.Lock()
				checked = append(checked, checkedSession{k: k, labels: lc.labels})
				rounds += lc.rounds
				if fresh {
					lifecycle.add(lc.wall)
					labels.addMs(float64(len(lc.labels)))
					if !traced {
						untraced = append(untraced, ms(lc.wall))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	procMetrics(r, p0, readProc())
	e.probes(refProbes)

	// State bytes per persisted label: only recovered sessions remain.
	var stateBytes int64
	filepath.Walk(state, func(_ string, fi os.FileInfo, err error) error { //nolint:errcheck // sizes only
		if err == nil && !fi.IsDir() {
			stateBytes += fi.Size()
		}
		return nil
	})
	held := 0
	for _, cs := range checked {
		if cs.k < size.sessions {
			held += len(cs.labels)
		}
	}
	r.layer("serve.state_bytes_per_label", float64(stateBytes)/float64(max(held, 1)), "bytes", held, "state-dir bytes / labels held")
	if err := srv.stop(); err != nil {
		return err
	}
	if err := m.Close(); err != nil {
		return err
	}

	conf, err := checkSessions(r, checked, e.seed, size.pairs)
	if err != nil {
		return err
	}
	xs := lifecycle.sorted()
	r.set("resolve_ms", median(xs), "ms", len(xs), "median fresh session: create to delete")
	ls := labels.sorted()
	r.set("human_labels", median(ls), "count", len(ls), "median labels per fresh session")
	p, rc := quality(conf.tp, conf.fp, conf.fn, 0)
	r.set("precision", p, "ratio", len(checked), "pooled over every driven session")
	r.set("recall", rc, "ratio", len(checked), "pooled over every driven session")
	r.latency("answer", st.rtt["answer"])
	r.latency("next", st.rtt["next"])
	r.latency("append", st.rtt["create"])
	r.set("rounds_per_s", float64(rounds)/elapsed.Seconds(), "1/s", rounds, "next+answer rounds per second, both clients")
	httpLayers(r, st)
	traceSummary(e, r, untraced)
	return nil
}

// humodSession drives session k to completion: fresh sessions are created
// first and deleted after their labels are read; recovered ones already
// exist and stay.
func humodSession(cl *client, k int, fresh, traced bool, seed int64, pairs int) (lifecycle, error) {
	id := fmt.Sprintf("s%05d", k)
	spec, truth, err := sessionSpec(seed, k, pairs)
	if err != nil {
		return lifecycle{}, err
	}
	ids := make([]int, 0, len(spec.Pairs))
	for _, p := range spec.Pairs {
		ids = append(ids, p.ID)
	}
	rec := cl.e.rec
	if !traced {
		rec = nil
	}
	parent := rec.start("op", -1, int64(k))
	t0 := time.Now()
	if fresh {
		if _, err := cl.call("create", "POST", "/v1/sessions", serve.CreateRequest{ID: id, Spec: spec}, nil, parent, int64(k), http.StatusCreated); err != nil {
			return lifecycle{}, err
		}
	}
	lc, err := cl.driveHTTP(id, parent, int64(k), func(pid int) bool { return truth[pid] })
	if err != nil {
		return lc, err
	}
	got, err := cl.fetchLabels(id, ids, parent, int64(k))
	if err != nil {
		return lc, err
	}
	if fresh {
		if _, err := cl.call("delete", "DELETE", "/v1/sessions/"+id, nil, nil, parent, int64(k), http.StatusNoContent); err != nil {
			return lc, err
		}
	}
	lc.wall = time.Since(t0)
	rec.stop(parent)
	if !fresh {
		// Answers sent before the restart are part of the session's log.
		for pid, v := range got {
			if _, ok := lc.labels[pid]; !ok {
				lc.labels[pid] = v
			}
		}
	}
	if !equalLabels(got, lc.labels) {
		return lc, fmt.Errorf("GET labels returned %d labels, the client answered %d", len(got), len(lc.labels))
	}
	return lc, nil
}

// humodPrepare builds the state directory the timed phase recovers:
// sessions created through the library, a few batches answered each, the
// manager closed.
func humodPrepare(e *env, state string, size humodSize) error {
	m, err := serve.Open(serve.Config{StateDir: state, MaxSessions: 1 << 14})
	if err != nil {
		return err
	}
	ctx := context.Background()
	for k := 0; k < size.sessions; k++ {
		spec, truth, err := sessionSpec(e.seed, k, size.pairs)
		if err != nil {
			return err
		}
		s, err := m.Create(fmt.Sprintf("s%05d", k), spec)
		if err != nil {
			return err
		}
		for b := 0; b < size.preAnswered; b++ {
			batch, err := s.Next(ctx)
			if err != nil || batch.Empty() {
				return fmt.Errorf("session %d ended during preparation: %v", k, err)
			}
			ans := make(map[int]bool, len(batch.IDs))
			for _, id := range batch.IDs {
				ans[id] = truth[id]
			}
			if err := s.Answer(ans); err != nil {
				return err
			}
		}
	}
	return m.Close()
}

// checkSessions replays every driven session through the library — same
// pairs, seed and method — and checks its answered labels equal what GET
// …/labels returned. It returns the pooled confusion of the library
// sessions' final labels.
func checkSessions(r *result, checked []checkedSession, seed int64, pairs int) (confusion, error) {
	var conf confusion
	for _, cs := range checked {
		spec, truth, err := sessionSpec(seed, cs.k, pairs)
		if err != nil {
			return conf, err
		}
		ps := make([]humo.Pair, len(spec.Pairs))
		for i, p := range spec.Pairs {
			ps[i] = humo.Pair{ID: p.ID, Sim: p.Sim}
		}
		w, err := humo.NewWorkload(ps, 0)
		if err != nil {
			return conf, err
		}
		method, err := humo.ParseMethod(spec.Method)
		if err != nil {
			return conf, err
		}
		s, err := humo.NewSession(w, requirement, humo.SessionConfig{Method: method, Seed: spec.Seed, Resolve: true})
		if err != nil {
			return conf, err
		}
		if _, err := s.Run(context.Background(), humo.OracleLabeler(humo.NewSimulatedOracle(truth))); err != nil {
			return conf, err
		}
		if !equalLabels(s.Answered(), cs.labels) {
			r.fail("session %d: HTTP labels (%d) differ from the library session's (%d)", cs.k, len(cs.labels), len(s.Answered()))
		}
		for i, l := range s.Labels() {
			conf.add(l, truth[w.Pair(i).ID])
		}
	}
	return conf, nil
}
