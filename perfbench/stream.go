package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"humo"
	"humo/internal/blocking"
	"humo/internal/dataio"
	"humo/internal/serve"
)

// streamSize is the stream_ingest shape: the held-out share of each
// table, the rows per append, the rounds between a client's appends, and
// the epoch whose workload the quality check resolves. How many appends a
// run makes depends on its speed, up to one per held-out chunk; every run
// reaches epoch resolveAt.
type streamSize struct {
	holdA, holdB float64
	perA, perB   int
	every        int
	resolveAt    int
}

func streamScale(e *env) streamSize {
	if e.tiny {
		return streamSize{holdA: 0.1, holdB: 0.05, perA: 1, perB: 10, every: 1, resolveAt: 4}
	}
	return streamSize{holdA: 0.2, holdB: 0.1, perA: 4, perB: 40, every: 10, resolveAt: 16}
}

// mirror is the client's library copy of the live workload. Before
// set-up it applies every held-out chunk, in the order the clients append
// them, through records.Table.Append and IncrementalWorkload.Sync. Every
// epoch's pairs are a prefix of the next, so the final copy gives the
// labeler the record pair behind any live pair id, and its chain and
// boundaries give each append's expected fingerprint and pair counts. The
// timed phase does no mirror work.
type mirror struct {
	ta, tb *humo.Table
	iw     *humo.IncrementalWorkload
	rowsA  []int // rows of each table at each epoch
	rowsB  []int
}

func newMirror(a0, b0 *humo.Table) (*mirror, error) {
	m := &mirror{ta: copyTable(a0), tb: copyTable(b0), rowsA: []int{a0.Len()}, rowsB: []int{b0.Len()}}
	var err error
	if m.iw, err = humo.NewIncrementalWorkload(context.Background(), m.ta, m.tb, dsGenConfig()); err != nil {
		return nil, err
	}
	return m, nil
}

func copyTable(t *humo.Table) *humo.Table {
	return &humo.Table{Name: t.Name, Attributes: t.Attributes, Records: append([]humo.Record(nil), t.Records...)}
}

// truth reports whether live pair id joins two records of one entity.
func (m *mirror) truth(id int) bool {
	c := m.iw.Generated().Candidates[id]
	return m.ta.Records[c.A].EntityID == m.tb.Records[c.B].EntityID
}

// apply appends one chunk as the next epoch.
func (m *mirror) apply(rec *recorder, op int64, a, b []humo.Record) error {
	var err error
	rec.timed("records.append", -1, op, func() {
		if len(a) > 0 {
			_, err = m.ta.Append(renumber(a, m.ta.Len())...)
		}
		if err == nil && len(b) > 0 {
			_, err = m.tb.Append(renumber(b, m.tb.Len())...)
		}
	})
	if err != nil {
		return err
	}
	rec.timed("blocking.sync", -1, op, func() { _, err = m.iw.Sync(context.Background()) })
	m.rowsA, m.rowsB = append(m.rowsA, m.ta.Len()), append(m.rowsB, m.tb.Len())
	return err
}

// epochs is the number of appends the mirror holds.
func (m *mirror) epochs() int { return len(m.rowsA) - 1 }

// tables returns the tables at epoch n.
func (m *mirror) tables(n int) (a, b *humo.Table) {
	cut := func(t *humo.Table, rows int) *humo.Table {
		return &humo.Table{Name: t.Name, Attributes: t.Attributes, Records: t.Records[:rows]}
	}
	return cut(m.ta, m.rowsA[n]), cut(m.tb, m.rowsB[n])
}

// workload returns the live workload at epoch n, checked against the
// epoch's fingerprint.
func (m *mirror) workload(n int) (*humo.Workload, error) {
	cands := m.iw.Generated().Candidates[:m.iw.Boundaries()[n]]
	ps := make([]humo.Pair, len(cands))
	for i, c := range cands {
		ps[i] = humo.Pair{ID: i, Sim: c.Sim}
	}
	w, err := humo.NewWorkload(ps, 0)
	if err != nil {
		return nil, err
	}
	if fp := humo.WorkloadFingerprint(w); fp != m.iw.Chain()[n] {
		return nil, fmt.Errorf("epoch %d workload fingerprint %s, chain %s", n, fp, m.iw.Chain()[n])
	}
	return w, nil
}

// chunk returns the held-out rows of append k (0-based): the clients
// append the pools in chunks of perA and perB rows.
func (size streamSize) chunk(k int, poolA, poolB []humo.Record) (a, b []humo.Record) {
	part := func(pool []humo.Record, per int) []humo.Record {
		return pool[min(k*per, len(pool)):min((k+1)*per, len(pool))]
	}
	return part(poolA, size.perA), part(poolB, size.perB)
}

// streamInputs splits the DS-like tables into the initial tables the live
// workload is built from and the held-out rows the clients append. Scholar
// rows are shuffled first so the held-out tail mixes duplicates, related
// papers and fillers. The split is fixed, like the tables (see dsTables):
// the human cost of resolving the live workload moved by 35% across five
// seeded splits. Record ids are row positions, as the server assigns.
func streamInputs(e *env, size streamSize) (a0, b0 *humo.Table, poolA, poolB []humo.Record, err error) {
	ds, err := dsTables(e)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	bs := append([]humo.Record(nil), ds.B.Records...)
	rand.New(rand.NewSource(1)).Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	for i := range bs {
		bs[i].ID = i
	}
	nA := len(ds.A.Records) - int(size.holdA*float64(len(ds.A.Records)))
	nB := len(bs) - int(size.holdB*float64(len(bs)))
	a0 = &humo.Table{Name: "a", Attributes: ds.A.Attributes, Records: append([]humo.Record(nil), ds.A.Records[:nA]...)}
	b0 = &humo.Table{Name: "b", Attributes: ds.B.Attributes, Records: append([]humo.Record(nil), bs[:nB]...)}
	return a0, b0, ds.A.Records[nA:], bs[nB:], nil
}

func rows(recs []humo.Record) [][]string {
	out := make([][]string, len(recs))
	for i, r := range recs {
		out[i] = r.Values
	}
	return out
}

func streamIngest(e *env, r *result) error {
	size := streamScale(e)
	a0, b0, poolA, poolB, err := streamInputs(e, size)
	if err != nil {
		return err
	}
	req := serve.WorkloadRequest{
		Name:   "ds",
		TableA: serve.TableSpec{Attributes: a0.Attributes, Rows: rows(a0.Records)},
		TableB: serve.TableSpec{Attributes: b0.Attributes, Rows: rows(b0.Records)},
		Specs: []serve.WorkloadAttr{
			{Attribute: "title", Kind: "jaccard"},
			{Attribute: "authors", Kind: "jaccard"},
			{Attribute: "venue", Kind: "jarowinkler"},
		},
		Block:          "lsh",
		BlockAttribute: "title",
		Threshold:      0.2,
	}
	var mir *mirror
	e.rec.timed("blocking.generate", -1, 0, func() { mir, err = newMirror(a0, b0) })
	if err != nil {
		return err
	}
	for k := 0; ; k++ {
		a, b := size.chunk(k, poolA, poolB)
		if len(a) == 0 && len(b) == 0 {
			break
		}
		if err := mir.apply(e.rec, int64(k), a, b); err != nil {
			return err
		}
	}
	spec := func(k int) serve.CreateRequest {
		return serve.CreateRequest{ID: fmt.Sprintf("s%05d", k), Spec: serve.Spec{
			Method: "hybrid", Seed: e.seed + int64(k), Alpha: 0.9, Beta: 0.9, Theta: 0.9, Resolve: true, WorkloadFile: "ds.csv",
		}}
	}

	// Set-up: open the manager, build the live workload, create the two
	// sessions, three times over fresh directories; the median is
	// setup_s and the last server stays up for the timed phase. A single
	// phase spread 32% of its median across ten seeds.
	st := newHTTPStats()
	var (
		m      *serve.Manager
		srv    *server
		built  serve.WorkloadInfo
		setups []float64
	)
	for i := 0; i < 3; i++ {
		if m != nil {
			if err := srv.stop(); err != nil {
				return err
			}
			if err := m.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(filepath.Join(e.dir, fmt.Sprintf("phase%d", i-1))); err != nil {
				return err
			}
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("phase%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		if m, err = serve.Open(serve.Config{StateDir: filepath.Join(dir, "state"), DataDir: dir, MaxSessions: 1 << 14}); err != nil {
			return err
		}
		if srv, err = startServer(m, e.trace); err != nil {
			return err
		}
		setupClient := newClient(e, srv.base, st)
		if _, err := setupClient.call("build", "POST", "/v1/workloads", req, &built, -1, 0, http.StatusCreated); err != nil {
			return err
		}
		for k := 0; k < 2; k++ {
			if _, err := setupClient.call("create", "POST", "/v1/sessions", spec(k), nil, -1, 0, http.StatusCreated); err != nil {
				return err
			}
		}
		setupClient.close()
		setups = append(setups, time.Since(t0).Seconds())
	}
	buildMs := st.rtt["build"].sorted()
	sort.Float64s(setups)
	r.set("setup_s", median(setups), "s", len(setups), "median of 3 × (open + workload build + 2 session creates)")

	in := newIngest(e, size, mir, st, spec, poolA, poolB)
	e.probes(refProbes)
	runtime.GC()
	p0 := readProc()
	start := time.Now()
	stopAt := start.Add(e.seconds)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := newClient(e, srv.base, st)
			defer cl.close()
			err := in.client(cl, k, stopAt)
			in.leave(k)
			if err != nil {
				st.fail("client %d: %v", k, err)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	procMetrics(r, p0, readProc())
	e.probes(refProbes)
	if err := srv.stop(); err != nil {
		return err
	}
	if err := m.Close(); err != nil {
		return err
	}
	m, srv = nil, nil
	runtime.GC()

	if mir.iw.Chain()[0] != built.Fingerprint {
		r.fail("stream: library build fingerprint %s, server built %s", mir.iw.Chain()[0], built.Fingerprint)
	}
	at := size.resolveAt
	if len(in.log) < at {
		r.fail("stream: the run made %d appends, fewer than the %d the quality check resolves", len(in.log), at)
		at = len(in.log)
	}
	conf, cost, err := streamCheck(r, mir, a0, b0, in.log, at, e.seed)
	if err != nil {
		return err
	}
	if e.trace {
		if err := traceReplay(e, mir, len(in.log)); err != nil {
			return err
		}
	}
	xs := in.cycles.sorted()
	r.set("resolve_ms", median(xs), "ms", len(xs), "median client cycle: rounds + status + one append")
	note := fmt.Sprintf("library session resolving the live workload at epoch %d", at)
	r.set("human_labels", float64(cost), "count", 1, note)
	p, rc := quality(conf.tp, conf.fp, conf.fn, 0)
	r.set("precision", p, "ratio", 1, note)
	r.set("recall", rc, "ratio", 1, note)
	r.latency("answer", st.rtt["answer"])
	r.latency("next", st.rtt["next"])
	r.latency("append", st.rtt["append"])
	r.set("rounds_per_s", float64(in.rounds)/elapsed.Seconds(), "1/s", in.rounds, "next+answer rounds per second, both clients")
	httpLayers(r, st)
	r.layerLatency("stream.replay_next_ms", st.rtt["replay"])
	r.layer("serve.build_workload_ms", median(buildMs), "ms", len(buildMs), "median POST /v1/workloads round trip")
	traceSummary(e, r, in.untraced)
	return nil
}

// ingest is the shared state of stream_ingest's timed phase.
type ingest struct {
	e            *env
	size         streamSize
	mir          *mirror
	st           *httpStats
	spec         func(int) serve.CreateRequest
	poolA, poolB []humo.Record

	// The two clients take turns: a client sends requests only in its own
	// turn, one round (GET …/next, then POST …/answers) or one status
	// poll with an append per turn, and then hands the turn over. No
	// request runs beside another request. The search an answer releases
	// runs on the other P during the other client's turn, so the next
	// GET …/next of the session finds its batch ready unless that search
	// outlasts the turn. With the first GET …/next sent right after the
	// answer, the share of Nexts that waited for the search moved from run
	// to run and next_tail_ms spread 31% and 34% over two sets of ten
	// seeds; with the rounds of the two clients interleaved at will, a
	// request often queued behind the other session's search. mu, held
	// through a turn, also guards the log.
	mu     sync.Mutex
	turned *sync.Cond
	turn   int                // the client whose turn it is
	left   [2]bool            // clients that stopped taking turns
	log    []serve.AppendInfo // acknowledged appends, in server order

	stats    sync.Mutex // guards the fields below
	nextK    int
	cycles   samples
	rounds   int
	untraced []float64
}

func newIngest(e *env, size streamSize, mir *mirror, st *httpStats, spec func(int) serve.CreateRequest, poolA, poolB []humo.Record) *ingest {
	in := &ingest{e: e, size: size, mir: mir, st: st, spec: spec, poolA: poolA, poolB: poolB, nextK: 2}
	in.turned = sync.NewCond(&in.mu)
	return in
}

// inTurn runs fn in client c's next turn, then hands the turn to the other
// client. A traced op times its wait for the turn as wait.turn.
func (in *ingest) inTurn(c int, rec *recorder, parent int, op int64, fn func() error) error {
	rec.timed("wait.turn", parent, op, func() {
		in.mu.Lock()
		for in.turn != c && !in.left[1-c] {
			in.turned.Wait()
		}
	})
	err := fn()
	in.turn = 1 - c
	in.mu.Unlock()
	in.turned.Broadcast()
	return err
}

// leave stops client c from taking turns, so the other no longer waits
// for it.
func (in *ingest) leave(c int) {
	in.mu.Lock()
	in.left[c] = true
	in.mu.Unlock()
	in.turned.Broadcast()
}

// appendRows sends the next held-out chunk and checks the epoch against
// the mirror's. It runs in a turn.
func (in *ingest) appendRows(cl *client, parent int, op int64, stopAt time.Time) error {
	seq := len(in.log) + 1
	if time.Now().After(stopAt) || seq > in.mir.epochs() {
		return nil
	}
	a, b := in.size.chunk(seq-1, in.poolA, in.poolB)
	var info serve.AppendInfo
	body := serve.AppendRequest{RowsA: rows(a), RowsB: rows(b)}
	if _, err := cl.call("append", "POST", "/v1/workloads/ds/records", body, &info, parent, op, http.StatusOK); err != nil {
		return err
	}
	in.log = append(in.log, info)
	bounds := in.mir.iw.Boundaries()
	fp, total := in.mir.iw.Chain()[seq], bounds[seq]
	if info.Seq != seq || info.Fingerprint != fp || info.NewPairs != total-bounds[seq-1] || info.TotalPairs != total {
		in.st.fail("append %d: server seq %d fingerprint %s (%d new, %d total), library %s (%d new, %d total)",
			seq, info.Seq, info.Fingerprint, info.NewPairs, info.TotalPairs, fp, total-bounds[seq-1], total)
	}
	return nil
}

// truth answers live pair id from the mirror; an id beyond the epoch of
// the acknowledged appends is a failed check. It runs in a turn.
func (in *ingest) truth(id int) bool {
	if id < 0 || id >= in.mir.iw.Boundaries()[len(in.log)] {
		in.st.fail("stream: the server handed out pair %d, beyond the acknowledged appends", id)
		return false
	}
	return in.mir.truth(id)
}

// client is closed-loop ingest client c. Its op is a cycle: every rounds
// answered on its session, a status poll, then one append of held-out
// rows. The first GET …/next of a session's search, after its create or
// after an append, runs the search over the whole live workload; it is
// timed as "replay" (stream.replay_next_ms), apart from next_ms. A session
// that terminates is checked, deleted and replaced by a fresh one. At
// stopAt the current session is checked and deleted untimed.
func (in *ingest) client(cl *client, c int, stopAt time.Time) error {
	k := c // the client's session
	sent := map[int]bool{}
	seen := -1 // appends the session had absorbed at its last Next; -1 before its first
	finish := func(parent int, op int64) error {
		if len(sent) > 0 {
			if err := cl.checkLabels(in.spec(k).ID, sent, parent, op); err != nil {
				return err
			}
		}
		_, err := cl.call("delete", "DELETE", "/v1/sessions/"+in.spec(k).ID, nil, nil, parent, op, http.StatusNoContent)
		return err
	}
	for n := int64(0); time.Now().Before(stopAt); n++ {
		traced := cl.e.trace && n%2 == 1
		rec := cl.e.rec
		if !traced {
			rec = nil
		}
		op := int64(c)<<32 | n
		parent := rec.start("op", -1, op)
		t0 := time.Now()
		done, rounds := false, 0
		for !done && rounds < in.size.every {
			err := in.inTurn(c, rec, parent, op, func() error {
				id := in.spec(k).ID
				nextOp := "next"
				if seen < len(in.log) {
					nextOp = "replay"
				}
				seen = len(in.log)
				ids, d, err := cl.next(id, nextOp, parent, op)
				if done = d; err != nil || done {
					return err
				}
				rounds++
				return cl.answer(id, ids, parent, op, in.truth, sent)
			})
			if err != nil {
				return err
			}
		}
		err := in.inTurn(c, rec, parent, op, func() error {
			if err := cl.status(in.spec(k).ID, parent, op); err != nil {
				return err
			}
			if !done {
				return in.appendRows(cl, parent, op, stopAt)
			}
			if err := finish(parent, op); err != nil {
				return err
			}
			in.stats.Lock()
			k, in.nextK = in.nextK, in.nextK+1
			in.stats.Unlock()
			sent, seen = map[int]bool{}, -1
			_, err := cl.call("create", "POST", "/v1/sessions", in.spec(k), nil, parent, op, http.StatusCreated)
			return err
		})
		if err != nil {
			return err
		}
		rec.stop(parent)
		d := time.Since(t0)
		in.stats.Lock()
		in.cycles.add(d)
		in.rounds += rounds
		if !traced {
			in.untraced = append(in.untraced, ms(d))
		}
		in.stats.Unlock()
	}
	return in.inTurn(c, nil, -1, 0, func() error { return finish(-1, 0) })
}

// streamCheck checks that the live workload after the run's last append
// holds exactly the pairs a one-shot GenerateWorkload over the tables of
// that epoch produces (the streaming-equivalence contract) and reports the
// ingest counts. It returns the confusion and human cost of a library
// session resolving the live workload at epoch at.
func streamCheck(r *result, mir *mirror, a0, b0 *humo.Table, log []serve.AppendInfo, at int, seed int64) (confusion, int, error) {
	var conf confusion
	ctx := context.Background()
	var deltas, shares samples
	for _, info := range log {
		deltas.addMs(float64(info.NewPairs))
		shares.addMs(float64(info.NewPairs) / float64(info.TotalPairs))
	}
	ds, ss := deltas.sorted(), shares.sorted()
	cands := mir.iw.Generated().Candidates[:mir.iw.Boundaries()[len(log)]]
	r.layer("ingest.delta_pairs", median(ds), "count", len(ds), "median new pairs per append")
	r.layer("ingest.total_pairs", float64(len(cands)), "count", 1, "after the last append")
	r.layer("ingest.delta_share", median(ss), "ratio", len(ss), "median new / total pairs per append")

	// Weights are the ones the live workload pinned at its build; the
	// live pairs, put in one-shot candidate order, must carry the one-shot
	// fingerprint.
	final := dsGenConfig()
	pinned, err := blocking.DistinctValueSpecs(a0, b0, final.Specs)
	if err != nil {
		return conf, 0, err
	}
	final.Specs = pinned
	ta, tb := mir.tables(len(log))
	one, err := humo.GenerateWorkload(ctx, ta, tb, final)
	if err != nil {
		return conf, 0, err
	}
	live := append([]humo.Candidate(nil), cands...)
	sort.Slice(live, func(i, j int) bool {
		if live[i].A != live[j].A {
			return live[i].A < live[j].A
		}
		return live[i].B < live[j].B
	})
	ps := make([]humo.Pair, len(live))
	for i, c := range live {
		ps[i] = humo.Pair{ID: i, Sim: c.Sim}
	}
	lw, err := humo.NewWorkload(ps, 0)
	if err != nil {
		return conf, 0, err
	}
	r.attempted++
	if fp := humo.WorkloadFingerprint(lw); fp != one.Fingerprint {
		r.fail("stream: live workload (%d pairs, canonical fingerprint %s) differs from one-shot generation (%d pairs, %s)", len(live), fp, len(one.Candidates), one.Fingerprint)
	}

	w, err := mir.workload(at)
	if err != nil {
		return conf, 0, err
	}
	s, err := humo.NewSession(w, requirement, humo.SessionConfig{Method: humo.MethodHybrid, Seed: seed, Resolve: true})
	if err != nil {
		return conf, 0, err
	}
	if _, err := s.Run(ctx, humo.LabelerFunc(func(_ context.Context, ids []int) (map[int]bool, error) {
		out := make(map[int]bool, len(ids))
		for _, id := range ids {
			out[id] = mir.truth(id)
		}
		return out, nil
	})); err != nil {
		return conf, 0, err
	}
	for i, l := range s.Labels() {
		conf.add(l, mir.truth(w.Pair(i).ID))
	}
	return conf, s.Cost(), nil
}

// traceReplay walks the mirror's epochs of the acknowledged appends for
// the traced run, timing the two steps of an append the mirror does not
// take: the CSV rewrite the server performs, and a session absorbing the
// delta (Extend, then the first Next, which replays the search).
func traceReplay(e *env, mir *mirror, appends int) error {
	ctx := context.Background()
	w, err := mir.workload(0)
	if err != nil {
		return err
	}
	sess, err := humo.NewSession(w, requirement, humo.SessionConfig{Method: humo.MethodHybrid, Seed: e.seed, Resolve: true})
	if err != nil {
		return err
	}
	defer sess.Cancel()
	answer := func(b humo.Batch) error {
		ans := make(map[int]bool, len(b.IDs))
		for _, id := range b.IDs {
			ans[id] = mir.truth(id)
		}
		return sess.Answer(ans)
	}
	pairs, chain, bounds := mir.iw.Generated().CorePairs(), mir.iw.Chain(), mir.iw.Boundaries()
	path := filepath.Join(e.dir, "replay.csv")
	for i := range appends {
		e.rec.timed("dataio.pairs_csv", -1, int64(i), func() {
			err = dataio.WriteFileAtomic(path, func(w io.Writer) error {
				return dataio.WritePairsFingerprinted(w, pairs[:bounds[i+1]], chain[i+1])
			})
		})
		if err != nil {
			return err
		}
		// Two answered rounds per epoch, then the delta is absorbed.
		for k := 0; k < 2 && !sess.Done(); k++ {
			b, err := sess.Next(ctx)
			if err != nil {
				return err
			}
			if b.Empty() {
				break
			}
			if err := answer(b); err != nil {
				return err
			}
		}
		if sess.Done() {
			continue
		}
		delta := pairs[bounds[i]:bounds[i+1]]
		e.rec.timed("session.extend", -1, int64(i), func() { err = sess.Extend(delta) })
		if err != nil {
			return err
		}
		var b humo.Batch
		e.rec.timed("session.replay", -1, int64(i), func() { b, err = sess.Next(ctx) })
		if err != nil {
			return err
		}
		if !b.Empty() {
			if err := answer(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// renumber gives held-out records the positional ids the server assigned.
func renumber(recs []humo.Record, from int) []humo.Record {
	out := append([]humo.Record(nil), recs...)
	for i := range out {
		out[i].ID = from + i
	}
	return out
}
