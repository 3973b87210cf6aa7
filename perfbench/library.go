package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"humo"
	"humo/internal/blocking"
)

var requirement = humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}

// libStats gathers the end-to-end distributions of the library workloads:
// a "next" is one Session.Next call, an "answer" one Session.Answer call,
// an "append" the call that builds the op's workload from its input.
type libStats struct {
	op, next, answer, build samples
	rounds                  int
	opWall                  time.Duration
}

// sessionRun is what driving one session to termination measured.
type sessionRun struct {
	wall, next, answer, labeler time.Duration
	batches                     int
}

// drive runs a session to termination against an instant simulated
// labeler answering from truth, timing every call. Spans go under parent.
func drive(e *env, st *libStats, op int64, parent int, method string, s *humo.Session, truth func(id int) bool) (sessionRun, error) {
	var run sessionRun
	ctx := context.Background()
	t0 := time.Now()
	for {
		var b humo.Batch
		var err error
		d := e.rec.timed("session."+method+".next", parent, op, func() { b, err = s.Next(ctx) })
		run.next += d
		st.next.add(d)
		if err != nil {
			return run, fmt.Errorf("%s session next: %w", method, err)
		}
		if b.Empty() {
			break
		}
		ans := make(map[int]bool, len(b.IDs))
		run.labeler += e.rec.timed("labeler", parent, op, func() {
			for _, id := range b.IDs {
				ans[id] = truth(id)
			}
		})
		d = e.rec.timed("session."+method+".answer", parent, op, func() { err = s.Answer(ans) })
		run.answer += d
		st.answer.add(d)
		if err != nil {
			return run, fmt.Errorf("%s session answer: %w", method, err)
		}
		run.batches++
		st.rounds++
	}
	run.wall = time.Since(t0)
	if err := s.Err(); err != nil {
		return run, fmt.Errorf("%s session: %w", method, err)
	}
	return run, nil
}

// digest hashes an op's observable output: label vectors and solutions.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: fnv.New64a().Sum64()} }

func (d *digest) add(parts ...any) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x", d.h)
	for _, p := range parts {
		switch v := p.(type) {
		case []bool:
			b := make([]byte, len(v))
			for i, x := range v {
				if x {
					b[i] = 1
				}
			}
			h.Write(b)
		default:
			fmt.Fprintf(h, "|%+v", v)
		}
	}
	d.h = h.Sum64()
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }

// timedLoop runs ops until the window closes, after one discarded warm-up
// op that completes setup. Op n runs the input variant n%variants, and an
// op must give the same output digest as every earlier op of its variant.
// Two reference probes run before every op. In a traced run every other op
// runs untraced, so the traced op times can be set against untraced ones.
func timedLoop(e *env, r *result, setupStart time.Time, variants int, op func(n int64, traced bool) (string, error)) (untraced []float64, err error) {
	want := make([]string, variants)
	if want[0], err = op(0, false); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	r.set("setup_s", time.Since(setupStart).Seconds(), "s", 1, "inputs + warm-up op")
	r.digest = want[0]
	runtime.GC()
	p0 := readProc()
	start := time.Now()
	for n := int64(1); n == 1 || time.Since(start) < e.seconds; n++ {
		traced := e.trace && n%2 == 0
		runtime.GC()
		e.probes(2)
		t0 := time.Now()
		got, err := op(n, traced)
		wall := ms(time.Since(t0))
		r.attempted++
		k := int(n) % variants
		switch {
		case err != nil:
			r.fail("op %d: %v", n, err)
		case want[k] == "":
			want[k] = got
		case got != want[k]:
			r.fail("op %d: output digest %s differs from variant %d's %s", n, got, k, want[k])
		}
		if !traced {
			untraced = append(untraced, wall)
		}
	}
	p1 := readProc()
	p1.cpu -= e.probeCPU
	procMetrics(r, p0, p1)
	return untraced, nil
}

// traceSummary reports the traced op time and the tracing overhead
// against the untraced ops of the same run.
func traceSummary(e *env, r *result, untraced []float64) {
	if !e.trace {
		return
	}
	walls := attribute(r, e.rec, e.spans)
	perOp(r, len(walls))
	sort.Float64s(untraced)
	tm, um := median(walls), median(untraced)
	r.layer("trace.op_ms", tm, "ms", len(walls), "median traced op (cycle, session)")
	if um > 0 {
		r.layer("trace.overhead_share", (tm-um)/um, "ratio", len(untraced), fmt.Sprintf("untraced median %.3f ms", um))
	}
}

// ---- pipeline_lsh ----

// dsTables generates the DS-like tables of DefaultDSConfig, generator
// seed included: 2,600 DBLP × ~47k Scholar records at full scale. Like
// search_mix's pairs, the draw is fixed because the human cost of one draw
// differs from the next by a factor of two (five seeds gave 4,308-9,788
// labels per pipeline_lsh op); the run seed drives the sessions' sampling.
func dsTables(e *env) (*humo.ERDataset, error) {
	cfg := humo.DefaultDSConfig()
	if e.tiny {
		cfg.Entities, cfg.Filler = 120, 1500
	}
	return humo.DSLike(cfg)
}

// dsGenConfig is the §VIII-A recipe with LSH blocking on the title. The
// blocking knobs are spelled out so the traced split in genParts reads
// the same config GenerateWorkload does; they are GenConfig's defaults,
// which the live workload humod builds also uses.
func dsGenConfig() humo.GenConfig {
	return humo.GenConfig{
		Specs: []humo.AttributeSpec{
			{Attribute: "title", Kind: humo.KindJaccard},
			{Attribute: "authors", Kind: humo.KindJaccard},
			{Attribute: "venue", Kind: humo.KindJaroWinkler},
		},
		Block:          humo.BlockLSH,
		BlockAttribute: "title",
		Threshold:      0.2,
		MinShared:      1,
		Window:         10,
		Rows:           2,
		Bands:          32,
	}
}

// truePairs counts the matching record pairs of two tables.
func truePairs(a, b *humo.Table) int {
	inA := map[int]int{}
	for _, r := range a.Records {
		inA[r.EntityID]++
	}
	n := 0
	for _, r := range b.Records {
		n += inA[r.EntityID]
	}
	return n
}

func pipelineLSH(e *env, r *result) error {
	setupStart := time.Now()
	ds, err := dsTables(e)
	if err != nil {
		return err
	}
	ta, tb := ds.A, ds.B
	cfg := dsGenConfig()
	allTrue := truePairs(ta, tb)
	var st libStats
	var conf confusion
	var labels float64
	var fingerprint string
	op := func(n int64, traced bool) (string, error) {
		rec := e.rec
		if !traced {
			rec = nil
		}
		oe := *e
		oe.rec = rec
		t0 := time.Now()
		root := rec.start("op", -1, n)
		defer rec.stop(root)
		var cands []humo.Candidate
		var w *humo.Workload
		if traced {
			var g genParts
			if err := g.run(&oe, root, n, ta, tb, cfg); err != nil {
				return "", err
			}
			cands, w = g.cands, g.w
			if fp := humo.WorkloadFingerprint(w); fp != fingerprint {
				return "", fmt.Errorf("layer-split generation fingerprint %s, GenerateWorkload gave %s", fp, fingerprint)
			}
		} else {
			tg := time.Now()
			g, err := humo.GenerateWorkload(context.Background(), ta, tb, cfg)
			if err != nil {
				return "", err
			}
			st.build.add(time.Since(tg))
			cands, w, fingerprint = g.Candidates, g.Workload, g.Fingerprint
		}
		truth := func(id int) bool {
			c := cands[id]
			return ta.Records[c.A].EntityID == tb.Records[c.B].EntityID
		}
		s, err := humo.NewSession(w, requirement, humo.SessionConfig{Method: humo.MethodHybrid, Seed: e.seed, Resolve: true})
		if err != nil {
			return "", err
		}
		run, err := drive(&oe, &st, n, root, "hybrid", s, truth)
		if err != nil {
			return "", err
		}
		got := s.Labels()
		c := confusion{}
		matches := 0
		for i, l := range got {
			t := truth(w.Pair(i).ID)
			c.add(l, t)
			if t {
				matches++
			}
		}
		if n == 0 {
			conf, labels = c, float64(s.Cost())
			r.layer("blocking.candidates", float64(len(cands)), "count", 1, "")
			r.layer("blocking.recall", float64(matches)/float64(max(allTrue, 1)), "ratio", 1, "true-match candidates / true record pairs")
			r.layer("blocking.match_yield", float64(matches)/float64(max(len(cands), 1)), "ratio", 1, "true-match candidates / candidates")
		}
		if traced {
			sessionLayers(r, "hybrid", run, s.Cost())
		}
		st.opWall += time.Since(t0)
		st.op.add(time.Since(t0))
		d := newDigest()
		d.add(w.Len(), s.Solution(), got)
		return d.String(), nil
	}
	untraced, err := timedLoop(e, r, setupStart, 1, op)
	if err != nil {
		return err
	}
	libE2E(r, &st, labels)
	p, rc := quality(conf.tp, conf.fp, conf.fn, allTrue-(conf.tp+conf.fn))
	r.set("precision", p, "ratio", 1, "")
	r.set("recall", rc, "ratio", 1, "counts true record pairs blocking never proposed")
	traceSummary(e, r, untraced)
	return nil
}

// genParts is humo.GenerateWorkload split into its layer calls, for the
// traced run: distinct-value weights, the scorer, LSH generation and the
// workload build. It must reproduce GenerateWorkload's fingerprint.
type genParts struct {
	cands []humo.Candidate
	w     *humo.Workload
}

func (g *genParts) run(e *env, parent int, op int64, ta, tb *humo.Table, cfg humo.GenConfig) error {
	var specs []humo.AttributeSpec
	var scorer *blocking.Scorer
	var err error
	e.rec.timed("blocking.specs", parent, op, func() { specs, err = blocking.DistinctValueSpecs(ta, tb, cfg.Specs) })
	if err != nil {
		return err
	}
	e.rec.timed("blocking.scorer", parent, op, func() { scorer, err = blocking.NewScorer(ta, tb, specs) })
	if err != nil {
		return err
	}
	opt := blocking.Options{Mode: cfg.Block, Attribute: cfg.BlockAttribute, MinShared: cfg.MinShared, Window: cfg.Window,
		Rows: cfg.Rows, Bands: cfg.Bands, Threshold: cfg.Threshold, Workers: cfg.Workers}
	e.rec.timed("blocking.generate", parent, op, func() { g.cands, err = blocking.Generate(context.Background(), scorer, opt) })
	if err != nil {
		return err
	}
	pairs := make([]humo.Pair, len(g.cands))
	for i, c := range g.cands {
		pairs[i] = humo.Pair{ID: i, Sim: c.Sim}
	}
	e.rec.timed("core.workload", parent, op, func() { g.w, err = humo.NewWorkload(pairs, 0) })
	return err
}

// sessionLayers adds one traced session's totals to its op's.
func sessionLayers(r *result, method string, run sessionRun, labels int) {
	acc(r, "session."+method+".next_ms", ms(run.next), "ms")
	acc(r, "session."+method+".answer_ms", ms(run.answer), "ms")
	acc(r, "session."+method+".batches", float64(run.batches), "count")
	acc(r, "session."+method+".labels", float64(labels), "count")
	acc(r, "labeler.ms", ms(run.labeler), "ms")
}

const perOpNote = "total per traced op"

// acc adds v to a layer metric summed over the traced ops.
func acc(r *result, name string, v float64, unit string) {
	r.layer(name, r.layers[name].v+v, unit, 0, perOpNote)
}

// perOp divides the totals acc summed by the number of traced ops.
func perOp(r *result, ops int) {
	for name, v := range r.layers {
		if v.note == perOpNote && ops > 0 {
			r.layers[name] = value{v.v / float64(ops), v.unit, ops, perOpNote}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// libE2E reports the end-to-end metrics the library workloads share.
func libE2E(r *result, st *libStats, labels float64) {
	xs := st.op.sorted()
	r.set("resolve_ms", median(xs), "ms", len(xs), "median op")
	r.set("human_labels", labels, "count", 1, "labels asked per op")
	r.latency("answer", &st.answer)
	r.latency("next", &st.next)
	r.latency("append", &st.build)
	r.set("rounds_per_s", float64(st.rounds)/st.opWall.Seconds(), "1/s", st.rounds, "next+answer rounds per second of op time")
}

// ---- search_mix ----

// mixData is the logistic workload (τ=14, σ=0.1) with its ground
// truth and the synthetic classifier's verdicts for the corrected search.
type mixData struct {
	pairs   []humo.Pair
	truth   map[int]bool
	ids     []int
	machine humo.LabelMapClassifier
}

// mixPairsSeed fixes the logistic draw of search_mix. At 300k pairs the
// human cost of one draw differs from the next by up to ±15% (five draws
// measured 113k-135k labels per op, ops 5.4-8.3 s), which would swamp
// any regression bound; the run seed instead drives the three searches'
// sampling and which labels the classifier gets wrong.
const mixPairsSeed = 11

// mixVariants is how many sampling seeds search_mix's ops cycle through.
// One seed's op time differs from another's by up to ±12% (risk sessions
// took 3.5-4.5 s across seeds 11-17), so a run timed on one seed would
// carry that into its median; cycling three per run averages it, and
// each variant's repeat checks determinism.
const mixVariants = 3

// mixSeed is the sessions' sampling seed of op n.
func mixSeed(e *env, n int64) int64 { return e.seed*mixVariants + n%mixVariants }

func mixInput(e *env) (mixData, error) {
	n := 300000
	if e.tiny {
		n = 20000
	}
	var in mixData
	lp, err := humo.Logistic(humo.LogisticConfig{N: n, Tau: 14, Sigma: 0.1, Seed: mixPairsSeed})
	if err != nil {
		return in, err
	}
	in.pairs, in.truth = humo.Split(lp)
	in.machine = make(humo.LabelMapClassifier, len(in.pairs))
	// Ground truth with every 17th label flipped, scored by similarity,
	// as in BenchmarkCorrectSchedule; the seed picks which 17th.
	flip := int(uint64(e.seed) % 17)
	for _, p := range in.pairs {
		in.ids = append(in.ids, p.ID)
		m := in.truth[p.ID]
		if p.ID%17 == flip {
			m = !m
		}
		in.machine[p.ID] = humo.CorrectLabel{ID: p.ID, Match: m, Score: p.Sim}
	}
	sort.Ints(in.ids)
	return in, nil
}

func searchMix(e *env, r *result) error {
	setupStart := time.Now()
	in, err := mixInput(e)
	if err != nil {
		return err
	}
	var st libStats
	var conf confusion
	var labels float64
	op := func(n int64, traced bool) (string, error) {
		rec := e.rec
		if !traced {
			rec = nil
		}
		oe := *e
		oe.rec = rec
		t0 := time.Now()
		root := rec.start("op", -1, n)
		d := newDigest()
		c := confusion{}
		cost := 0
		var sessWall time.Duration
		// The op's input build, the "append" of this workload: the
		// workload and the classifier's verdicts.
		var w *humo.Workload
		var machine []humo.CorrectLabel
		var err error
		tb := time.Now()
		rec.timed("core.workload", root, n, func() { w, err = humo.NewWorkload(in.pairs, 0) })
		if err != nil {
			return "", err
		}
		rec.timed("correct.assign", root, n, func() { machine, err = humo.ClassifyAll(in.ids, in.machine, 0) })
		if err != nil {
			return "", err
		}
		st.build.add(time.Since(tb))
		truth := func(id int) bool { return in.truth[id] }
		seed := mixSeed(e, n)
		cfgs := map[string]humo.SessionConfig{
			"hybrid":  {Method: humo.MethodHybrid, Seed: seed, Resolve: true},
			"risk":    {Method: humo.MethodRisk, Seed: seed, Resolve: true},
			"correct": {Method: humo.MethodCorrect, Seed: seed, Correct: humo.CorrectConfig{Labels: machine}},
		}
		var hybrid *humo.Session
		for _, m := range methods {
			s, err := humo.NewSession(w, requirement, cfgs[m])
			if err != nil {
				return "", err
			}
			run, err := drive(&oe, &st, n, root, m, s, truth)
			if err != nil {
				return "", err
			}
			got := s.Labels()
			for i, l := range got {
				c.add(l, truth(w.Pair(i).ID))
			}
			cost += s.Cost()
			d.add(m, s.Solution(), got)
			sessWall += run.wall
			if traced {
				sessionLayers(r, m, run, s.Cost())
			}
			if m == "hybrid" {
				hybrid = s
			}
		}
		if err := checkpointRestore(&oe, r, n, root, w, cfgs["hybrid"], hybrid, traced); err != nil {
			return "", err
		}
		rec.stop(root)
		st.opWall += time.Since(t0)
		st.op.add(time.Since(t0))
		if traced {
			searchWall, err := coreSearches(&oe, n, seed, w, in, machine)
			if err != nil {
				return "", err
			}
			acc(r, "session.overhead_ms", ms(sessWall-searchWall), "ms")
		}
		if n == 0 {
			conf, labels = c, float64(cost)
		}
		return d.String(), nil
	}
	untraced, err := timedLoop(e, r, setupStart, mixVariants, op)
	if err != nil {
		return err
	}
	libE2E(r, &st, labels)
	p, rc := quality(conf.tp, conf.fp, conf.fn, 0)
	r.set("precision", p, "ratio", 1, "pooled over the three methods")
	r.set("recall", rc, "ratio", 1, "pooled over the three methods")
	traceSummary(e, r, untraced)
	return nil
}

// checkpointRestore checkpoints the finished hybrid session, restores it
// and checks the restored session replays to the same output.
func checkpointRestore(e *env, r *result, op int64, parent int, w *humo.Workload, cfg humo.SessionConfig, s *humo.Session, traced bool) error {
	var buf bytes.Buffer
	var err error
	e.rec.timed("session.checkpoint", parent, op, func() { err = s.Checkpoint(&buf) })
	if err != nil {
		return err
	}
	size := buf.Len()
	var back *humo.Session
	e.rec.timed("session.restore", parent, op, func() {
		back, err = humo.RestoreSession(w, requirement, cfg, &buf)
		if err == nil {
			<-back.DoneChan()
		}
	})
	if err != nil {
		return err
	}
	if back.Err() != nil || back.Solution() != s.Solution() || !equalBools(back.Labels(), s.Labels()) {
		return fmt.Errorf("restored hybrid session diverged (err %v)", back.Err())
	}
	if traced {
		acc(r, "session.checkpoint_bytes", float64(size), "bytes")
	}
	return nil
}

// coreSearches times the direct one-shot searches on the op's inputs,
// outside the op's span tree: they are the reference the session overhead
// is measured against, not part of the op.
func coreSearches(e *env, op, seed int64, w *humo.Workload, in mixData, machine []humo.CorrectLabel) (time.Duration, error) {
	var total time.Duration
	rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
	searches := []func() error{
		func() error {
			_, err := humo.Hybrid(w, requirement, humo.NewSimulatedOracle(in.truth), humo.HybridConfig{Sampling: humo.SamplingConfig{Rand: rng()}})
			return err
		},
		func() error {
			_, err := humo.RiskAware(w, requirement, humo.NewSimulatedOracle(in.truth), humo.RiskConfig{Sampling: humo.SamplingConfig{Rand: rng()}})
			return err
		},
		func() error {
			_, _, err := humo.Correct(w, requirement, humo.NewSimulatedOracle(in.truth), humo.CorrectConfig{Labels: machine, Rand: rng()})
			return err
		},
	}
	for i, m := range methods {
		var err error
		d := e.rec.timed("core."+m+".search", -1, op, func() { err = searches[i]() })
		if err != nil {
			return 0, fmt.Errorf("core %s search: %w", m, err)
		}
		total += d
	}
	return total, nil
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
