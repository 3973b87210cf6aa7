package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share its id; the
// op's root span has parent -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its handle (-1 on a nil recorder).
func (r *recorder) start(name string, parent int, op int64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) stop(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// addChild records a span measured elsewhere (a server handler, timed
// inside the server) of duration d, centred in its parent's interval: only
// its duration is known to the client, and self time needs only that.
func (r *recorder) addChild(name string, parent int, d time.Duration) {
	if r == nil || parent < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent]
	dur := d.Nanoseconds()
	if max := p.End - p.Start; dur > max {
		dur = max
	}
	s := p.Start + (p.End-p.Start-dur)/2
	r.spans = append(r.spans, span{Name: name, Start: s, End: s + dur, Parent: parent, Op: p.Op})
}

// timed runs fn inside a span and returns its wall time.
func (r *recorder) timed(name string, parent int, op int64, fn func()) time.Duration {
	id := r.start(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.stop(id)
	return d
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerOf maps a span name to the module it times: "blocking.generate" →
// blocking; the benchmark's own op roots are "bench".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	if name == "op" {
		return "bench"
	}
	return name
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, curA, curB int64 = 0, -1, -1
		for _, v := range iv {
			if v[0] > curB {
				covered += curB - curA
				curA, curB = v[0], v[1]
			} else if v[1] > curB {
				curB = v[1]
			}
		}
		covered += curB - curA
		self[i] = s.End - s.Start - covered
	}
	return self
}

// traceLayers lists the modules self time is attributed to. "wait" is
// time a stream_ingest op spent waiting for its turn while the other
// client's requests ran; "bench" is the rest of the benchmark's own code.
var traceLayers = []string{"blocking", "core", "correct", "session", "labeler", "serve", "http", "records", "dataio", "wait", "bench"}

// attribute reports per-op layer self times over the trees rooted at "op"
// spans, checks that each op's self times sum to its wall time, and writes
// the spans out. It returns the traced op wall times.
func attribute(r *result, rec *recorder, path string) []float64 {
	spans := rec.snapshot()
	self := selfTimes(spans)
	root := make([]int, len(spans)) // op-tree root of each span, -1 outside op trees
	for i, s := range spans {
		root[i] = -1
		if s.Parent < 0 {
			if s.Name == "op" {
				root[i] = i
			}
			continue
		}
		root[i] = root[s.Parent] // parents are always recorded before children
	}
	byLayer := map[string]int64{}
	sums := map[int]int64{}
	var walls []float64
	for i, s := range spans {
		if root[i] < 0 {
			continue
		}
		if s.End < 0 {
			r.fail("trace: span %s of op %d never ended", s.Name, s.Op)
			continue
		}
		byLayer[layerOf(s.Name)] += self[i]
		sums[root[i]] += self[i]
		if root[i] == i {
			walls = append(walls, float64(s.End-s.Start)/1e6)
		}
	}
	worst := 0.0
	for rt, sum := range sums {
		wall := spans[rt].End - spans[rt].Start
		if wall <= 0 {
			continue
		}
		if e := float64(sum-wall) / float64(wall); e > worst || -e > worst {
			worst = max(e, -e)
		}
	}
	if worst > 1e-3 {
		r.fail("trace: layer self times differ from the traced op wall time by %.4f%%", 100*worst)
	}
	// Every span name that is a declared metric without its _ms suffix
	// reports its median call time, unless the workload set it directly.
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	calls := map[string][]float64{}
	for _, s := range spans {
		if n := s.Name + "_ms"; declared[n] && s.End >= 0 {
			calls[n] = append(calls[n], float64(s.End-s.Start)/1e6)
		}
	}
	for n, xs := range calls {
		if _, set := r.layers[n]; !set {
			sort.Float64s(xs)
			r.layer(n, median(xs), "ms", len(xs), "median call")
		}
	}
	ops := float64(max(len(walls), 1))
	for _, l := range traceLayers {
		r.layer("self."+l+"_ms", float64(byLayer[l])/1e6/ops, "ms", len(walls), "self time per traced op")
	}
	r.layer("trace.selfsum_error", worst, "ratio", len(walls), "max |sum(self) - wall| / wall")
	if err := writeSpans(path, spans); err != nil {
		r.fail("trace: writing spans: %v", err)
	}
	sort.Float64s(walls)
	return walls
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
