package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// samples collects one latency distribution in milliseconds. It is safe
// for concurrent use: the HTTP workloads record from two clients.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(d time.Duration) { s.addMs(float64(d) / float64(time.Millisecond)) }

func (s *samples) addMs(ms float64) {
	s.mu.Lock()
	s.xs = append(s.xs, ms)
	s.mu.Unlock()
}

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]float64(nil), s.xs...)
	sort.Float64s(out)
	return out
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// median of an ascending slice (0 when empty).
func median(xs []float64) float64 {
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return xs[n/2]
	default:
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

// tailCap is the highest percentile a tail may report. The plain rule,
// the highest percentile with ten samples beyond it, rests on those ten
// samples: on the 2-vCPU VM the benchmark was tuned on, such tails spread
// up to 75% of their median across seeds (single fsync stalls on the HTTP
// workloads, 1-3% of fsyncs taking 4-8 ms against a 0.08 ms median; GC
// and preemption on microsecond library calls). At p90 they held within
// about 20%.
const tailCap = 90

// tail returns the highest percentile of an ascending slice, up to
// tailCap, that still has at least ten samples beyond it, and that
// percentile. It never reports below the median: under 21 samples no
// percentile above the median has ten beyond it, and the median is
// returned as p50.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n < 21 {
		return median(xs), 50
	}
	i := min(n-11, int(math.Ceil(tailCap/100.0*float64(n)))-1)
	return xs[i], 100 * float64(i+1) / float64(n)
}

// procSnap is a point-in-time reading of the process counters behind the
// proc.* layer metrics.
type procSnap struct {
	cpu     time.Duration
	gc      uint32
	pauseNs uint64
	alloc   uint64
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnap{cpu: cpu, gc: ms.NumGC, pauseNs: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// procMetrics reports the process counters accumulated between two
// snapshots taken around the timed phase.
func procMetrics(r *result, a, b procSnap) {
	r.layer("proc.cpu_s", (b.cpu - a.cpu).Seconds(), "s", 1, "")
	r.layer("proc.gc_cycles", float64(b.gc-a.gc), "count", 1, "")
	r.layer("proc.gc_pause_ms", float64(b.pauseNs-a.pauseNs)/1e6, "ms", 1, "")
	r.layer("proc.alloc_mb", float64(b.alloc-a.alloc)/(1<<20), "MB", 1, "")
}

// quality returns precision and recall of predicted against truth, with
// missed counting true matches the predictions never covered (on
// pipeline_lsh: record pairs blocking never proposed).
func quality(tp, fp, fn, missed int) (precision, recall float64) {
	precision = 1
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	recall = 1
	if tp+fn+missed > 0 {
		recall = float64(tp) / float64(tp+fn+missed)
	}
	return precision, recall
}

// confusion accumulates match-label outcomes across ops.
type confusion struct{ tp, fp, fn int }

func (c *confusion) add(pred, truth bool) {
	switch {
	case pred && truth:
		c.tp++
	case pred:
		c.fp++
	case truth:
		c.fn++
	}
}

// refKeys sizes the reference kernel: it sorts refKeys pseudo-random keys
// and counts a quarter of them into a map, about 60 ms on the 2-vCPU VM
// the benchmark was tuned on.
const refKeys = 1 << 19

// refBuf is the kernel's working memory, kept across probes so a probe
// allocates nothing and every probe does the same work.
type refBuf struct {
	xs   []uint64
	m    map[uint64]int
	sink int
}

var ref *refBuf

func (b *refBuf) run() {
	x := uint64(0x9e3779b97f4a7c15)
	for i := range b.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b.xs[i] = x
	}
	slices.Sort(b.xs)
	clear(b.m)
	for i, v := range b.xs[:refKeys/4] {
		b.m[v%(refKeys/8)] += i
	}
	b.sink = len(b.m)
}

// probe times one run of the reference kernel on the calling goroutine
// and adds the time to e.ref. The kernel is the benchmark's own fixed
// code, so its time tracks only the speed the host gives the VM at that
// moment, which moved whole runs by 25-40% within minutes on the VM the
// benchmark was tuned on; resolve_ref divides it out. It runs one copy
// only: two copies in parallel, one per P, took as long as the slower P
// and read twice their usual time in one run of five. The probe's CPU
// time is added to e.probeCPU so the proc metrics can leave it out.
func (e *env) probe() {
	if ref == nil {
		ref = &refBuf{xs: make([]uint64, refKeys), m: make(map[uint64]int, refKeys/8)}
	}
	c0 := readProc().cpu
	t0 := time.Now()
	ref.run()
	e.ref.add(time.Since(t0))
	e.probeCPU += readProc().cpu - c0
}

// refProbes is how many probes the HTTP workloads take in a row before and
// after their timed phase; the library workloads take two before every op.
const refProbes = 5

// probes takes n probes in a row.
func (e *env) probes(n int) {
	for i := 0; i < n; i++ {
		e.probe()
	}
}
