package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 5+16*1000 {
		t.Fatalf("Value = %d after concurrent Incs, want %d", got, 5+16*1000)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	// 100 samples 1ms..100ms. Buckets are powers of two in µs, so the p50
	// (true value 50ms) reports the upper edge of its (32.768ms, 65.536ms]
	// bucket; the p99 bucket edge (131ms) is clamped to the observed 100ms
	// max.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d", got)
	}
	p50 := h.Quantile(0.50)
	if p50 < 50*time.Millisecond || p50 > 65536*time.Microsecond {
		t.Fatalf("p50 = %v, want within [50ms, 65.536ms]", p50)
	}
	if got := h.Quantile(0.99); got != 100*time.Millisecond {
		t.Fatalf("p99 = %v, want the 100ms max (bucket bound clamped)", got)
	}
	if got := h.Quantile(1); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want max", got)
	}
	// Quantiles are monotone in p.
	prev := time.Duration(0)
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", p, q, prev)
		}
		prev = q
	}

	s := h.Snapshot()
	if s.Count != 100 || s.MaxU != 100_000 || s.P99U != 100_000 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.MeanU < 50_000 || s.MeanU > 51_000 { // true mean 50.5ms
		t.Fatalf("mean %v, want ~50500", s.MeanU)
	}
}

// TestHistogramQuantileBounds pins the edges of the Quantile contract: p=0
// and p=1 on a single observation both report that observation (the bucket
// upper bound clamps to the observed max), and out-of-range p clamps into
// [0,1] instead of panicking or extrapolating.
func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Millisecond)
	for _, p := range []float64{0, 0.5, 1} {
		if got := h.Quantile(p); got != 5*time.Millisecond {
			t.Fatalf("Quantile(%v) with one sample = %v, want 5ms", p, got)
		}
	}
	if got := h.Quantile(-0.5); got != 5*time.Millisecond {
		t.Fatalf("Quantile(-0.5) = %v, want clamp to p=0", got)
	}
	if got := h.Quantile(2); got != 5*time.Millisecond {
		t.Fatalf("Quantile(2) = %v, want clamp to p=1", got)
	}
	// p=0 still means "smallest observation's bucket", not zero: with two
	// samples in different buckets it reports the lower one.
	var h2 Histogram
	h2.Observe(1 * time.Millisecond)
	h2.Observe(60 * time.Millisecond)
	if p0 := h2.Quantile(0); p0 > 2*time.Millisecond {
		t.Fatalf("Quantile(0) = %v, want the low bucket (<= ~1ms bound)", p0)
	}
	if p1 := h2.Quantile(1); p1 != 60*time.Millisecond {
		t.Fatalf("Quantile(1) = %v, want the 60ms max", p1)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Duration(i*j) * time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	if got := h.Count(); got != 8*500 {
		t.Fatalf("Count = %d, want %d", got, 8*500)
	}
	if got := h.Snapshot().MaxU; got != int64(7*499) {
		t.Fatalf("MaxU = %d, want %d", got, 7*499)
	}
}

func TestRegistryInterning(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not interned")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram not interned")
	}
	r.Counter("a").Add(3)
	r.Histogram("h").Observe(2 * time.Millisecond)
	counters, hists := r.Snapshot()
	if len(counters) != 1 || counters[0].Name != "a" || counters[0].Value != 3 {
		t.Fatalf("counters %v", counters)
	}
	if len(hists) != 1 || hists[0].Name != "h" || hists[0].Hist.Count != 1 {
		t.Fatalf("histograms %v", hists)
	}
}

// TestRegistrySnapshotOrdered: Snapshot returns instruments sorted by name
// regardless of interning order — the order /metrics serializes.
func TestRegistrySnapshotOrdered(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid", "beta"} {
		r.Counter(name).Inc()
		r.Histogram(name + ".lat").Observe(time.Millisecond)
	}
	counters, hists := r.Snapshot()
	for i := 1; i < len(counters); i++ {
		if counters[i-1].Name >= counters[i].Name {
			t.Fatalf("counters out of order at %d: %v", i, counters)
		}
	}
	for i := 1; i < len(hists); i++ {
		if hists[i-1].Name >= hists[i].Name {
			t.Fatalf("histograms out of order at %d: %v", i, hists)
		}
	}
	if len(counters) != 4 || counters[0].Name != "alpha" || counters[3].Name != "zeta" {
		t.Fatalf("counters %v", counters)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(7)
	r.Histogram("lat").Observe(3 * time.Millisecond)
	rec := httptest.NewRecorder()
	r.Handler(time.Now().Add(-2*time.Second)).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var body struct {
		UptimeSeconds float64                      `json:"uptime_seconds"`
		Counters      map[string]int64             `json:"counters"`
		Latencies     map[string]HistogramSnapshot `json:"latencies"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	if body.UptimeSeconds < 2 {
		t.Fatalf("uptime %v, want >= 2s", body.UptimeSeconds)
	}
	if body.Counters["reqs"] != 7 || body.Latencies["lat"].Count != 1 {
		t.Fatalf("body %+v", body)
	}
}

// TestMetricsHandlerByteStable pins the /metrics byte layout: with the same
// instrument values, two renders differ only in the uptime_seconds line, and
// instruments appear in sorted name order in the raw bytes.
func TestMetricsHandlerByteStable(t *testing.T) {
	r := NewRegistry()
	// Intern in shuffled order; the body must still render sorted.
	for _, name := range []string{"writes", "reads", "errors"} {
		r.Counter(name).Add(int64(len(name)))
	}
	for _, name := range []string{"store", "apply"} {
		r.Histogram(name).Observe(4 * time.Millisecond)
	}
	h := r.Handler(time.Now())

	render := func() []string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var kept []string
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			if bytes.Contains(sc.Bytes(), []byte("uptime_seconds")) {
				continue
			}
			kept = append(kept, sc.Text())
		}
		return kept
	}

	first, second := render(), render()
	if len(first) == 0 {
		t.Fatal("empty body")
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("body not byte-stable:\n%v\n%v", first, second)
	}
	joined := fmt.Sprint(first)
	for _, ordered := range [][2]string{{`"errors"`, `"reads"`}, {`"reads"`, `"writes"`}, {`"apply"`, `"store"`}} {
		a, b := indexOf(joined, ordered[0]), indexOf(joined, ordered[1])
		if a < 0 || b < 0 || a > b {
			t.Fatalf("%s does not precede %s in body:\n%s", ordered[0], ordered[1], joined)
		}
	}
}

func indexOf(s, sub string) int {
	return bytes.Index([]byte(s), []byte(sub))
}

// readLines decodes every JSON log line in the buffer.
func readLines(t *testing.T, buf *bytes.Buffer) []line {
	t.Helper()
	var out []line
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("decoding line %q: %v", sc.Text(), err)
		}
		out = append(out, l)
	}
	return out
}

// TestLoggerSampling pins the adaptive sampler: every Interval-th
// steady-state event is kept with the skipped count, an Interesting event
// replays the 2-event before window and opens a 2-event full-resolution
// after window.
func TestLoggerSampling(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, Config{Interval: 5})

	// 10 steady events with Interval 5: lines 5 and 10 survive, each
	// reporting 4 skipped.
	for i := 1; i <= 10; i++ {
		l.Event("tick", map[string]any{"i": i})
	}
	lines := readLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("%d lines after 10 sampled events, want 2: %+v", len(lines), lines)
	}
	for _, ln := range lines {
		if ln.Event != "tick" || ln.Skipped != 4 {
			t.Fatalf("sampled line %+v, want 4 skipped", ln)
		}
	}

	// Three more dropped events, then an Interesting one: the last 2 dropped
	// replay as "before" context, then the event itself, and its skipped
	// count excludes the replayed lines (3 dropped - 2 replayed = 1).
	buf.Reset()
	for i := 11; i <= 13; i++ {
		l.Event("tick", map[string]any{"i": i})
	}
	l.Interesting("boom", nil)
	lines = readLines(t, &buf)
	if len(lines) != 3 {
		t.Fatalf("%d lines around Interesting, want 3: %+v", len(lines), lines)
	}
	if lines[0].Ctx != "before" || lines[1].Ctx != "before" {
		t.Fatalf("context lines %+v", lines[:2])
	}
	if f0, f1 := lines[0].Fields["i"], lines[1].Fields["i"]; f0 != 12.0 || f1 != 13.0 {
		t.Fatalf("replayed events %v,%v, want the last two dropped (12,13)", f0, f1)
	}
	if lines[2].Event != "boom" || lines[2].Ctx != "" || lines[2].Skipped != 1 {
		t.Fatalf("interesting line %+v, want 1 skipped", lines[2])
	}

	// The after-window: the next 2 events log at full resolution, the third
	// is sampled away again.
	buf.Reset()
	for i := 14; i <= 16; i++ {
		l.Event("tick", map[string]any{"i": i})
	}
	lines = readLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("%d lines in the after-window, want 2: %+v", len(lines), lines)
	}

	// Sequence numbers are strictly increasing across everything above.
	l.Interesting("end", nil)
	var last uint64
	for _, ln := range readLines(t, &buf) {
		if ln.Seq <= last {
			t.Fatalf("seq %d not increasing (prev %d)", ln.Seq, last)
		}
		last = ln.Seq
	}
}

// TestLoggerDisabledSampling: Interval 1 logs every event.
func TestLoggerDisabledSampling(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, Config{Interval: 1})
	for i := 0; i < 7; i++ {
		l.Event("tick", nil)
	}
	if lines := readLines(t, &buf); len(lines) != 7 {
		t.Fatalf("%d lines with sampling disabled, want 7", len(lines))
	}
}

// TestLoggerNilSafe: a nil logger and a nil writer both drop silently.
func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Event("tick", nil)
	l.Interesting("boom", nil)
	l2 := NewLogger(nil, Config{})
	l2.Event("tick", nil)
	l2.Interesting("boom", nil)
}

// TestLoggerConcurrent hammers the logger from many goroutines: all output
// lines must stay valid JSON with unique sequence numbers.
func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&safeWriter{w: &buf}, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if j%10 == 0 {
					l.Interesting(fmt.Sprintf("boom-%d", i), nil)
				} else {
					l.Event("tick", nil)
				}
			}
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, ln := range readLines(t, &buf) {
		if seen[ln.Seq] {
			t.Fatalf("duplicate seq %d", ln.Seq)
		}
		seen[ln.Seq] = true
	}
}

// safeWriter serializes writes (the logger holds its own lock, but the test
// buffer needs one for the race detector when shared with readLines).
type safeWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *safeWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
