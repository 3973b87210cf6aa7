package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Config controls adaptive sampling of steady-state log events. The shape
// (Interval plus a context window around interesting moments) follows the
// getstats-sampling pattern: steady-state traffic is thinned to every Nth
// event, but the events just before and after an interesting one are kept
// at full resolution so an operator sees the lead-up, not only the spike.
// Interval 1 logs every event.
type Config struct {
	Interval int // keep every Nth steady-state event (<= 0 selects 10)
}

const (
	// contextBefore is the number of dropped events replayed before an
	// interesting one.
	contextBefore = 2
	// contextAfter is the number of full-resolution events after an
	// interesting one.
	contextAfter = 2
)

// Logger writes structured JSON log lines (one object per line) with
// adaptive steady-state sampling. Event logs a steady-state occurrence that
// the sampler may drop; Interesting always logs, first replaying up to
// contextBefore of the most recently dropped events (tagged "ctx":"before")
// and then disabling sampling for the next contextAfter events. Every
// emitted steady-state line carries the number of events dropped since the
// previous line.
type Logger struct {
	cfg Config

	mu        sync.Mutex
	w         io.Writer
	seq       uint64
	sinceKeep int     // steady-state events since the last kept one
	skipped   int64   // dropped events since the last emitted line
	afterLeft int     // full-resolution events still owed after an interesting one
	ring      []entry // last contextBefore dropped events
}

type entry struct {
	ts     time.Time
	event  string
	fields map[string]any
}

// NewLogger returns a Logger writing to w. A nil w yields a logger that
// drops everything (all methods stay safe to call).
func NewLogger(w io.Writer, cfg Config) *Logger {
	if cfg.Interval <= 0 {
		cfg.Interval = 10
	}
	return &Logger{cfg: cfg, w: w}
}

// line is the wire shape of one log line.
type line struct {
	TS      string         `json:"ts"`
	Seq     uint64         `json:"seq"`
	Event   string         `json:"event"`
	Ctx     string         `json:"ctx,omitempty"`     // "before" for replayed context
	Skipped int64          `json:"skipped,omitempty"` // dropped since last line
	Fields  map[string]any `json:"fields,omitempty"`
}

// emitLocked writes one line; l.mu must be held.
func (l *Logger) emitLocked(ts time.Time, event, ctx string, fields map[string]any) {
	l.seq++
	out := line{
		TS:     ts.UTC().Format(time.RFC3339Nano),
		Seq:    l.seq,
		Event:  event,
		Ctx:    ctx,
		Fields: fields,
	}
	if ctx == "" {
		out.Skipped = l.skipped
		l.skipped = 0
	} else if l.skipped > 0 {
		l.skipped-- // a replayed context line is no longer a dropped one
	}
	data, err := json.Marshal(out)
	if err != nil {
		return
	}
	l.w.Write(append(data, '\n')) //nolint:errcheck // logging is best-effort
}

// Event logs one steady-state occurrence, subject to sampling.
func (l *Logger) Event(event string, fields map[string]any) {
	if l == nil || l.w == nil {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.afterLeft > 0 {
		l.afterLeft--
		l.emitLocked(now, event, "", fields)
		return
	}
	l.sinceKeep++
	if l.sinceKeep >= l.cfg.Interval {
		l.sinceKeep = 0
		l.emitLocked(now, event, "", fields)
		return
	}
	// Dropped: remember it for the before-context window.
	l.skipped++
	if len(l.ring) == contextBefore {
		copy(l.ring, l.ring[1:])
		l.ring = l.ring[:len(l.ring)-1]
	}
	l.ring = append(l.ring, entry{ts: now, event: event, fields: fields})
}

// Interesting logs an event unconditionally: the last contextBefore dropped
// events are replayed first (tagged "ctx":"before"), the event itself is
// written, and the next contextAfter steady-state events bypass sampling.
func (l *Logger) Interesting(event string, fields map[string]any) {
	if l == nil || l.w == nil {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.ring {
		l.emitLocked(e.ts, e.event, "before", e.fields)
	}
	l.ring = l.ring[:0]
	l.emitLocked(now, event, "", fields)
	l.afterLeft = contextAfter
}
