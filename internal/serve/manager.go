package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"humo"
	"humo/internal/dataio"
	"humo/internal/obs"
)

// Manager errors, mapped onto HTTP statuses by the handler.
var (
	// ErrSessionExists reports a Create with an id already in use (409).
	ErrSessionExists = errors.New("serve: session id already exists")
	// ErrSessionNotFound reports an unknown session id (404).
	ErrSessionNotFound = errors.New("serve: session not found")
	// ErrTooManySessions reports a Create beyond the session cap (409).
	ErrTooManySessions = errors.New("serve: session cap reached")
	// ErrOverloaded reports a long-poll shed because the shard's in-flight
	// poll bound is reached (429 + Retry-After).
	ErrOverloaded = errors.New("serve: too many in-flight polls, retry")
	// ErrDraining reports a request refused because the server is draining
	// toward shutdown (503 + Retry-After).
	ErrDraining = errors.New("serve: server is draining")
)

// Defaults for the Config knobs left zero.
const (
	// DefaultMaxSessions bounds concurrent sessions.
	DefaultMaxSessions = 64
	// DefaultShards is the number of independent lock domains sessions are
	// partitioned across.
	DefaultShards = 8
	// DefaultMaxPollsPerShard bounds concurrently parked long-polls per
	// shard before new ones are shed with ErrOverloaded.
	DefaultMaxPollsPerShard = 256
	// DefaultCompactEvery is the delta-journal compaction threshold: after
	// this many journaled answer batches the base snapshot is rewritten and
	// the delta file truncated.
	DefaultCompactEvery = 64
)

// Config configures a Manager.
type Config struct {
	// StateDir holds the per-session spec, base-checkpoint and delta-journal
	// files. Required; created if missing. A manager opened on a state
	// directory recovers every session found there.
	StateDir string
	// DataDir anchors Spec.WorkloadFile references ("." when empty).
	DataDir string
	// MaxSessions caps concurrently live sessions (<= 0 selects
	// DefaultMaxSessions). Recovery is exempt: sessions already on disk are
	// always restored, and the cap applies to new Creates.
	MaxSessions int
	// Shards is the number of independent lock domains (<= 0 selects
	// DefaultShards). Sessions are partitioned by id hash; every shard has
	// its own mutex and session map, so traffic on one session never
	// serializes against traffic on another shard's sessions. Shards is a
	// runtime knob only: it never affects results or the on-disk layout, so
	// a state directory can be reopened with any shard count.
	Shards int
	// MaxPollsPerShard bounds concurrently parked long-polls per shard
	// (<= 0 selects DefaultMaxPollsPerShard); polls beyond the bound are
	// shed with ErrOverloaded instead of accumulating goroutines.
	MaxPollsPerShard int
	// CompactEvery is the delta-journal compaction threshold in answered
	// batches (<= 0 selects DefaultCompactEvery).
	CompactEvery int
	// Metrics receives the manager's counters (sessions created/recovered/
	// deleted, journal appends/compactions, shed polls). Nil creates a
	// private registry; either way Metrics() returns the one in use, and
	// NewHandler serves it at GET /metrics.
	Metrics *obs.Registry
}

// shard is one lock domain: a mutex, the sessions hashed to it, and the
// in-flight long-poll bound.
type shard struct {
	mu       sync.Mutex
	sessions map[string]*ManagedSession // reserved ids map to nil while a Create is in flight
	polls    chan struct{}              // in-flight long-poll slots
}

// Manager owns many named sessions concurrently, partitioned by id hash
// across independent lock domains. Every answered batch is journaled as a
// delta appended to the session's journal file (with a periodic compaction
// into the base checkpoint), so a manager (or the process around it) can
// die at any point and Open recovers every live session bit-identically.
type Manager struct {
	stateDir     string
	dataDir      string
	max          int
	compactEvery int
	shards       []*shard
	count        atomic.Int64 // live sessions plus in-flight Create reservations
	draining     atomic.Bool
	metrics      *obs.Registry

	wmu       sync.Mutex
	workloads map[string]struct{} // workload names with a build in flight (BuildWorkload)

	lwmu sync.Mutex
	live map[string]*workloadState // append-capable workloads, by name (ingest.go)
}

// Open creates the state directory if needed, recovers every session
// journaled there (spec + base checkpoint + answer deltas), and returns the
// manager. A spec or journal that fails to restore aborts Open with an
// error naming the session: a server must not silently drop resolutions it
// was trusted with.
func Open(cfg Config) (*Manager, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("serve: Config.StateDir is required")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating state dir: %w", err)
	}
	m := &Manager{
		stateDir:     cfg.StateDir,
		dataDir:      cfg.DataDir,
		max:          cfg.MaxSessions,
		compactEvery: cfg.CompactEvery,
		metrics:      cfg.Metrics,
		workloads:    make(map[string]struct{}),
		live:         make(map[string]*workloadState),
	}
	if m.dataDir == "" {
		m.dataDir = "."
	}
	if m.max <= 0 {
		m.max = DefaultMaxSessions
	}
	if m.compactEvery <= 0 {
		m.compactEvery = DefaultCompactEvery
	}
	if m.metrics == nil {
		m.metrics = obs.NewRegistry()
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	polls := cfg.MaxPollsPerShard
	if polls <= 0 {
		polls = DefaultMaxPollsPerShard
	}
	m.shards = make([]*shard, shards)
	for i := range m.shards {
		m.shards[i] = &shard{
			sessions: make(map[string]*ManagedSession),
			polls:    make(chan struct{}, polls),
		}
	}
	// Workloads recover before sessions: a session checkpointed at an
	// earlier append epoch is restored against that epoch's pair prefix of
	// the recovered chain and then caught up.
	if err := m.recoverWorkloads(); err != nil {
		m.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	specs, err := filepath.Glob(filepath.Join(cfg.StateDir, "*"+specSuffix))
	if err != nil {
		return nil, err
	}
	sort.Strings(specs)
	for _, path := range specs {
		id := strings.TrimSuffix(filepath.Base(path), specSuffix)
		s, err := m.recoverSession(id)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("serve: recovering session %s: %w", id, err)
		}
		sh := m.shardFor(id)
		sh.sessions[id] = s
		m.count.Add(1)
		m.metrics.Counter("sessions_recovered_total").Inc()
		s.startCrowd()
	}
	return m, nil
}

const (
	specSuffix       = ".spec.json"
	checkpointSuffix = ".checkpoint.json"
	journalSuffix    = ".journal.jsonl"
)

func (m *Manager) specPath(id string) string {
	return filepath.Join(m.stateDir, id+specSuffix)
}

func (m *Manager) checkpointPath(id string) string {
	return filepath.Join(m.stateDir, id+checkpointSuffix)
}

func (m *Manager) journalPath(id string) string {
	return filepath.Join(m.stateDir, id+journalSuffix)
}

// shardFor hashes a session id onto its lock domain.
func (m *Manager) shardFor(id string) *shard {
	h := fnv.New32a()
	io.WriteString(h, id) //nolint:errcheck // fnv.Write cannot fail
	return m.shards[h.Sum32()%uint32(len(m.shards))]
}

// Metrics returns the registry the manager reports into.
func (m *Manager) Metrics() *obs.Registry { return m.metrics }

// StartDrain puts the manager into drain mode: new session creates and new
// long-polls are refused with ErrDraining, while everything already in
// flight — parked polls included — completes normally. It is the first
// step of graceful shutdown, before the HTTP server stops accepting and
// Close checkpoints.
func (m *Manager) StartDrain() { m.draining.Store(true) }

// Draining reports whether the manager is in drain mode.
func (m *Manager) Draining() bool { return m.draining.Load() }

// TryAcquirePoll claims a long-poll slot on the session's shard. It returns
// ErrDraining in drain mode and ErrOverloaded when the shard's in-flight
// bound is reached; on success the returned release must be called when the
// poll ends.
func (m *Manager) TryAcquirePoll(id string) (release func(), err error) {
	if m.draining.Load() {
		return nil, ErrDraining
	}
	sh := m.shardFor(id)
	select {
	case sh.polls <- struct{}{}:
		return func() { <-sh.polls }, nil
	default:
		m.metrics.Counter("polls_shed_total").Inc()
		return nil, ErrOverloaded
	}
}

// Create builds, persists and starts a new session. An empty id asks the
// manager to generate one. The spec file and an initial base checkpoint hit
// the disk before the session becomes visible, so there is no window in
// which a crash loses a session that a client saw created.
func (m *Manager) Create(id string, spec Spec) (*ManagedSession, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if id != "" && !idPattern.MatchString(id) {
		return nil, fmt.Errorf("%w: session id %q", ErrBadSpec, id)
	}
	if m.draining.Load() {
		return nil, ErrDraining
	}
	// The cap covers live sessions plus in-flight reservations, claimed
	// atomically so concurrent Creates on different shards cannot overshoot.
	if m.count.Add(1) > int64(m.max) {
		m.count.Add(-1)
		return nil, fmt.Errorf("%w (max %d)", ErrTooManySessions, m.max)
	}
	// Reserve the id under its shard lock only; build the session outside
	// all locks so slow workload construction never serializes any shard.
	var sh *shard
	if id == "" {
		for {
			id = generateID()
			sh = m.shardFor(id)
			sh.mu.Lock()
			if _, taken := sh.sessions[id]; !taken {
				break
			}
			sh.mu.Unlock()
		}
	} else {
		sh = m.shardFor(id)
		sh.mu.Lock()
		if _, taken := sh.sessions[id]; taken {
			sh.mu.Unlock()
			m.count.Add(-1)
			return nil, fmt.Errorf("%w: %s", ErrSessionExists, id)
		}
	}
	sh.sessions[id] = nil // reserved
	sh.mu.Unlock()

	s, err := m.startSession(id, spec)
	sh.mu.Lock()
	if err != nil {
		delete(sh.sessions, id)
		m.count.Add(-1)
	} else {
		sh.sessions[id] = s
		m.metrics.Counter("sessions_created_total").Inc()
	}
	sh.mu.Unlock()
	if err == nil {
		s.startCrowd()
	}
	return s, err
}

// sessionConfig materializes the spec's humo.SessionConfig against a built
// workload, loading the "correct" method's classifier labels from the data
// directory (the only config piece that lives outside the spec itself).
func (m *Manager) sessionConfig(spec Spec, w *humo.Workload) (humo.SessionConfig, error) {
	cfg := spec.sessionConfig()
	if spec.Correct != nil {
		labels, err := spec.Correct.labels(m.dataDir, w)
		if err != nil {
			return cfg, err
		}
		cfg.Correct.Labels = labels
	}
	return cfg, nil
}

// startSession materializes the workload, starts the humo.Session, and
// persists spec + initial base checkpoint.
func (m *Manager) startSession(id string, spec Spec) (*ManagedSession, error) {
	w, err := spec.workload(m.dataDir)
	if err != nil {
		return nil, err
	}
	cfg, err := m.sessionConfig(spec, w)
	if err != nil {
		return nil, err
	}
	sess, err := humo.NewSession(w, spec.requirement(), cfg)
	if err != nil {
		return nil, err
	}
	s := m.newManagedSession(id, spec, sess)
	if spec.Crowd != nil {
		if s.crowd, err = spec.Crowd.crowdLabeler(m.dataDir); err != nil {
			sess.Cancel()
			return nil, err
		}
	}
	if err := dataio.WriteFileAtomic(m.specPath(id), func(f io.Writer) error {
		return writeJSON(f, spec)
	}); err != nil {
		sess.Cancel()
		return nil, err
	}
	if err := dataio.WriteFileAtomic(s.cpPath, sess.Checkpoint); err != nil {
		sess.Cancel()
		os.Remove(m.specPath(id))
		return nil, err
	}
	return s, nil
}

func (m *Manager) newManagedSession(id string, spec Spec, sess *humo.Session) *ManagedSession {
	return &ManagedSession{
		id:           id,
		spec:         spec,
		sess:         sess,
		cpPath:       m.checkpointPath(id),
		jr:           newJournal(m.journalPath(id)),
		compactEvery: m.compactEvery,
		metrics:      m.metrics,
		changed:      make(chan struct{}),
	}
}

// recoverSession rebuilds one session from its journaled spec, base
// checkpoint and answer deltas. For sessions on an append-capable workload
// file the workload restored against is the epoch of the append chain the
// checkpoint fingerprints (ws non-nil), and after the replay the session is
// caught up through any epochs appended since.
func (m *Manager) recoverSession(id string) (*ManagedSession, error) {
	data, err := os.ReadFile(m.specPath(id))
	if err != nil {
		return nil, err
	}
	var spec Spec
	if err := unmarshalJSONStrict(data, &spec); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w, ws, err := m.recoveryWorkload(id, spec)
	if err != nil {
		return nil, err
	}
	jr := newJournal(m.journalPath(id))
	lines, err := replay[deltaLine](jr)
	if err != nil {
		return nil, err
	}
	deltas, err := deltaLabels(lines)
	if err != nil {
		return nil, err
	}
	cp, err := os.Open(m.checkpointPath(id))
	if os.IsNotExist(err) {
		if len(lines) > 0 {
			// Deltas can only ever be appended after the base snapshot
			// landed: a missing base with surviving deltas is corruption,
			// not a benign crash window.
			return nil, fmt.Errorf("%w: %d answer deltas without a base checkpoint", errJournalCorrupt, len(lines))
		}
		// The process died between the spec write and the initial base
		// write: no answer was ever journaled (Create had not returned), so
		// starting the session fresh IS the faithful recovery — and it must
		// not brick the server.
		return m.startSession(id, spec)
	}
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	cfg, err := m.sessionConfig(spec, w)
	if err != nil {
		return nil, err
	}
	sess, err := humo.RestoreSessionDeltas(w, spec.requirement(), cfg, cp, deltas)
	if err != nil {
		return nil, err
	}
	s := m.newManagedSession(id, spec, sess)
	s.jr = jr
	if spec.Crowd != nil {
		if s.crowd, err = spec.Crowd.crowdLabeler(m.dataDir); err != nil {
			sess.Cancel()
			return nil, err
		}
		// Seed the pipeline with the journaled answers so recovery never
		// re-asks the crowd for pairs the session already holds; worker
		// posteriors restart from their prior (the honest scope of the
		// recovery guarantee — the division replays bit-identically, the
		// accuracy estimates are re-learned).
		if err := s.crowd.Prime(sess.Answered()); err != nil {
			sess.Cancel()
			return nil, err
		}
	}
	if ws != nil {
		if err := s.settleRecovered(ws); err != nil {
			sess.Cancel()
			return nil, err
		}
	}
	return s, nil
}

// Get returns the named session, locking only its shard.
func (m *Manager) Get(id string) (*ManagedSession, error) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.sessions[id]
	if !ok || s == nil {
		return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, id)
	}
	return s, nil
}

// List returns every live session, sorted by id. Shards are visited one at
// a time, so a List never holds more than one lock domain and never blocks
// traffic on the others.
func (m *Manager) List() []*ManagedSession {
	out := make([]*ManagedSession, 0, int(m.count.Load()))
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, s := range sh.sessions {
			if s != nil {
				out = append(out, s)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Len returns the number of live sessions (plus Create reservations in
// flight) without taking any shard lock.
func (m *Manager) Len() int {
	return int(m.count.Load())
}

// Delete cancels the named session and removes its journal files: the
// resolution is abandoned for good. Deleting a completed session is the
// normal way to retire it. The session leaves the map only after its files
// are gone, so a failed Delete is retryable and a deleted session can
// never be resurrected by the next Open.
func (m *Manager) Delete(id string) error {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	sh.mu.Unlock()
	if !ok || s == nil {
		return fmt.Errorf("%w: %s", ErrSessionNotFound, id)
	}
	s.sess.Cancel()
	s.bump() // wake label waiters so they observe termination
	if err := os.Remove(m.specPath(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := os.Remove(s.cpPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	s.mu.Lock()
	err := s.jr.remove()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	sh.mu.Lock()
	if _, still := sh.sessions[id]; still {
		delete(sh.sessions, id)
		m.count.Add(-1)
		m.metrics.Counter("sessions_deleted_total").Inc()
	}
	sh.mu.Unlock()
	return nil
}

// Close checkpoints and cancels every session, compacting each delta
// journal into its base snapshot and keeping all files so a later Open
// resumes them. It is the graceful-shutdown path of cmd/humod.
func (m *Manager) Close() error {
	var firstErr error
	for _, s := range m.List() {
		s.mu.Lock()
		if err := s.compactLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.jr.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.mu.Unlock()
		s.sess.Cancel()
		s.bump()
	}
	m.lwmu.Lock()
	for _, ws := range m.live {
		ws.mu.Lock()
		if err := ws.jr.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		ws.mu.Unlock()
	}
	m.lwmu.Unlock()
	return firstErr
}

// generateID returns a random 16-hex-char session id.
func generateID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: reading random bytes: %v", err))
	}
	return "s" + hex.EncodeToString(b[:])
}

// ManagedSession is one resolution owned by a Manager: a humo.Session plus
// its journal. The answer path is serialized by a per-session mutex so the
// journal on disk always reflects a prefix of the applied answers.
type ManagedSession struct {
	id           string
	spec         Spec
	sess         *humo.Session
	cpPath       string
	compactEvery int
	metrics      *obs.Registry

	// crowd is the server-side workforce of a Spec.Crowd session (nil
	// otherwise); crowdLast is the stats snapshot after the driver's
	// previous batch, touched only by the driver goroutine.
	crowd     *humo.CrowdLabeler
	crowdLast humo.CrowdStats

	mu          sync.Mutex
	jr          *journal
	unjournaled bool          // labels applied in memory but persisted nowhere (a journal append failed)
	changed     chan struct{} // closed and replaced whenever the label log grows
}

// ID returns the session's name.
func (s *ManagedSession) ID() string { return s.id }

// Spec returns the creation spec.
func (s *ManagedSession) Spec() Spec { return s.spec }

// Session exposes the underlying humo.Session (for Next long-polls and the
// read-only accessors; mutations must go through Answer so they are
// journaled).
func (s *ManagedSession) Session() *humo.Session { return s.sess }

// Next delegates to Session.Next: it blocks until the session needs labels
// or terminates, honoring ctx.
func (s *ManagedSession) Next(ctx context.Context) (humo.Batch, error) {
	return s.sess.Next(ctx)
}

// Answer feeds labels into the session and journals the change as one
// delta line appended (and fsynced) to the session's journal file before
// returning — O(batch) disk work, not O(log). Partial answers are allowed,
// as in Session.Answer. Once the journal holds compactEvery deltas it is
// compacted: the base checkpoint is rewritten atomically and the delta file
// truncated. A crash between any two answers loses nothing that was
// acknowledged.
func (s *ManagedSession) Answer(labels map[int]bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unjournaled {
		// A previous append failed after its labels were applied in memory,
		// so a retry of that Answer sees an empty applied delta and would be
		// acknowledged without ever being persisted. Refuse to acknowledge
		// anything until a compaction folds the orphaned labels into the base.
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	applied, err := s.sess.AnswerApplied(labels)
	if err != nil {
		return err
	}
	if len(applied) > 0 {
		if err := s.jr.appendDelta(applied); err != nil {
			// The labels are already in memory and will be acknowledged on
			// retry whether or not we journal them now. Rewrite the base
			// instead — a successful compaction persists them, keeping the
			// "loses nothing acknowledged" guarantee, so the answer succeeds.
			if cerr := s.compactLocked(); cerr != nil {
				s.unjournaled = true
				return err
			}
		} else {
			s.metrics.Counter("journal_appends_total").Inc()
			if s.jr.len() >= s.compactEvery {
				if err := s.compactLocked(); err != nil {
					return err
				}
			}
		}
	}
	s.bumpLocked()
	return nil
}

// startCrowd launches the crowd driver of a Spec.Crowd session: a goroutine
// that resolves every surfaced batch through the crowd pipeline and answers
// it via the journaled Answer path, so a crowd session persists and recovers
// exactly like a client-driven one. The driver exits when the session
// terminates (including Cancel from Delete/Close, which unblocks Next).
func (s *ManagedSession) startCrowd() {
	if s.crowd == nil {
		return
	}
	go s.runCrowd()
}

func (s *ManagedSession) runCrowd() {
	ctx := context.Background()
	for {
		b, err := s.sess.Next(ctx)
		if err != nil || b.Empty() {
			return
		}
		ans, err := s.crowd.LabelBatch(ctx, b.IDs)
		if err != nil {
			// The pipeline refused the batch (e.g. a pair outside the truth
			// set): the resolution cannot proceed and must fail loudly, not
			// hang — clients observe the canceled session via status/labels.
			s.metrics.Counter("crowd_failures_total").Inc()
			s.sess.Cancel()
			s.bump()
			return
		}
		stats := s.crowd.Stats()
		s.metrics.Counter("crowd_hits_total").Add(stats.HITs - s.crowdLast.HITs)
		s.metrics.Counter("crowd_votes_total").Add(stats.Votes - s.crowdLast.Votes)
		s.metrics.Counter("crowd_inferred_total").Add(stats.Inferred - s.crowdLast.Inferred)
		s.metrics.Counter("crowd_conflicts_total").Add(stats.Conflicts - s.crowdLast.Conflicts)
		s.crowdLast = stats
		if err := s.Answer(ans); err != nil {
			s.metrics.Counter("crowd_failures_total").Inc()
			s.sess.Cancel()
			s.bump()
			return
		}
	}
}

// compactLocked folds the delta journal into the base snapshot: the full
// checkpoint is rewritten atomically, then the delta file truncated. A
// crash between the two leaves deltas that are already folded in; replaying
// them is idempotent, so recovery stays exact.
func (s *ManagedSession) compactLocked() error {
	if err := dataio.WriteFileAtomic(s.cpPath, s.sess.Checkpoint); err != nil {
		return err
	}
	if err := s.jr.truncate(); err != nil {
		return err
	}
	s.unjournaled = false
	s.metrics.Counter("journal_compactions_total").Inc()
	return nil
}

// bump wakes everyone blocked in WaitLabels.
func (s *ManagedSession) bump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bumpLocked()
}

func (s *ManagedSession) bumpLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// WaitLabels returns the session's answers for the requested ids, blocking
// until every id is answered, the session terminates, or ctx expires. The
// second return lists the ids still unanswered (empty on full coverage);
// done reports whether the session was observed terminated CONSISTENTLY
// with that snapshot (missing ids can never be answered once done is
// true); err is non-nil only for ctx expiry.
func (s *ManagedSession) WaitLabels(ctx context.Context, ids []int) (got map[int]bool, missing []int, done bool, err error) {
	for {
		s.mu.Lock()
		ch := s.changed
		s.mu.Unlock()
		// Order matters: observe termination BEFORE snapshotting the log. A
		// terminated session's log is frozen (late Answers are refused), so
		// a post-observation snapshot is complete — whereas the reverse
		// order could report an id as missing that was answered between the
		// snapshot and the termination check.
		done = s.sess.Done()
		answered := s.sess.Answered()
		got = make(map[int]bool, len(ids))
		missing = nil
		for _, id := range ids {
			if v, ok := answered[id]; ok {
				got[id] = v
			} else {
				missing = append(missing, id)
			}
		}
		if len(missing) == 0 || done {
			return got, missing, done, nil
		}
		select {
		case <-ch:
		case <-s.sess.DoneChan():
		case <-ctx.Done():
			return got, missing, false, ctx.Err()
		}
	}
}

// RiskStatus is the JSON shape of a risk session's schedule progress: the
// currently certified DH bounds, how much of them is still unanswered, and
// the early-stop state. It is present (and live-updating) while the session
// runs, so status polls can watch the certified zone shrink.
type RiskStatus struct {
	Lo              int  `json:"lo"`
	Hi              int  `json:"hi"`
	RemainingPairs  int  `json:"remaining_pairs"`
	AnsweredPairs   int  `json:"answered_pairs"`
	Batches         int  `json:"batches"`
	Certified       bool `json:"certified"`
	BudgetExhausted bool `json:"budget_exhausted"`
}

// CorrectStatus is the JSON shape of a correct session's correction
// progress: the current precision/recall certificate, how much of the
// workload is verified, and the termination state. It is present (and
// live-updating) while the session runs, so status polls can watch the
// certificate tighten toward the requirement.
type CorrectStatus struct {
	PrecisionLo     float64 `json:"precision_lo"`
	RecallLo        float64 `json:"recall_lo"`
	DeclaredMatches int     `json:"declared_matches"`
	Verified        int     `json:"verified"`
	Remaining       int     `json:"remaining"`
	Batches         int     `json:"batches"`
	Certified       bool    `json:"certified"`
	BudgetExhausted bool    `json:"budget_exhausted"`
}

// CrowdStatus is the JSON shape of a crowd session's work counters: the
// task pages issued, the worker votes cast, the pairs answered for free by
// transitive closure, the conflicts surfaced, and the extra votes requested
// below the confidence floor.
type CrowdStatus struct {
	HITs        int64 `json:"hits"`
	Votes       int64 `json:"votes"`
	Inferred    int64 `json:"inferred"`
	Conflicts   int64 `json:"conflicts"`
	Escalations int64 `json:"escalations"`
}

// SolutionStatus is the JSON shape of a finished division.
type SolutionStatus struct {
	Method       string `json:"method"`
	Lo           int    `json:"lo"`
	Hi           int    `json:"hi"`
	Empty        bool   `json:"empty"`
	HumanPairs   int    `json:"human_pairs"`
	SampledPairs int    `json:"sampled_pairs"`
}

// Status is a point-in-time snapshot of a session, the JSON body of
// GET /v1/sessions/{id}.
type Status struct {
	ID            string `json:"id"`
	Method        string `json:"method"`
	Seed          int64  `json:"seed"`
	WorkloadPairs int    `json:"workload_pairs"`
	Answered      int    `json:"answered"`
	Cost          int    `json:"cost"`
	Pending       []int  `json:"pending,omitempty"`
	Done          bool   `json:"done"`
	Error         string `json:"error,omitempty"`

	// Risk is the schedule progress of a method "risk" session, present
	// once the schedule completed its first re-estimation round.
	Risk *RiskStatus `json:"risk,omitempty"`

	// Correct is the correction progress of a method "correct" session,
	// present once the correction completed its first verification round.
	Correct *CorrectStatus `json:"correct,omitempty"`

	// Crowd is the live work ledger of a Spec.Crowd session.
	Crowd *CrowdStatus `json:"crowd,omitempty"`

	// Solution is set once the session terminated successfully.
	Solution *SolutionStatus `json:"solution,omitempty"`
	// Matches counts matching pairs of the full resolution (Resolve specs
	// only, once done).
	Matches *int `json:"matches,omitempty"`
}

// Status snapshots the session without blocking.
func (s *ManagedSession) Status() Status {
	st := Status{
		ID:            s.id,
		Method:        s.spec.Method,
		Seed:          s.spec.Seed,
		WorkloadPairs: s.sess.Workload().Len(),
		Answered:      len(s.sess.Answered()),
		Cost:          s.sess.Cost(),
		Done:          s.sess.Done(),
		Pending:       s.sess.Pending(),
	}
	if s.crowd != nil {
		cs := s.crowd.Stats()
		st.Crowd = &CrowdStatus{
			HITs:        cs.HITs,
			Votes:       cs.Votes,
			Inferred:    cs.Inferred,
			Conflicts:   cs.Conflicts,
			Escalations: cs.Escalations,
		}
	}
	if p, ok := s.sess.RiskProgress(); ok {
		st.Risk = &RiskStatus{
			Lo: p.Lo, Hi: p.Hi,
			RemainingPairs:  p.Remaining,
			AnsweredPairs:   p.Answered,
			Batches:         p.Batches,
			Certified:       p.Certified,
			BudgetExhausted: p.BudgetExhausted,
		}
	}
	if p, ok := s.sess.CorrectProgress(); ok {
		st.Correct = &CorrectStatus{
			PrecisionLo:     p.PrecisionLo,
			RecallLo:        p.RecallLo,
			DeclaredMatches: p.DeclaredMatches,
			Verified:        p.Verified,
			Remaining:       p.Remaining,
			Batches:         p.Batches,
			Certified:       p.Certified,
			BudgetExhausted: p.BudgetExhausted,
		}
	}
	if !st.Done {
		return st
	}
	if err := s.sess.Err(); err != nil {
		st.Error = err.Error()
		return st
	}
	sol := s.sess.Solution()
	st.Solution = &SolutionStatus{
		Method:       sol.Method,
		Lo:           sol.Lo,
		Hi:           sol.Hi,
		Empty:        sol.Empty(),
		HumanPairs:   sol.HumanPairs(s.sess.Workload()),
		SampledPairs: sol.SampledPairs,
	}
	if labels := s.sess.Labels(); labels != nil {
		n := 0
		for _, v := range labels {
			if v {
				n++
			}
		}
		st.Matches = &n
	}
	return st
}
