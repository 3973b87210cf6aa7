package humo

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"

	"humo/internal/core"
	"humo/internal/gp"
)

// Method names a search a Session can drive.
type Method string

// The seven searches of the package, by CLI name.
const (
	MethodBase            Method = "base"
	MethodAllSampling     Method = "allsampling"
	MethodPartialSampling Method = "sampling"
	MethodHybrid          Method = "hybrid"
	MethodBudgeted        Method = "budgeted"
	MethodRisk            Method = "risk"
	MethodCorrect         Method = "correct"
)

// ParseMethod parses a method name as used by SessionConfig and the CLIs.
func ParseMethod(s string) (Method, error) {
	switch m := Method(s); m {
	case MethodBase, MethodAllSampling, MethodPartialSampling, MethodHybrid, MethodBudgeted, MethodRisk, MethodCorrect:
		return m, nil
	}
	return "", fmt.Errorf("humo: unknown method %q (want base, allsampling, sampling, hybrid, budgeted, risk or correct)", s)
}

// ErrSessionCanceled is the terminal error of a session stopped by Cancel.
var ErrSessionCanceled = errors.New("humo: session canceled")

// ErrSessionDone reports an Answer sent to a session that already
// terminated.
var ErrSessionDone = errors.New("humo: session already terminated")

// ErrCheckpointMismatch reports a checkpoint restored against a workload or
// configuration it was not written for.
var ErrCheckpointMismatch = errors.New("humo: checkpoint does not match session configuration")

// SessionConfig configures a resolution session. Exactly one search runs,
// selected by Method; the matching config field applies (Base for
// MethodBase, Sampling for the sampling and budgeted searches, Hybrid —
// including its embedded Sampling — for MethodHybrid).
//
// All sampling randomness is derived from Seed so that a session replays
// deterministically from its answered-label log: the Rand fields of
// Sampling and Hybrid.Sampling must be left nil.
type SessionConfig struct {
	Method Method

	Base     BaseConfig
	Sampling SamplingConfig
	Hybrid   HybridConfig
	// Risk configures MethodRisk (its embedded Sampling applies instead of
	// the top-level one). Risk.Sampling.Rand must be nil — session
	// randomness derives from Seed — and Risk.Progress must be nil: the
	// session installs its own hook, read back via RiskProgress.
	Risk RiskConfig
	// Correct configures MethodCorrect: the classifier's labels to be
	// risk-corrected plus the stratification and schedule knobs.
	// Correct.Rand must be nil — session randomness derives from Seed — and
	// Correct.Progress must be nil: the session installs its own hook, read
	// back via CorrectProgress.
	Correct CorrectConfig

	// BudgetPairs is the manual-inspection budget of MethodBudgeted
	// (ignored by the other methods, which take a Requirement instead).
	BudgetPairs int

	// Seed drives every sampling decision. Keep it fixed across
	// checkpoint/restore cycles: the search re-runs from scratch on
	// restore and must ask for the same pairs in the same order.
	Seed int64

	// Resolve extends the session past the search: after a solution is
	// found, the pairs of DH are labeled through the same batch loop, and
	// Labels reports the complete resolution. Without it the session
	// terminates as soon as the division is known.
	Resolve bool

	// Known seeds the answered-label log, e.g. with a label file from an
	// earlier review round. Known answers are replayed without being
	// surfaced in batches; they count toward Cost only if the search
	// actually asks for them.
	Known map[int]bool
}

// Batch is one round of pairs needing human labels: deduplicated, sorted by
// pair id, and all unanswered at the time it was emitted.
type Batch struct {
	IDs []int
}

// Empty reports whether the batch carries no work — the session has
// terminated when Next returns an empty batch.
func (b Batch) Empty() bool { return len(b.IDs) == 0 }

// Session drives one search as a pausable state machine. The search runs on
// an internal goroutine against a channel-backed oracle; whenever it needs
// labels the session parks it and hands the caller a Batch:
//
//	s, err := humo.NewSession(w, req, humo.SessionConfig{Method: humo.MethodHybrid, Seed: 1})
//	for {
//		b, err := s.Next(ctx)
//		if err != nil { ... }           // terminal failure or ctx cancellation
//		if b.Empty() { break }          // terminated: Solution()/Err()/Labels()
//		s.Answer(askTheHumans(b.IDs))   // partial answers allowed
//	}
//
// Next, Answer, Extend, Checkpoint, Cancel and the accessors are safe for
// concurrent use. A session that is abandoned before terminating must be
// Canceled, or its search goroutine stays parked forever.
//
// A live session can absorb workload growth without restarting: Extend
// merges delta pairs (from IncrementalWorkload.Sync or any other source of
// new candidates) into the workload and transparently re-runs the search
// over the extended workload — the answered-label log is kept, so the
// replay races through everything already asked and only the strata the
// delta actually touched cost new questions. Each Extend starts a new
// epoch; the per-epoch workload fingerprints form a monotone chain
// (WorkloadChain) that checkpoints embed, so recovery can identify which
// epoch a checkpoint was taken at and replay later appends
// deterministically.
type Session struct {
	req Requirement
	cfg SessionConfig

	mu       sync.Mutex
	w        *Workload        // current-epoch workload; replaced by Extend
	epoch    int              // bumped per Extend
	chain    []string         // workload fingerprint per epoch; chain[0] is the initial one
	answered map[int]bool     // the label log: Known + everything Answered
	consumed map[int]struct{} // distinct ids the search asked — the cost ledger
	pending  []int            // unanswered remainder of the surfaced batch
	done     bool
	sol      Solution
	labels   []bool
	err      error
	riskProg *RiskProgress    // latest MethodRisk schedule snapshot
	corrProg *CorrectProgress // latest MethodCorrect correction snapshot

	// The search/caller rendezvous channels are per-epoch: Extend replaces
	// all three under mu and closes the superseded epoch's extendCh, which
	// unparks — and unwinds — every goroutine still blocked on the old
	// channels. doneCh and abort span the whole session.
	reqCh    chan []int    // search -> Next: a batch of unknown ids
	ansCh    chan struct{} // Answer/Next -> search: the batch is fully answered
	extendCh chan struct{} // closed when this epoch is superseded by Extend

	doneCh    chan struct{} // closed when the search goroutine exits for good
	abort     chan struct{} // closed by Cancel
	abortOnce sync.Once
}

// NewSession validates the configuration and starts the search. Requirement
// validation happens here — not deep inside the first Next — so a bad
// Alpha/Beta/Theta fails fast. MethodBudgeted ignores req.
func NewSession(w *Workload, req Requirement, cfg SessionConfig) (*Session, error) {
	return newSession(w, req, cfg, nil)
}

// newSession is NewSession with an optional pre-existing fingerprint chain:
// nil starts epoch 0 fresh; a restore passes the checkpointed chain so the
// session resumes at the epoch the checkpoint was taken at (the chain's
// last element must fingerprint w).
func newSession(w *Workload, req Requirement, cfg SessionConfig, chain []string) (*Session, error) {
	if w == nil {
		return nil, errors.New("humo: nil workload")
	}
	if _, err := ParseMethod(string(cfg.Method)); err != nil {
		return nil, err
	}
	if cfg.Method != MethodBudgeted {
		if err := req.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Sampling.Rand != nil || cfg.Hybrid.Sampling.Rand != nil || cfg.Risk.Sampling.Rand != nil || cfg.Correct.Rand != nil {
		return nil, errors.New("humo: session randomness is derived from SessionConfig.Seed; leave the Rand fields nil")
	}
	if cfg.Risk.Progress != nil {
		return nil, errors.New("humo: Risk.Progress must be nil in sessions; read progress back via Session.RiskProgress")
	}
	if cfg.Correct.Progress != nil {
		return nil, errors.New("humo: Correct.Progress must be nil in sessions; read progress back via Session.CorrectProgress")
	}
	if len(chain) == 0 {
		chain = []string{workloadFingerprint(w)}
	} else {
		chain = append([]string(nil), chain...)
	}
	s := &Session{
		w:        w,
		req:      req,
		cfg:      cfg,
		epoch:    len(chain) - 1,
		chain:    chain,
		answered: make(map[int]bool, len(cfg.Known)),
		consumed: make(map[int]struct{}),
		reqCh:    make(chan []int),
		ansCh:    make(chan struct{}),
		extendCh: make(chan struct{}),
		doneCh:   make(chan struct{}),
		abort:    make(chan struct{}),
	}
	for id, v := range cfg.Known {
		s.answered[id] = v
	}
	go s.run()
	return s, nil
}

// errSessionAborted is the sentinel the oracle adapter panics with when
// Cancel fires while the search is parked.
var errSessionAborted = errors.New("humo: internal session abort")

// errSessionExtended is the sentinel the oracle adapter panics with when
// Extend supersedes the epoch a parked search belongs to; run catches it
// and restarts the search over the extended workload.
var errSessionExtended = errors.New("humo: internal session extend")

// run drives the search to a terminal state, restarting it whenever an
// Extend supersedes the epoch it was running over. The terminal commit and
// Extend serialize on mu: either Extend saw done first (and returned
// ErrSessionDone) or the commit sees the bumped epoch and loops.
func (s *Session) run() {
	for {
		s.mu.Lock()
		w, epoch := s.w, s.epoch
		reqCh, ansCh, extendCh := s.reqCh, s.ansCh, s.extendCh
		s.mu.Unlock()
		sol, labels, err, superseded := s.searchEpoch(w, reqCh, ansCh, extendCh)
		if superseded {
			continue
		}
		s.mu.Lock()
		if s.epoch != epoch {
			// Extended after the search finished but before this commit:
			// the result covers a stale workload, so search again.
			s.mu.Unlock()
			continue
		}
		s.done = true
		s.sol, s.labels, s.err = sol, labels, err
		s.pending = nil
		s.mu.Unlock()
		close(s.doneCh)
		return
	}
}

// searchEpoch runs one search over the given epoch's workload and channels.
// superseded reports that an Extend replaced the epoch mid-search; the
// other results are then meaningless. The rng is recreated from Seed per
// epoch, so each epoch's search is a deterministic replay given the label
// log — the property restore and Extend both lean on.
func (s *Session) searchEpoch(w *Workload, reqCh chan []int, ansCh, extendCh chan struct{}) (sol Solution, labels []bool, err error, superseded bool) {
	defer func() {
		if r := recover(); r != nil {
			switch r { //nolint:errorlint // sentinel identity
			case errSessionAborted:
				sol, labels, err = Solution{}, nil, ErrSessionCanceled
			case errSessionExtended:
				superseded = true
			default:
				panic(r)
			}
		}
	}()
	ad := &sessionOracle{s: s, reqCh: reqCh, ansCh: ansCh, extendCh: extendCh}
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	switch s.cfg.Method {
	case MethodBase:
		sol, err = core.BaseSearch(w, s.req, ad, s.cfg.Base)
	case MethodAllSampling:
		sc := s.cfg.Sampling
		sc.Rand = rng
		sol, err = core.AllSamplingSearch(w, s.req, ad, sc)
	case MethodPartialSampling:
		sc := s.cfg.Sampling
		sc.Rand = rng
		sol, err = core.PartialSamplingSearch(w, s.req, ad, sc)
	case MethodHybrid:
		hc := s.cfg.Hybrid
		hc.Sampling.Rand = rng
		sol, err = core.HybridSearch(w, s.req, ad, hc)
	case MethodBudgeted:
		sc := s.cfg.Sampling
		sc.Rand = rng
		sol, err = core.BudgetedSearch(w, s.cfg.BudgetPairs, ad, sc)
	case MethodRisk:
		rc := s.cfg.Risk
		rc.Sampling.Rand = rng
		rc.Progress = s.storeRiskProgress
		sol, err = core.RiskSearch(w, s.req, ad, rc)
	case MethodCorrect:
		cc := s.cfg.Correct
		cc.Rand = rng
		cc.Progress = s.storeCorrectProgress
		// The corrected label set is the search's own product — every pair
		// carries a final label when it certifies — so MethodCorrect always
		// reports Labels and never runs the Resolve phase (the Solution's DH
		// is empty and must not be Resolved).
		sol, labels, err = core.CorrectSearch(w, s.req, ad, cc)
		return sol, labels, err, false
	}
	if err == nil && s.cfg.Resolve {
		labels = sol.Resolve(w, ad)
	}
	return sol, labels, err, false
}

// sessionOracle is the channel-backed oracle the search runs against. Known
// answers are served from the log; unknown ids park the search goroutine
// until the caller Answers them (or Cancel aborts the run, or Extend
// supersedes the epoch). The channels are captured at search start — a
// search superseded mid-flight must never publish a batch on a newer
// epoch's channels, or the set of asked ids would depend on Extend timing
// and the new epoch's replay would stop being deterministic.
type sessionOracle struct {
	s        *Session
	reqCh    chan []int
	ansCh    chan struct{}
	extendCh chan struct{}
}

func (a *sessionOracle) LabelAll(ids []int) []bool {
	s := a.s
	s.mu.Lock()
	// A superseded search must not touch the cost ledger: the new epoch's
	// replay re-asks deterministically, and stale asks would make Cost
	// depend on where Extend happened to land.
	if s.extendCh != a.extendCh {
		s.mu.Unlock()
		panic(errSessionExtended)
	}
	var unknown []int
	seen := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		s.consumed[id] = struct{}{}
		if _, ok := s.answered[id]; !ok {
			unknown = append(unknown, id)
		}
	}
	s.mu.Unlock()
	if len(unknown) > 0 {
		sort.Ints(unknown)
		select {
		case a.reqCh <- unknown:
		case <-s.abort:
			panic(errSessionAborted)
		case <-a.extendCh:
			panic(errSessionExtended)
		}
		select {
		case <-a.ansCh:
		case <-s.abort:
			panic(errSessionAborted)
		case <-a.extendCh:
			panic(errSessionExtended)
		}
	}
	s.mu.Lock()
	out := make([]bool, len(ids))
	for i, id := range ids {
		out[i] = s.answered[id]
	}
	s.mu.Unlock()
	return out
}

// Next blocks until the session needs labels or terminates. It returns the
// next Batch of pair ids to label, or an empty Batch once the session has
// terminated — successfully (nil error) or with the terminal error. A ctx
// cancellation returns ctx's error without terminating the session; use
// Cancel to abort it.
func (s *Session) Next(ctx context.Context) (Batch, error) {
	for {
		s.mu.Lock()
		if len(s.pending) > 0 {
			b := append([]int(nil), s.pending...)
			s.mu.Unlock()
			return Batch{IDs: b}, nil
		}
		done, err := s.done, s.err
		epoch := s.epoch
		reqCh, ansCh, extendCh := s.reqCh, s.ansCh, s.extendCh
		s.mu.Unlock()
		if done {
			return Batch{}, err
		}
		// A batch the search has already produced wins over a canceled ctx:
		// the non-blocking receive keeps zero-wait snapshot polls (e.g.
		// humod's ?wait=0) deterministic instead of racing the ready reqCh
		// against ctx.Done in one select.
		select {
		case ids := <-reqCh:
			if b, ok := s.acceptBatch(ids, epoch, ansCh, extendCh); ok {
				return b, nil
			}
			continue
		default:
		}
		select {
		case ids := <-reqCh:
			if b, ok := s.acceptBatch(ids, epoch, ansCh, extendCh); ok {
				return b, nil
			}
		case <-s.doneCh:
			// Loop: re-read the terminal state under the lock.
		case <-extendCh:
			// The epoch was superseded; loop to pick up the new channels.
		case <-ctx.Done():
			return Batch{}, ctx.Err()
		}
	}
}

// acceptBatch turns a batch received from the search into the surfaced
// pending set. Answers may have arrived through Answer (or a restore merge)
// while the search was computing; only what is still unanswered surfaces,
// and a fully-covered batch releases the search immediately (ok false). A
// batch from a superseded epoch is dropped without touching pending — the
// extended search will re-ask what still matters.
func (s *Session) acceptBatch(ids []int, epoch int, ansCh, extendCh chan struct{}) (Batch, bool) {
	s.mu.Lock()
	if s.epoch != epoch {
		s.mu.Unlock()
		return Batch{}, false
	}
	var remaining []int
	for _, id := range ids {
		if _, ok := s.answered[id]; !ok {
			remaining = append(remaining, id)
		}
	}
	s.pending = remaining
	s.mu.Unlock()
	if len(remaining) == 0 {
		s.release(ansCh, extendCh)
		return Batch{}, false
	}
	return Batch{IDs: append([]int(nil), remaining...)}, true
}

// release unparks the search goroutine after its batch is fully answered.
// The channels are the batch's epoch's: a search already unwound by Extend
// or Cancel is never waited on.
func (s *Session) release(ansCh, extendCh chan struct{}) {
	select {
	case ansCh <- struct{}{}:
	case <-s.doneCh: // the run was aborted while we held the answers
	case <-extendCh: // the epoch was superseded while we held the answers
	}
}

// storeRiskProgress is the Progress hook a MethodRisk search reports
// through; the latest snapshot is read back with RiskProgress.
func (s *Session) storeRiskProgress(p RiskProgress) {
	s.mu.Lock()
	s.riskProg = &p
	s.mu.Unlock()
}

// RiskProgress returns the latest schedule snapshot of a MethodRisk session
// (certified DH bounds, unanswered pairs inside them, answered count,
// early-stop state). ok is false until the risk schedule has completed its
// first re-estimation round, and always for the other methods.
func (s *Session) RiskProgress() (p RiskProgress, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.riskProg == nil {
		return RiskProgress{}, false
	}
	return *s.riskProg, true
}

// storeCorrectProgress is the Progress hook a MethodCorrect search reports
// through; the latest snapshot is read back with CorrectProgress.
func (s *Session) storeCorrectProgress(p CorrectProgress) {
	s.mu.Lock()
	s.corrProg = &p
	s.mu.Unlock()
}

// CorrectProgress returns the latest correction snapshot of a MethodCorrect
// session (certificate bounds, verified/remaining counts, budget state). ok
// is false until the correction has completed its first verification round,
// and always for the other methods.
func (s *Session) CorrectProgress() (p CorrectProgress, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.corrProg == nil {
		return CorrectProgress{}, false
	}
	return *s.corrProg, true
}

// Answer feeds human labels into the session's log. Partial answers are
// allowed: the unanswered remainder of the current batch is returned by the
// following Next, and the search resumes only once the whole batch is
// covered. Ids outside the current batch are recorded too (and served if
// the search asks later). An empty (or nil) labels map is a no-op: it
// records nothing, releases nothing and returns nil even on a terminated
// session — so a Labeler that polls and comes back empty-handed does not
// burn the batch cycle or trip an error. Answering a terminated session
// with actual labels is an error.
func (s *Session) Answer(labels map[int]bool) error {
	_, err := s.AnswerApplied(labels)
	return err
}

// AnswerApplied is Answer plus the delta it produced: the subset of labels
// that actually changed the answered-label log (new pair ids, or ids
// re-answered with a different value). Incremental journals persist exactly
// this subset per batch instead of rewriting the whole log; replaying the
// deltas in order over any earlier snapshot reconstructs the log the call
// left behind. The returned map is nil when nothing changed.
func (s *Session) AnswerApplied(labels map[int]bool) (applied map[int]bool, err error) {
	if len(labels) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return nil, ErrSessionDone
	}
	for id, v := range labels {
		if prev, ok := s.answered[id]; ok && prev == v {
			continue
		}
		if applied == nil {
			applied = make(map[int]bool, len(labels))
		}
		applied[id] = v
		s.answered[id] = v
	}
	released := false
	var ansCh, extendCh chan struct{}
	if len(s.pending) > 0 {
		var remaining []int
		for _, id := range s.pending {
			if _, ok := s.answered[id]; !ok {
				remaining = append(remaining, id)
			}
		}
		s.pending = remaining
		released = len(remaining) == 0
		// Capture the channels under the same lock that decided to release:
		// pending always belongs to the current epoch (Extend clears it), so
		// these are the channels the parked search is waiting on.
		ansCh, extendCh = s.ansCh, s.extendCh
	}
	s.mu.Unlock()
	if released {
		s.release(ansCh, extendCh)
	}
	return applied, nil
}

// Extend merges newPairs into the session's workload and starts a new
// epoch: the running search is unwound at its next oracle interaction and
// re-run over the extended workload. The answered-label log survives — the
// replay races through every pair already asked, so only the strata the new
// pairs actually land in cost additional human questions. Pair ids must not
// collide with existing ones (IncrementalWorkload.Sync's deltas continue
// the cumulative numbering and are safe by construction).
//
// An empty (or nil) newPairs is a no-op returning nil even on a terminated
// session, mirroring Answer's empty-call semantics. Extending a session
// that already terminated — including by Cancel — returns ErrSessionDone
// with the label log intact; callers wanting to resolve the grown workload
// start a fresh session seeded with Answered().
func (s *Session) Extend(newPairs []Pair) error {
	if len(newPairs) == 0 {
		return nil
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return ErrSessionDone
	}
	if id, dup := duplicateID(s.w, newPairs); dup {
		s.mu.Unlock()
		return fmt.Errorf("humo: Extend pair id %d already in the workload", id)
	}
	w, err := s.w.Extend(newPairs)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	oldExtendCh := s.extendCh
	s.w = w
	s.epoch++
	s.chain = append(s.chain, workloadFingerprint(w))
	s.pending = nil
	s.reqCh = make(chan []int)
	s.ansCh = make(chan struct{})
	s.extendCh = make(chan struct{})
	s.mu.Unlock()
	// Unpark everything still blocked on the superseded epoch's channels —
	// the search unwinds into a restart, parked Next calls re-snapshot.
	close(oldExtendCh)
	return nil
}

// duplicateID reports the first pair of delta, in delta order, whose id is
// already taken by the workload or by an earlier delta pair. It indexes only
// the delta and scans the workload's ids against it, so the cost is one
// pass over the workload and no workload-sized allocation; ids outside the
// delta's id range (all of them, for deltas that continue a numbering)
// skip the lookup.
func duplicateID(w *Workload, delta []Pair) (int, bool) {
	first := make(map[int]int, len(delta)) // id -> first delta position
	hit := len(delta)                      // earliest colliding delta position
	lo, hi := delta[0].ID, delta[0].ID
	for i, p := range delta {
		if _, dup := first[p.ID]; dup {
			hit = i
			break
		}
		first[p.ID] = i
		lo, hi = min(lo, p.ID), max(hi, p.ID)
	}
	for i := 0; i < w.Len(); i++ {
		id := w.Pair(i).ID
		if id < lo || id > hi {
			continue
		}
		if k, ok := first[id]; ok && k < hit {
			hit = k
		}
	}
	if hit == len(delta) {
		return 0, false
	}
	return delta[hit].ID, true
}

// Run drives the session to termination with a Labeler: the batch loop of
// Next/Answer with error propagation. A Labeler failure or ctx cancellation
// cancels the session and is returned.
func (s *Session) Run(ctx context.Context, l Labeler) (Solution, error) {
	for {
		b, err := s.Next(ctx)
		if err != nil {
			s.Cancel()
			return Solution{}, err
		}
		if b.Empty() {
			return s.Solution(), nil
		}
		ans, err := l.LabelBatch(ctx, b.IDs)
		if err != nil {
			s.Cancel()
			return Solution{}, fmt.Errorf("humo: labeler failed: %w", err)
		}
		if err := s.Answer(ans); err != nil {
			return Solution{}, err
		}
	}
}

// Cancel aborts the session: the search goroutine is torn down at its next
// label request and the session terminates with ErrSessionCanceled. Cancel
// waits for the goroutine to exit, so the terminal state is observable when
// it returns. Canceling a terminated session is a no-op; a search that
// never asks for another label finishes normally (with its real result).
func (s *Session) Cancel() {
	s.abortOnce.Do(func() {
		s.mu.Lock()
		s.pending = nil
		s.mu.Unlock()
		close(s.abort)
	})
	<-s.doneCh
}

// DoneChan returns a channel that is closed when the session terminates,
// so callers can wait for termination in a select alongside other events
// (the accessor counterpart of Done).
func (s *Session) DoneChan() <-chan struct{} { return s.doneCh }

// Done reports whether the session has terminated.
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Err returns the terminal error: nil while running or after success,
// ErrSessionCanceled after Cancel, or the search's own failure.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Solution returns the division found by the search. It is meaningful only
// once the session terminated successfully (Done true, Err nil).
func (s *Session) Solution() Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sol
}

// Labels returns the complete resolution (indexed by sorted pair position,
// as Solution.Resolve) of a session configured with Resolve, or nil.
func (s *Session) Labels() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.labels == nil {
		return nil
	}
	return append([]bool(nil), s.labels...)
}

// Pending returns a copy of the currently surfaced batch's unanswered
// remainder, without consuming or waiting: pairs that some Next call has
// already handed out and that Answer has not yet covered. It is nil when
// nothing is surfaced — including the window where the search has computed
// a batch that no Next call has picked up yet.
func (s *Session) Pending() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	return append([]int(nil), s.pending...)
}

// Answered returns a copy of the answered-label log: every Known answer
// plus everything fed through Answer, whether or not the search asked for
// it. Serving layers use it to publish per-pair answers (e.g. the humod
// labels endpoint) without waiting for the session to terminate.
func (s *Session) Answered() map[int]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]bool, len(s.answered))
	for id, v := range s.answered {
		out[id] = v
	}
	return out
}

// Cost returns the human cost so far: the number of distinct pairs the
// search asked about, whether answered interactively or replayed from the
// Known log. It matches the Cost an oracle would have accounted in the
// one-shot API.
func (s *Session) Cost() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.consumed)
}

// Checkpoint serialization. A checkpoint is the answered-label log plus
// enough configuration to verify a restore is replaying the same search
// over the same workload. The search itself is not serialized: on restore
// it re-runs from scratch and the log answers everything it already asked,
// deterministically, because all sampling randomness derives from Seed.

const checkpointVersion = 1

type labelEntry struct {
	ID    int  `json:"id"`
	Match bool `json:"match"`
}

type sessionCheckpoint struct {
	Version       int     `json:"version"`
	Method        Method  `json:"method"`
	Seed          int64   `json:"seed"`
	Alpha         float64 `json:"alpha"`
	Beta          float64 `json:"beta"`
	Theta         float64 `json:"theta"`
	BudgetPairs   int     `json:"budget_pairs"`
	ConfigHash    string  `json:"config_hash"`
	WorkloadPairs int     `json:"workload_pairs"`
	SubsetSize    int     `json:"subset_size"`
	WorkloadHash  string  `json:"workload_hash"`
	// WorkloadChain is the per-epoch fingerprint chain of a session that
	// was Extended: chain[0] is the initial workload, each later element an
	// Extend, and the last element always equals WorkloadHash. Absent
	// (omitempty) on never-extended sessions, so pre-chain checkpoints stay
	// byte-identical and a legacy reader sees a valid single-epoch file.
	WorkloadChain []string     `json:"workload_chain,omitempty"`
	Labels        []labelEntry `json:"labels"`
}

// configFingerprint hashes the search knobs that shape which pairs the
// search asks for, so a restore with different Base/Sampling/Hybrid/Risk
// settings is refused instead of silently diverging from the label log.
// Workers fields are excluded (they trade wall-clock only, never results),
// and the Rand fields are nil by session invariant. The Risk knobs enter the
// hash only for MethodRisk, so checkpoints of the other methods keep the
// fingerprints they were written with. Sampling knobs render through
// samplingV1, so the hashed text stays the one existing checkpoints were
// written with (TestConfigFingerprintPinned pins it).
func configFingerprint(cfg SessionConfig) string {
	hyb := struct {
		Sampling samplingV1
		Window   int
	}{newSamplingV1(cfg.Hybrid.Sampling), cfg.Hybrid.Window}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%+v", cfg.Base, newSamplingV1(cfg.Sampling), hyb)
	if cfg.Method == MethodRisk {
		sched := cfg.Risk.Schedule
		sched.Workers = 0
		rc := struct {
			Sampling    samplingV1
			Schedule    RiskScheduleConfig
			BudgetPairs int
			Progress    func(RiskProgress) // always nil: a hook pointer must never enter the hash
		}{Sampling: newSamplingV1(cfg.Risk.Sampling), Schedule: sched, BudgetPairs: cfg.Risk.BudgetPairs}
		fmt.Fprintf(h, "|%+v", rc)
	}
	if cfg.Method == MethodCorrect {
		cc := cfg.Correct
		cc.Schedule.Workers = 0
		cc.Progress = nil // a hook pointer must never enter the hash
		cc.Rand = nil     // nil by session invariant; belt and braces
		labels := cc.Labels
		cc.Labels = nil
		fmt.Fprintf(h, "|%+v|%d", cc, len(labels))
		// The classifier labels shape the whole correction schedule, so they
		// enter the hash too — a restore over a retrained classifier must be
		// refused like any other config change.
		var buf [17]byte
		for _, l := range labels {
			binary.LittleEndian.PutUint64(buf[0:8], uint64(l.ID))
			binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(l.Score))
			buf[16] = 0
			if l.Match {
				buf[16] = 1
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// samplingV1 mirrors the SamplingConfig field set that config hashes were
// first written with. Its %+v text is part of the checkpoint format:
// CoherentAggregation and Workers no longer exist and always render as
// false and 0.
type samplingV1 struct {
	PairsPerSubset      int
	MinSampleFrac       float64
	MaxSampleFrac       float64
	Epsilon             float64
	GPGrid              []gp.Config
	GPNoiseFloor        float64
	CoherentAggregation bool
	Workers             int
	Rand                *rand.Rand
}

func newSamplingV1(c SamplingConfig) samplingV1 {
	return samplingV1{
		PairsPerSubset: c.PairsPerSubset,
		MinSampleFrac:  c.MinSampleFrac,
		MaxSampleFrac:  c.MaxSampleFrac,
		Epsilon:        c.Epsilon,
		GPGrid:         c.GPGrid,
		GPNoiseFloor:   c.GPNoiseFloor,
		Rand:           c.Rand,
	}
}

// WorkloadFingerprint returns a stable hash of the workload's sorted pair
// sequence (ids and similarity bits). Checkpoints embed it so a restore
// over a different workload is refused; callers that persist human labels
// keyed by pair id (e.g. cmd/humo's label files) should guard them the
// same way — the ids mean nothing once the candidate set changes.
func WorkloadFingerprint(w *Workload) string { return workloadFingerprint(w) }

// workloadFingerprint hashes the sorted pair sequence (id and similarity
// bits), so a checkpoint cannot silently be replayed over a different
// workload.
func workloadFingerprint(w *Workload) string {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < w.Len(); i++ {
		p := w.Pair(i)
		binary.LittleEndian.PutUint64(buf[0:8], uint64(p.ID))
		binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(p.Sim))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Checkpoint writes the session's answered-label log and configuration
// fingerprint as JSON. It may be called at any point of the lifecycle; a
// restore resumes from exactly the answers captured here.
func (s *Session) Checkpoint(w io.Writer) error {
	s.mu.Lock()
	entries := make([]labelEntry, 0, len(s.answered))
	for id, v := range s.answered {
		entries = append(entries, labelEntry{ID: id, Match: v})
	}
	// Workload and chain must be snapshotted under the same lock as the
	// label log: an Extend between the two would pair epoch-N labels with an
	// epoch-N+1 fingerprint and the checkpoint would never verify.
	// The chain's last element is the current workload's fingerprint (Extend
	// and restore both keep it so), which spares an O(pairs) rehash.
	wl, hash := s.w, s.chain[len(s.chain)-1]
	var chain []string
	if len(s.chain) > 1 {
		chain = append([]string(nil), s.chain...)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sessionCheckpoint{
		Version:       checkpointVersion,
		Method:        s.cfg.Method,
		Seed:          s.cfg.Seed,
		Alpha:         s.req.Alpha,
		Beta:          s.req.Beta,
		Theta:         s.req.Theta,
		BudgetPairs:   s.cfg.BudgetPairs,
		ConfigHash:    configFingerprint(s.cfg),
		WorkloadPairs: wl.Len(),
		SubsetSize:    wl.SubsetSize(),
		WorkloadHash:  hash,
		WorkloadChain: chain,
		Labels:        entries,
	})
}

// RestoreSession resumes a checkpointed resolution: the caller rebuilds the
// workload and configuration (they are deliberately not serialized — the
// workload may be large, and the config may hold live state), RestoreSession
// verifies they match what the checkpoint was written for, seeds the label
// log, and starts a session that replays deterministically up to the first
// genuinely unanswered pair. Answers in cfg.Known are merged in (checkpoint
// labels win on conflict).
func RestoreSession(w *Workload, req Requirement, cfg SessionConfig, r io.Reader) (*Session, error) {
	return RestoreSessionDeltas(w, req, cfg, r, nil)
}

// RestoreSessionDeltas resumes a resolution journaled as a base checkpoint
// plus ordered per-batch answer deltas appended after it (the incremental
// journal format of internal/serve). The base stream is verified exactly as
// RestoreSession verifies a full checkpoint; the deltas are then applied in
// order on top of its label log (a later delta wins over an earlier one and
// over the base), which reconstructs — bit-identically — the log the live
// session held after its last journaled Answer. With no deltas it is
// RestoreSession.
func RestoreSessionDeltas(w *Workload, req Requirement, cfg SessionConfig, base io.Reader, deltas []map[int]bool) (*Session, error) {
	var cp sessionCheckpoint
	if err := json.NewDecoder(base).Decode(&cp); err != nil {
		return nil, fmt.Errorf("humo: reading checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: checkpoint version %d, want %d", ErrCheckpointMismatch, cp.Version, checkpointVersion)
	}
	if cp.Method != cfg.Method || cp.Seed != cfg.Seed || cp.BudgetPairs != cfg.BudgetPairs {
		return nil, fmt.Errorf("%w: checkpoint is for method=%s seed=%d budget=%d, got method=%s seed=%d budget=%d",
			ErrCheckpointMismatch, cp.Method, cp.Seed, cp.BudgetPairs, cfg.Method, cfg.Seed, cfg.BudgetPairs)
	}
	if cfg.Method != MethodBudgeted && (cp.Alpha != req.Alpha || cp.Beta != req.Beta || cp.Theta != req.Theta) {
		return nil, fmt.Errorf("%w: checkpoint requirement (%v,%v,%v) differs from (%v,%v,%v)",
			ErrCheckpointMismatch, cp.Alpha, cp.Beta, cp.Theta, req.Alpha, req.Beta, req.Theta)
	}
	if cp.ConfigHash != configFingerprint(cfg) {
		return nil, fmt.Errorf("%w: search configuration (Base/Sampling/Hybrid knobs) changed since the checkpoint was written", ErrCheckpointMismatch)
	}
	if w == nil {
		return nil, errors.New("humo: nil workload")
	}
	if cp.WorkloadPairs != w.Len() || cp.SubsetSize != w.SubsetSize() || cp.WorkloadHash != workloadFingerprint(w) {
		return nil, fmt.Errorf("%w: workload changed since the checkpoint was written", ErrCheckpointMismatch)
	}
	if len(cp.WorkloadChain) > 0 && cp.WorkloadChain[len(cp.WorkloadChain)-1] != cp.WorkloadHash {
		return nil, fmt.Errorf("%w: checkpoint workload chain does not end at its workload hash", ErrCheckpointMismatch)
	}
	known := make(map[int]bool, len(cp.Labels)+len(cfg.Known))
	for id, v := range cfg.Known {
		known[id] = v
	}
	for _, e := range cp.Labels {
		known[e.ID] = e.Match
	}
	for _, d := range deltas {
		for id, v := range d {
			known[id] = v
		}
	}
	cfg.Known = known
	return newSession(w, req, cfg, cp.WorkloadChain)
}

// Workload returns the session's current-epoch workload: the initial one
// until the first Extend, then the merged workload of the latest epoch.
func (s *Session) Workload() *Workload {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w
}

// Epoch returns how many Extends the session has absorbed (0 before the
// first one). It equals len(WorkloadChain())-1.
func (s *Session) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// WorkloadChain returns a copy of the per-epoch workload fingerprint chain:
// element 0 fingerprints the workload the session started with, each later
// element the workload after one Extend, and the last element the current
// workload. The chain is monotone — Extend only appends — which is what
// lets recovery locate a checkpoint's epoch inside a longer chain and
// replay the remaining appends deterministically.
func (s *Session) WorkloadChain() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.chain...)
}

// CheckpointInfo is the workload identity embedded in a checkpoint,
// readable without the workload itself (ReadCheckpointInfo). Recovery uses
// it to decide which epoch of an append history a checkpoint was taken at
// before committing to rebuilding that workload.
type CheckpointInfo struct {
	WorkloadPairs int
	SubsetSize    int
	WorkloadHash  string
	// WorkloadChain is nil for checkpoints of never-extended sessions (the
	// single-epoch chain is then just [WorkloadHash]).
	WorkloadChain []string
}

// ReadCheckpointInfo decodes only the workload-identity header of a
// checkpoint stream. It validates the version but none of the search
// configuration — pair it with RestoreSession/RestoreSessionDeltas for the
// full verification.
func ReadCheckpointInfo(r io.Reader) (CheckpointInfo, error) {
	var cp sessionCheckpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return CheckpointInfo{}, fmt.Errorf("humo: reading checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return CheckpointInfo{}, fmt.Errorf("%w: checkpoint version %d, want %d", ErrCheckpointMismatch, cp.Version, checkpointVersion)
	}
	return CheckpointInfo{
		WorkloadPairs: cp.WorkloadPairs,
		SubsetSize:    cp.SubsetSize,
		WorkloadHash:  cp.WorkloadHash,
		WorkloadChain: cp.WorkloadChain,
	}, nil
}
