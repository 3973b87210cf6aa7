package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"humo"
	"humo/internal/dataio"
	"humo/internal/records"
)

// Live record ingest. A workload built server-side with an
// incremental-capable blocking mode (token or lsh — the default is token)
// stays live after the build: POST /v1/workloads/{name}/records appends
// rows to its tables, the delta indexes emit only the new candidate pairs,
// the workload CSV is rewritten with the new fingerprint, and every running
// session created from that workload file absorbs the delta via
// Session.Extend without restarting.
//
// Durability uses the sessions' journal (journal.go): every accepted append
// is one fsynced line in <name>.appends.jsonl before it is applied, and the
// build request itself is persisted as <name>.build.json. Recovery rebuilds
// the tables from the build request, replays the append journal epoch by
// epoch through the same IncrementalWorkload code path (one journal line =
// one Sync epoch, so the fingerprint chain of a recovered workload is
// bit-identical to the live one's), regenerates the workload CSV if a crash
// left it stale, and then recovers sessions — a checkpoint taken at an
// earlier epoch is restored over that epoch's pair prefix and extended
// through the remaining epochs.

// ErrWorkloadNotFound reports an append against a workload this server did
// not build, or built with a blocking mode that cannot absorb appends
// (404).
var ErrWorkloadNotFound = errors.New("serve: no appendable workload")

// errWorkloadBroken reports a workload whose in-memory state diverged from
// its journal (an apply step failed after the append was journaled); only a
// restart — which replays the journal — can be trusted to reconcile them.
var errWorkloadBroken = errors.New("serve: workload state is broken, restart the server to recover from the journal")

const (
	buildSuffix  = ".build.json"
	appendSuffix = ".appends.jsonl"
	// appendQueueDepth bounds appends waiting on one workload's apply lock
	// before new ones are shed with ErrOverloaded (429): ingest is
	// serialized per workload, so an unbounded queue would just grow
	// latency without adding throughput.
	appendQueueDepth = 16
)

func (m *Manager) buildPath(name string) string {
	return filepath.Join(m.stateDir, name+buildSuffix)
}

func (m *Manager) appendJournalPath(name string) string {
	return filepath.Join(m.stateDir, name+appendSuffix)
}

// workloadState is one live, append-capable workload: the tables, the
// incremental generator maintaining the candidate indexes, and the append
// journal. Appends serialize on mu; sem bounds the queue behind it.
type workloadState struct {
	name string
	file string // workload CSV name, as sessions reference it (Spec.WorkloadFile)
	path string // absolute CSV path
	req  WorkloadRequest

	sem chan struct{}

	mu     sync.Mutex
	ta, tb *records.Table
	iw     *humo.IncrementalWorkload
	jr     *journal
	broken bool
	// rows caches the formatted CSV data rows of the first rowsN
	// candidates, so a rewrite formats only the pairs an append added.
	rows  []byte
	rowsN int
}

// writeCSV atomically rewrites the workload CSV at the chain head. The
// pairs are the candidates in id order and every epoch's candidates are a
// prefix of the next's, so only the rows past the cache are formatted; the
// bytes are those of dataio.WritePairsFingerprinted over the whole list.
func (ws *workloadState) writeCSV() error {
	cands := ws.iw.Generated().Candidates
	for i := ws.rowsN; i < len(cands); i++ {
		ws.rows = dataio.AppendPairRows(ws.rows, []humo.Pair{{ID: i, Sim: cands[i].Sim}})
	}
	ws.rowsN = len(cands)
	return dataio.WriteFileAtomic(ws.path, func(w io.Writer) error {
		return dataio.WritePairRows(w, ws.rows, ws.iw.Fingerprint())
	})
}

// appendLine is one journaled record append: the raw rows, exactly as
// accepted. One line is one IncrementalWorkload.Sync epoch — recovery
// replays lines one at a time so the fingerprint chain comes out
// bit-identical to the live run's.
type appendLine struct {
	V     int        `json:"v"`
	Seq   int        `json:"seq"`
	RowsA [][]string `json:"rows_a,omitempty"`
	RowsB [][]string `json:"rows_b,omitempty"`
}

func (l appendLine) header() (int, int) { return l.V, l.Seq }

// AppendRequest is the body of POST /v1/workloads/{name}/records: rows to
// append to either or both tables, in the schema of the build request.
type AppendRequest struct {
	RowsA [][]string `json:"rows_a,omitempty"`
	RowsB [][]string `json:"rows_b,omitempty"`
}

// AppendInfo is the response of a successful append: what landed, what it
// generated, and who absorbed it.
type AppendInfo struct {
	Name     string `json:"name"`
	Seq      int    `json:"seq"`
	RecordsA int    `json:"records_a"`
	RecordsB int    `json:"records_b"`
	// Epoch is the workload's new epoch (one per accepted append).
	Epoch int `json:"epoch"`
	// NewPairs is how many candidate pairs the delta indexes produced for
	// the appended records; TotalPairs the cumulative count.
	NewPairs    int    `json:"new_pairs"`
	TotalPairs  int    `json:"total_pairs"`
	Fingerprint string `json:"fingerprint"`
	// SessionsExtended counts live sessions on this workload file that
	// absorbed the delta without restarting.
	SessionsExtended int `json:"sessions_extended"`
}

// DecodeAppendRequest parses a POST /v1/workloads/{name}/records body. Row
// arity is checked later against the workload's schema — here only the
// shape.
func DecodeAppendRequest(data []byte) (AppendRequest, error) {
	var req AppendRequest
	if err := unmarshalJSONStrict(data, &req); err != nil {
		return AppendRequest{}, fmt.Errorf("%w: decoding request: %v", ErrBadSpec, err)
	}
	if len(req.RowsA) == 0 && len(req.RowsB) == 0 {
		return AppendRequest{}, fmt.Errorf("%w: append carries no rows", ErrBadSpec)
	}
	return req, nil
}

// incrementalCapable reports whether the request's blocking mode supports
// delta index maintenance (and hence live appends).
func (req WorkloadRequest) incrementalCapable() bool {
	switch req.Block {
	case "", string(humo.BlockToken), string(humo.BlockLSH):
		return true
	}
	return false
}

// genConfig translates the build request into the generation config, the
// exact translation BuildWorkload has always used — recovery leans on the
// two never diverging.
func (req WorkloadRequest) genConfig(workers int) (humo.GenConfig, error) {
	specs := make([]humo.AttributeSpec, len(req.Specs))
	for i, sp := range req.Specs {
		kind, err := humo.ParseSimilarityKind(sp.Kind)
		if err != nil {
			return humo.GenConfig{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		specs[i] = humo.AttributeSpec{Attribute: sp.Attribute, Kind: kind, Weight: sp.Weight}
	}
	return humo.GenConfig{
		Specs:          specs,
		Block:          humo.BlockingMode(req.Block),
		BlockAttribute: req.BlockAttribute,
		MinShared:      req.MinShared,
		Window:         req.Window,
		Rows:           req.Rows,
		Bands:          req.Bands,
		Threshold:      req.Threshold,
		Workers:        workers,
	}, nil
}

// registerWorkload publishes a live workload state.
func (m *Manager) registerWorkload(ws *workloadState) {
	m.lwmu.Lock()
	m.live[ws.name] = ws
	m.lwmu.Unlock()
}

// workloadByFile returns the live workload whose CSV a session spec
// references, or nil.
func (m *Manager) workloadByFile(file string) *workloadState {
	if file == "" {
		return nil
	}
	m.lwmu.Lock()
	defer m.lwmu.Unlock()
	for _, ws := range m.live {
		if ws.file == file {
			return ws
		}
	}
	return nil
}

// AppendRecords applies one record append to a live workload: journal
// (fsynced) first, then tables, delta indexes, the CSV rewrite, and the
// extension of every running session on the workload file. Appends to one
// workload serialize; at most appendQueueDepth wait behind the one being
// applied before new ones are shed with ErrOverloaded.
func (m *Manager) AppendRecords(name string, req AppendRequest) (AppendInfo, error) {
	if m.draining.Load() {
		return AppendInfo{}, ErrDraining
	}
	m.lwmu.Lock()
	ws := m.live[name]
	m.lwmu.Unlock()
	if ws == nil {
		return AppendInfo{}, fmt.Errorf("%w: %s (not built by this server, or built with a non-incremental blocking mode)", ErrWorkloadNotFound, name)
	}
	select {
	case ws.sem <- struct{}{}:
		defer func() { <-ws.sem }()
	default:
		m.metrics.Counter("ingest_appends_shed_total").Inc()
		return AppendInfo{}, ErrOverloaded
	}
	start := time.Now()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.broken {
		return AppendInfo{}, errWorkloadBroken
	}
	recsA, err := rowsToRecords(req.RowsA, ws.ta)
	if err != nil {
		return AppendInfo{}, fmt.Errorf("%w: table a: %v", ErrBadSpec, err)
	}
	recsB, err := rowsToRecords(req.RowsB, ws.tb)
	if err != nil {
		return AppendInfo{}, fmt.Errorf("%w: table b: %v", ErrBadSpec, err)
	}
	// Journal before applying: once the line is fsynced the append is
	// durable — every later step is replayed from the journal on restart,
	// so a crash anywhere past this point cannot lose an acknowledged
	// append.
	if err := ws.jr.appendRows(req.RowsA, req.RowsB); err != nil {
		return AppendInfo{}, err
	}
	info, extended, err := ws.applyLocked(m, recsA, recsB)
	if err != nil {
		// The journal holds the append but memory could not absorb it; no
		// further append may build on this state.
		ws.broken = true
		return AppendInfo{}, err
	}
	m.metrics.Counter("ingest_appends_total").Inc()
	m.metrics.Counter("ingest_records_total").Add(int64(len(recsA) + len(recsB)))
	m.metrics.Counter("ingest_pairs_total").Add(int64(info.NewPairs))
	m.metrics.Counter("ingest_sessions_extended_total").Add(int64(extended))
	m.metrics.Histogram("ingest_apply_latency").Observe(time.Since(start))
	return info, nil
}

// applyLocked runs the post-journal apply steps under ws.mu: table appends,
// the delta sync, the CSV rewrite, and session extension.
func (ws *workloadState) applyLocked(m *Manager, recsA, recsB []records.Record) (AppendInfo, int, error) {
	if len(recsA) > 0 {
		if _, err := ws.ta.Append(recsA...); err != nil {
			return AppendInfo{}, 0, err
		}
	}
	if len(recsB) > 0 {
		if _, err := ws.tb.Append(recsB...); err != nil {
			return AppendInfo{}, 0, err
		}
	}
	// Background context: the apply is pure computation and must not be
	// torn mid-epoch by a client disconnect — the journal line is already
	// durable.
	start := time.Now()
	delta, err := ws.iw.Sync(context.Background())
	if err != nil {
		return AppendInfo{}, 0, err
	}
	m.metrics.Histogram("ingest_sync_latency").Observe(time.Since(start))
	// The CSV rewrite is a convenience copy for session creation: the
	// journal is the durable record, and recovery regenerates a stale CSV,
	// so a failed rewrite degrades freshness, not durability.
	start = time.Now()
	if err := ws.writeCSV(); err != nil {
		m.metrics.Counter("ingest_csv_rewrite_failures_total").Inc()
	}
	m.metrics.Histogram("ingest_csv_latency").Observe(time.Since(start))
	cands := ws.iw.Generated().Candidates
	extended := 0
	for _, s := range m.List() {
		if s.Spec().WorkloadFile != ws.file {
			continue
		}
		start = time.Now()
		ok, err := s.catchUp(cands)
		if err != nil {
			m.metrics.Counter("ingest_extend_failures_total").Inc()
			continue
		}
		if ok {
			extended++
			m.metrics.Histogram("ingest_extend_latency").Observe(time.Since(start))
		}
	}
	return AppendInfo{
		Name:             ws.name,
		Seq:              ws.jr.seq,
		RecordsA:         len(recsA),
		RecordsB:         len(recsB),
		Epoch:            ws.iw.Epoch(),
		NewPairs:         len(delta),
		TotalPairs:       len(cands),
		Fingerprint:      ws.iw.Fingerprint(),
		SessionsExtended: extended,
	}, extended, nil
}

// rowsToRecords validates rows against the table's schema and assigns the
// positional ids that continue the table's numbering.
func rowsToRecords(rows [][]string, t *records.Table) ([]records.Record, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	base := t.Len()
	out := make([]records.Record, len(rows))
	for i, row := range rows {
		if len(row) != len(t.Attributes) {
			return nil, fmt.Errorf("row %d has %d values, want %d (%s)", i, len(row), len(t.Attributes), strings.Join(t.Attributes, ","))
		}
		out[i] = records.Record{
			ID:       base + i,
			EntityID: base + i,
			Values:   append([]string(nil), row...),
		}
	}
	return out, nil
}

// catchUp brings a session on this workload file to the current epoch:
// cands is the cumulative candidate list (pair id = candidate index), and
// because every session workload built from the file is a prefix of it
// (the pairs-prefix property of the incremental generator), the missing
// pairs are exactly those of cands[len:]. It extends the session, updates
// the managed snapshot, and rewrites the base checkpoint so the persisted
// chain matches the extension. A session that already terminated is left
// at its epoch (false, nil) — its resolution covered the workload it was
// asked about.
func (s *ManagedSession) catchUp(cands []humo.Candidate) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.sess.Workload().Len()
	if n >= len(cands) {
		return false, nil
	}
	missing := make([]humo.Pair, len(cands)-n)
	for i := range missing {
		missing[i] = humo.Pair{ID: n + i, Sim: cands[n+i].Sim}
	}
	if err := s.sess.Extend(missing); err != nil {
		if errors.Is(err, humo.ErrSessionDone) {
			return false, nil
		}
		return false, err
	}
	// Persist the new epoch: the base checkpoint must fingerprint the
	// extended workload (and carry the chain) before the next answer is
	// journaled against it. Failure leaves the labels-in-memory flag that
	// forces a compaction before the next acknowledged answer.
	if err := s.compactLocked(); err != nil {
		s.unjournaled = true
	}
	s.bumpLocked()
	return true, nil
}

// recoverWorkloads rebuilds every append-capable workload journaled in the
// state directory: tables from the build request, then the append journal
// replayed line by line through the incremental generator — each line one
// Sync epoch, reproducing the live fingerprint chain bit-identically — and
// finally the workload CSV regenerated if a crash left it stale. It runs
// before session recovery so sessions can be restored against any epoch of
// the chain.
func (m *Manager) recoverWorkloads() error {
	paths, err := filepath.Glob(filepath.Join(m.stateDir, "*"+buildSuffix))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), buildSuffix)
		if err := m.recoverWorkload(name, path); err != nil {
			return fmt.Errorf("recovering workload %s: %w", name, err)
		}
		m.metrics.Counter("workloads_recovered_total").Inc()
	}
	return nil
}

func (m *Manager) recoverWorkload(name, buildPath string) error {
	data, err := os.ReadFile(buildPath)
	if err != nil {
		return err
	}
	var req WorkloadRequest
	if err := unmarshalJSONStrict(data, &req); err != nil {
		return err
	}
	ws, err := m.newWorkloadState(context.Background(), name, req)
	if err != nil {
		return err
	}
	lines, err := replay[appendLine](ws.jr)
	if err != nil {
		return err
	}
	for _, al := range lines {
		recsA, err := rowsToRecords(al.RowsA, ws.ta)
		if err != nil {
			return fmt.Errorf("%w: append %d: %v", errJournalCorrupt, al.Seq, err)
		}
		recsB, err := rowsToRecords(al.RowsB, ws.tb)
		if err != nil {
			return fmt.Errorf("%w: append %d: %v", errJournalCorrupt, al.Seq, err)
		}
		if len(recsA) > 0 {
			if _, err := ws.ta.Append(recsA...); err != nil {
				return fmt.Errorf("%w: append %d: %v", errJournalCorrupt, al.Seq, err)
			}
		}
		if len(recsB) > 0 {
			if _, err := ws.tb.Append(recsB...); err != nil {
				return fmt.Errorf("%w: append %d: %v", errJournalCorrupt, al.Seq, err)
			}
		}
		if _, err := ws.iw.Sync(context.Background()); err != nil {
			return fmt.Errorf("append %d: %w", al.Seq, err)
		}
	}
	// Regenerate the CSV when it is missing or does not fingerprint the
	// recovered chain head (a crash between the journal append and the
	// rewrite, or a failed rewrite).
	stale := true
	if f, err := os.Open(ws.path); err == nil {
		_, fp, rerr := dataio.ReadPairsFingerprint(f)
		f.Close()
		stale = rerr != nil || fp != ws.iw.Fingerprint()
	}
	if stale {
		if err := ws.writeCSV(); err != nil {
			return err
		}
	}
	m.registerWorkload(ws)
	return nil
}

// newWorkloadState builds the tables and epoch-0 incremental generator of
// an append-capable workload (shared by the build and recovery paths).
func (m *Manager) newWorkloadState(ctx context.Context, name string, req WorkloadRequest) (*workloadState, error) {
	ta, err := req.TableA.table("a")
	if err != nil {
		return nil, err
	}
	tb, err := req.TableB.table("b")
	if err != nil {
		return nil, err
	}
	cfg, err := req.genConfig(clampWorkers(req.Workers))
	if err != nil {
		return nil, err
	}
	iw, err := humo.NewIncrementalWorkload(ctx, ta, tb, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	file := name + ".csv"
	return &workloadState{
		name: name,
		file: file,
		path: filepath.Join(m.dataDir, file),
		req:  req,
		sem:  make(chan struct{}, appendQueueDepth),
		ta:   ta,
		tb:   tb,
		iw:   iw,
		jr:   newJournal(m.appendJournalPath(name)),
	}, nil
}

// recoveryWorkload materializes the workload a session recovery should
// restore against. For specs on a live (append-capable) workload file the
// checkpoint's workload hash is located in the fingerprint chain and that
// epoch's pair prefix is returned, so a checkpoint taken before later
// appends restores cleanly; the returned workloadState is non-nil exactly
// in that case, and recoverSession catches the session up through the
// remaining epochs afterwards. Everything else falls back to the spec's own
// workload source.
func (m *Manager) recoveryWorkload(id string, spec Spec) (*humo.Workload, *workloadState, error) {
	ws := m.workloadByFile(spec.WorkloadFile)
	if ws == nil {
		w, err := spec.workload(m.dataDir)
		return w, nil, err
	}
	f, err := os.Open(m.checkpointPath(id))
	if os.IsNotExist(err) {
		// No base checkpoint: the session restarts fresh over the current
		// CSV (recoverWorkloads just regenerated it).
		w, werr := spec.workload(m.dataDir)
		return w, ws, werr
	}
	if err != nil {
		return nil, nil, err
	}
	info, err := humo.ReadCheckpointInfo(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	chain := ws.iw.Chain()
	bounds := ws.iw.Boundaries()
	core := ws.iw.Generated().CorePairs()
	for i, fp := range chain {
		if fp != info.WorkloadHash {
			continue
		}
		w, err := humo.NewWorkload(core[:bounds[i]], spec.SubsetSize)
		if err != nil {
			return nil, nil, err
		}
		return w, ws, nil
	}
	return nil, nil, fmt.Errorf("%w: checkpoint workload %s is not an epoch of workload %s's append chain", humo.ErrCheckpointMismatch, info.WorkloadHash, ws.name)
}

// settleRecovered brings a just-restored session on a live workload file to
// the chain head. The one Next settles the replay: a session that
// terminates from its label log alone stays at its checkpointed epoch (the
// resolution it acknowledged is complete; the live path would have gotten
// ErrSessionDone too), while a session that parks asking for labels is
// extended through the epochs appended after its checkpoint.
func (s *ManagedSession) settleRecovered(ws *workloadState) error {
	cands := ws.iw.Generated().Candidates
	if s.sess.Workload().Len() >= len(cands) {
		return nil
	}
	b, err := s.sess.Next(context.Background())
	if err != nil || b.Empty() {
		return nil
	}
	_, err = s.catchUp(cands)
	return err
}
