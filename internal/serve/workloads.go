package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"humo"
	"humo/internal/dataio"
	"humo/internal/records"
)

// ErrWorkloadExists reports a workload build with a name already on disk
// (409).
var ErrWorkloadExists = errors.New("serve: workload file already exists")

// TableSpec is one inline record table of a workload-build request.
type TableSpec struct {
	// Attributes is the schema; every row must have one value per
	// attribute.
	Attributes []string   `json:"attributes"`
	Rows       [][]string `json:"rows"`
}

// table materializes the spec as a record table (ids are row positions;
// entity ids are unknown for uploaded data and never read server-side).
func (ts TableSpec) table(name string) (*records.Table, error) {
	t := &records.Table{Name: name, Attributes: append([]string(nil), ts.Attributes...)}
	for i, row := range ts.Rows {
		t.Records = append(t.Records, records.Record{
			ID:       i,
			EntityID: i,
			Values:   append([]string(nil), row...),
		})
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: table %s: %v", ErrBadSpec, name, err)
	}
	return t, nil
}

// WorkloadAttr is one attribute spec of a workload-build request.
type WorkloadAttr struct {
	Attribute string  `json:"attribute"`
	Kind      string  `json:"kind"`
	Weight    float64 `json:"weight,omitempty"`
}

// WorkloadRequest is the body of POST /v1/workloads: two inline tables plus
// the candidate-generation configuration. The built workload is persisted
// under the manager's data directory as <name>.csv with its fingerprint
// embedded, so sessions can reference it via Spec.WorkloadFile =
// "<name>.csv".
type WorkloadRequest struct {
	Name           string         `json:"name"`
	TableA         TableSpec      `json:"table_a"`
	TableB         TableSpec      `json:"table_b"`
	Specs          []WorkloadAttr `json:"specs"`
	Block          string         `json:"block,omitempty"`
	BlockAttribute string         `json:"block_attribute,omitempty"`
	MinShared      int            `json:"min_shared,omitempty"`
	Window         int            `json:"window,omitempty"`
	Rows           int            `json:"rows,omitempty"`
	Bands          int            `json:"bands,omitempty"`
	Threshold      float64        `json:"threshold,omitempty"`
	Workers        int            `json:"workers,omitempty"`
}

// WorkloadInfo is the response of a successful workload build.
type WorkloadInfo struct {
	Name string `json:"name"`
	// File is the workload_file value sessions pass to use this workload.
	File        string `json:"file"`
	Pairs       int    `json:"pairs"`
	Fingerprint string `json:"fingerprint"`
}

// DecodeWorkloadRequest parses and statically validates a POST
// /v1/workloads body.
func DecodeWorkloadRequest(data []byte) (WorkloadRequest, error) {
	var req WorkloadRequest
	if err := unmarshalJSONStrict(data, &req); err != nil {
		return WorkloadRequest{}, fmt.Errorf("%w: decoding request: %v", ErrBadSpec, err)
	}
	if !idPattern.MatchString(req.Name) {
		return WorkloadRequest{}, fmt.Errorf("%w: workload name %q (want 1-64 chars of [a-zA-Z0-9._-], starting alphanumeric)", ErrBadSpec, req.Name)
	}
	if len(req.Specs) == 0 {
		return WorkloadRequest{}, fmt.Errorf("%w: specs are required", ErrBadSpec)
	}
	for _, sp := range req.Specs {
		if _, err := humo.ParseSimilarityKind(sp.Kind); err != nil {
			return WorkloadRequest{}, fmt.Errorf("%w: attribute %q: %v", ErrBadSpec, sp.Attribute, err)
		}
		if sp.Weight < 0 {
			return WorkloadRequest{}, fmt.Errorf("%w: attribute %q has negative weight", ErrBadSpec, sp.Attribute)
		}
	}
	if req.Block != "" {
		if _, err := humo.ParseBlockingMode(req.Block); err != nil {
			return WorkloadRequest{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	if req.Threshold < 0 || req.Threshold >= 1 {
		return WorkloadRequest{}, fmt.Errorf("%w: threshold %v must be in [0,1)", ErrBadSpec, req.Threshold)
	}
	if req.MinShared < 0 || req.Window < 0 {
		return WorkloadRequest{}, fmt.Errorf("%w: min_shared and window must be >= 0", ErrBadSpec)
	}
	if req.Rows < 0 || req.Bands < 0 {
		return WorkloadRequest{}, fmt.Errorf("%w: rows and bands must be >= 0", ErrBadSpec)
	}
	// The blocking engine caps rows*bands too, but rejecting an absurd
	// signature-memory demand here keeps it out of BuildWorkload entirely.
	if req.Rows*req.Bands > 4096 {
		return WorkloadRequest{}, fmt.Errorf("%w: rows*bands=%d exceeds the 4096-minhash cap", ErrBadSpec, req.Rows*req.Bands)
	}
	return req, nil
}

// reserveWorkload atomically claims a workload name: it fails if a build
// of the same name is in flight or its file already exists. Workload
// reservations are their own lock domain (wmu), so a build never contends
// with session traffic.
func (m *Manager) reserveWorkload(name, path string) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if _, busy := m.workloads[name]; busy {
		return fmt.Errorf("%w: %s (build in progress)", ErrWorkloadExists, name)
	}
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("%w: %s", ErrWorkloadExists, filepath.Base(path))
	} else if !os.IsNotExist(err) {
		return err
	}
	m.workloads[name] = struct{}{}
	return nil
}

func (m *Manager) releaseWorkload(name string) {
	m.wmu.Lock()
	delete(m.workloads, name)
	m.wmu.Unlock()
}

// clampWorkers clamps a client-supplied worker count to the server's
// cores: the output is identical at any worker count (the determinism
// contract), so the clamp only bounds resource use — without it a request
// could demand one goroutine per uploaded record.
func clampWorkers(workers int) int {
	if workers <= 0 || workers > runtime.GOMAXPROCS(0) {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// BuildWorkload runs candidate generation server-side and persists the
// resulting workload under the data directory. The workload CSV embeds its
// own fingerprint (one atomic write — a file that exists is always complete
// and attributable). Workloads built with an incremental-capable blocking
// mode (token or lsh) additionally persist the build request as
// <name>.build.json and stay live: POST /v1/workloads/{name}/records
// appends records to them — see ingest.go.
func (m *Manager) BuildWorkload(ctx context.Context, req WorkloadRequest) (WorkloadInfo, error) {
	file := req.Name + ".csv"
	path := filepath.Join(m.dataDir, file)
	// Reserve the name before the (possibly long) generation: the
	// existence check and the in-flight set are consulted under the
	// manager mutex, so two concurrent builds of the same name cannot both
	// pass the 409 guard, and the mutex is not held while generating.
	if err := m.reserveWorkload(req.Name, path); err != nil {
		return WorkloadInfo{}, err
	}
	defer m.releaseWorkload(req.Name)
	if req.incrementalCapable() {
		return m.buildLiveWorkload(ctx, req, file)
	}
	ta, err := req.TableA.table("a")
	if err != nil {
		return WorkloadInfo{}, err
	}
	tb, err := req.TableB.table("b")
	if err != nil {
		return WorkloadInfo{}, err
	}
	cfg, err := req.genConfig(clampWorkers(req.Workers))
	if err != nil {
		return WorkloadInfo{}, err
	}
	g, err := humo.GenerateWorkload(ctx, ta, tb, cfg)
	if err != nil {
		// Generation is pure computation over the request: every failure
		// (bad specs, unknown attributes, empty result, client-canceled
		// context) is input-derived, a 400.
		return WorkloadInfo{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if err := dataio.WriteFileAtomic(path, func(w io.Writer) error {
		return dataio.WritePairsFingerprinted(w, g.CorePairs(), g.Fingerprint)
	}); err != nil {
		return WorkloadInfo{}, err
	}
	return WorkloadInfo{
		Name:        req.Name,
		File:        file,
		Pairs:       len(g.Candidates),
		Fingerprint: g.Fingerprint,
	}, nil
}

// buildLiveWorkload builds an append-capable workload: generation runs
// through the incremental generator so later appends continue its epoch
// chain, the build request is journaled before the CSV (so a crash between
// the two is recovered by regenerating the CSV from the request), and the
// live state is registered for ingest.
func (m *Manager) buildLiveWorkload(ctx context.Context, req WorkloadRequest, file string) (WorkloadInfo, error) {
	ws, err := m.newWorkloadState(ctx, req.Name, req)
	if err != nil {
		return WorkloadInfo{}, err
	}
	buildPath := m.buildPath(req.Name)
	if err := dataio.WriteFileAtomic(buildPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(req)
	}); err != nil {
		return WorkloadInfo{}, err
	}
	if err := ws.writeCSV(); err != nil {
		// Without the CSV the build failed from the client's view; drop the
		// build journal so a restart does not resurrect a workload the
		// client was told does not exist.
		os.Remove(buildPath)
		return WorkloadInfo{}, err
	}
	m.registerWorkload(ws)
	return WorkloadInfo{
		Name:        req.Name,
		File:        file,
		Pairs:       len(ws.iw.Generated().Candidates),
		Fingerprint: ws.iw.Fingerprint(),
	}, nil
}
