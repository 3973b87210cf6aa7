package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"humo"
	"humo/internal/dataio"
)

// workloadServer boots a handler over a manager with a data directory, the
// setup POST /v1/workloads needs.
func workloadServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	dataDir := t.TempDir()
	m, err := Open(Config{StateDir: t.TempDir(), DataDir: dataDir, MaxSessions: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return srv, dataDir
}

func workloadRequest(name string) WorkloadRequest {
	return WorkloadRequest{
		Name: name,
		TableA: TableSpec{
			Attributes: []string{"name", "description"},
			Rows: [][]string{
				{"acme turbo widget", "the turbo widget by acme"},
				{"globex quiet gadget", "a gadget that is quiet"},
				{"initech red stapler", "classic red stapler"},
			},
		},
		TableB: TableSpec{
			Attributes: []string{"name", "description"},
			Rows: [][]string{
				{"acme turbo widget", "the turbo widget by acme"},
				{"initech crimson stapler", "classic red stapler"},
			},
		},
		Specs: []WorkloadAttr{
			{Attribute: "name", Kind: "jaccard"},
			{Attribute: "description", Kind: "cosine"},
		},
		Block:     "token",
		MinShared: 1,
		Threshold: 0.2,
	}
}

// TestWorkloadEndpoint builds a workload server-side and then resolves it
// through a session that references the persisted file by name, once on
// the live (token) build path and once on the static (sorted) one.
func TestWorkloadEndpoint(t *testing.T) {
	for _, block := range []string{"token", "sorted"} {
		t.Run(block, func(t *testing.T) {
			srv, dataDir := workloadServer(t)
			req := workloadRequest("orders")
			req.Block = block
			if block == "sorted" {
				req.Window = 2
			}

			var info WorkloadInfo
			if code := doJSON(t, "POST", srv.URL+"/v1/workloads", req, &info); code != http.StatusCreated {
				t.Fatalf("create workload: status %d", code)
			}
			if info.Name != "orders" || info.File != "orders.csv" || info.Pairs == 0 || info.Fingerprint == "" {
				t.Fatalf("workload info = %+v", info)
			}

			// The persisted artifacts are complete and self-consistent.
			f, err := os.Open(filepath.Join(dataDir, info.File))
			if err != nil {
				t.Fatal(err)
			}
			pairs, err := dataio.ReadPairs(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != info.Pairs {
				t.Fatalf("file holds %d pairs, response said %d", len(pairs), info.Pairs)
			}
			w, err := humo.NewWorkload(pairs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := humo.WorkloadFingerprint(w); got != info.Fingerprint {
				t.Fatalf("stored workload fingerprint %s, response said %s", got, info.Fingerprint)
			}
			// The fingerprint is embedded in the file itself (one atomic
			// artifact — there is no sidecar to fall out of sync with the
			// data).
			f, err = os.Open(filepath.Join(dataDir, info.File))
			if err != nil {
				t.Fatal(err)
			}
			_, embedded, err := dataio.ReadPairsFingerprint(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if embedded != info.Fingerprint {
				t.Fatalf("embedded fingerprint %q does not match response %s", embedded, info.Fingerprint)
			}
			entries, err := os.ReadDir(dataDir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			if got := strings.Join(names, ","); got != info.File {
				t.Fatalf("data directory holds %s, want exactly %s", got, info.File)
			}

			// Sessions can reference the built workload by file name.
			create := map[string]any{
				"id": "sess1", "method": "base",
				"alpha": 0.8, "beta": 0.8, "theta": 0.8,
				"workload_file": info.File,
			}
			var status Status
			if code := doJSON(t, "POST", srv.URL+"/v1/sessions", create, &status); code != http.StatusCreated {
				t.Fatalf("create session over built workload: status %d", code)
			}

			// Rebuilding under the same name is a conflict, and the
			// artifacts are untouched.
			if code := doJSON(t, "POST", srv.URL+"/v1/workloads", req, nil); code != http.StatusConflict {
				t.Fatalf("duplicate workload name: status %d, want 409", code)
			}
		})
	}
}

func TestWorkloadEndpointValidation(t *testing.T) {
	srv, _ := workloadServer(t)
	cases := map[string]func(*WorkloadRequest){
		"bad name":       func(r *WorkloadRequest) { r.Name = "../escape" },
		"empty name":     func(r *WorkloadRequest) { r.Name = "" },
		"no specs":       func(r *WorkloadRequest) { r.Specs = nil },
		"bad kind":       func(r *WorkloadRequest) { r.Specs[0].Kind = "nope" },
		"bad block":      func(r *WorkloadRequest) { r.Block = "nope" },
		"bad threshold":  func(r *WorkloadRequest) { r.Threshold = 1 },
		"negative knobs": func(r *WorkloadRequest) { r.MinShared = -1 },
		"ragged rows": func(r *WorkloadRequest) {
			r.TableA.Rows = append(r.TableA.Rows, []string{"only one value"})
		},
		"unknown block attribute": func(r *WorkloadRequest) { r.BlockAttribute = "nope" },
		"impossible threshold": func(r *WorkloadRequest) {
			r.Threshold = 0.999
			r.Specs = r.Specs[:1]
			r.TableA.Rows = r.TableA.Rows[1:2]
			r.TableB.Rows = r.TableB.Rows[1:2]
		},
	}
	for name, mutate := range cases {
		req := workloadRequest("w-" + strings.ReplaceAll(name, " ", "-"))
		mutate(&req)
		if code := doJSON(t, "POST", srv.URL+"/v1/workloads", req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	// Unknown fields are refused (strict decoding).
	res, err := http.Post(srv.URL+"/v1/workloads", "application/json",
		strings.NewReader(`{"name":"x","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", res.StatusCode)
	}
}

// TestWorkloadConcurrentBuilds: the name reservation guarantees exactly one
// of many concurrent builds of the same name wins; the rest get
// ErrWorkloadExists (the HTTP 409).
func TestWorkloadConcurrentBuilds(t *testing.T) {
	m, err := Open(Config{StateDir: t.TempDir(), DataDir: t.TempDir(), MaxSessions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	req, decodeErr := DecodeWorkloadRequest(mustJSON(t, workloadRequest("contested")))
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	const racers = 8
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		go func() {
			_, err := m.BuildWorkload(context.Background(), req)
			errs <- err
		}()
	}
	wins, conflicts := 0, 0
	for i := 0; i < racers; i++ {
		switch err := <-errs; {
		case err == nil:
			wins++
		case errors.Is(err, ErrWorkloadExists):
			conflicts++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if wins != 1 || conflicts != racers-1 {
		t.Fatalf("%d wins and %d conflicts, want exactly 1 win", wins, conflicts)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
