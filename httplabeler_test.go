package humo_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"humo"
	"humo/internal/serve"
)

// TestHTTPLabelerTwinSession wires the full remote-labeling story: a humod
// manager hosts the authoritative session, a workforce goroutine answers it
// over the manager API, and a local twin session labels through an
// HTTPLabeler — completing with the same solution and cost.
func TestHTTPLabelerTwinSession(t *testing.T) {
	labeled, err := humo.Logistic(humo.LogisticConfig{N: 1200, Tau: 14, Sigma: 0.1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	pairs, truth := humo.Split(labeled)
	w, err := humo.NewWorkload(pairs, 100)
	if err != nil {
		t.Fatal(err)
	}
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}

	m, err := serve.Open(serve.Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(serve.NewHandler(m))
	defer srv.Close()

	sp := make([]serve.SpecPair, len(pairs))
	for i, p := range pairs {
		sp[i] = serve.SpecPair{ID: p.ID, Sim: p.Sim}
	}
	spec := serve.Spec{
		Method: "hybrid", Seed: 31,
		Alpha: 0.9, Beta: 0.9, Theta: 0.9,
		SubsetSize: 100,
		Pairs:      sp,
	}
	remote, err := m.Create("twin", spec)
	if err != nil {
		t.Fatal(err)
	}

	// The workforce: drives the remote session from truth, asynchronously.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	workforce := make(chan error, 1)
	go func() {
		for {
			b, err := remote.Next(ctx)
			if err != nil {
				workforce <- err
				return
			}
			if b.Empty() {
				workforce <- nil
				return
			}
			ans := make(map[int]bool, len(b.IDs))
			for _, id := range b.IDs {
				ans[id] = truth[id]
			}
			if err := remote.Answer(ans); err != nil {
				workforce <- err
				return
			}
		}
	}()

	// The local twin: same workload, config and seed; labels arrive over
	// HTTP from the remote session's log. The Base.StartSubset mirror
	// matches serve's session mapping.
	local, err := humo.NewSession(w, req, humo.SessionConfig{
		Method: humo.MethodHybrid, Seed: 31, Base: humo.BaseConfig{StartSubset: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := local.Run(ctx, &humo.HTTPLabeler{
		BaseURL: srv.URL, SessionID: "twin", Wait: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("Run through HTTPLabeler: %v", err)
	}
	if err := <-workforce; err != nil {
		t.Fatalf("workforce: %v", err)
	}
	if got := remote.Session().Solution(); got != sol {
		t.Errorf("local solution %+v diverged from remote %+v", sol, got)
	}
	if got, want := local.Cost(), remote.Session().Cost(); got != want {
		t.Errorf("local cost %d, remote %d", got, want)
	}
}

// TestHTTPLabelerChunking: a batch larger than one request's id capacity
// is fetched across several chunked requests and reassembled completely.
func TestHTTPLabelerChunking(t *testing.T) {
	labeled, err := humo.Logistic(humo.LogisticConfig{N: 600, Tau: 14, Sigma: 0.1, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	pairs, _ := humo.Split(labeled)
	sp := make([]serve.SpecPair, len(pairs))
	for i, p := range pairs {
		sp[i] = serve.SpecPair{ID: p.ID, Sim: p.Sim}
	}
	m, err := serve.Open(serve.Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(serve.NewHandler(m))
	defer srv.Close()
	remote, err := m.Create("big", serve.Spec{
		Method: "hybrid", Seed: 33, Alpha: 0.9, Beta: 0.9, Theta: 0.9,
		SubsetSize: 100, Pairs: sp,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Feed 5000 answers into the log (the session records ids beyond what
	// the search asks), then request them all: far more than one chunk.
	const n = 5000
	ans := make(map[int]bool, n)
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		ids[i] = 10_000 + i
		ans[ids[i]] = i%3 == 0
	}
	if err := remote.Answer(ans); err != nil {
		t.Fatal(err)
	}
	l := &humo.HTTPLabeler{BaseURL: srv.URL, SessionID: "big", Wait: 5 * time.Second}
	got, err := l.LabelBatch(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("reassembled %d labels, want %d", len(got), n)
	}
	for _, id := range ids {
		if got[id] != ans[id] {
			t.Fatalf("label %d = %v, want %v", id, got[id], ans[id])
		}
	}
}

// TestHTTPLabelerRemoteGone: a deleted (canceled) remote session fails
// LabelBatch with a clear error instead of hanging the local session.
func TestHTTPLabelerRemoteGone(t *testing.T) {
	labeled, err := humo.Logistic(humo.LogisticConfig{N: 600, Tau: 14, Sigma: 0.1, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	pairs, _ := humo.Split(labeled)
	sp := make([]serve.SpecPair, len(pairs))
	for i, p := range pairs {
		sp[i] = serve.SpecPair{ID: p.ID, Sim: p.Sim}
	}
	m, err := serve.Open(serve.Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(serve.NewHandler(m))
	defer srv.Close()
	remote, err := m.Create("doomed", serve.Spec{
		Method: "hybrid", Seed: 32, Alpha: 0.9, Beta: 0.9, Theta: 0.9,
		SubsetSize: 100, Pairs: sp,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote.Session().Cancel()

	l := &humo.HTTPLabeler{BaseURL: srv.URL, SessionID: "doomed", Wait: 2 * time.Second}
	if _, err := l.LabelBatch(context.Background(), []int{1, 2}); err == nil || !strings.Contains(err.Error(), "terminated") {
		t.Fatalf("LabelBatch against a canceled remote: %v, want a termination error", err)
	}

	// An unknown session id is a hard 404, not a hang.
	l404 := &humo.HTTPLabeler{BaseURL: srv.URL, SessionID: "never-was", Wait: time.Second}
	if _, err := l404.LabelBatch(context.Background(), []int{1}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("LabelBatch against an unknown session: %v, want a 404 error", err)
	}
}

// shedServer answers the labels endpoint with 429 + Retry-After for the
// first shed polls, then labels every requested id true.
func shedServer(t *testing.T, shed int32, retryAfter string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	polls := new(atomic.Int32)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) <= shed {
			w.Header().Set("Retry-After", retryAfter)
			http.Error(w, `{"error":"overloaded","code":429}`, http.StatusTooManyRequests)
			return
		}
		var labels []string
		for _, id := range strings.Split(r.URL.Query().Get("ids"), ",") {
			labels = append(labels, fmt.Sprintf("%q:true", id))
		}
		fmt.Fprintf(w, `{"labels":{%s},"missing":[],"done":false}`, strings.Join(labels, ","))
	}))
	t.Cleanup(srv.Close)
	return srv, polls
}

// TestHTTPLabelerRetriesShedPolls: a poll the server sheds for backpressure
// (429 + Retry-After) is retried, not treated as a failed batch.
func TestHTTPLabelerRetriesShedPolls(t *testing.T) {
	srv, polls := shedServer(t, 3, "0")
	l := &humo.HTTPLabeler{BaseURL: srv.URL, SessionID: "busy", Wait: time.Second}
	got, err := l.LabelBatch(context.Background(), []int{4, 9})
	if err != nil {
		t.Fatalf("LabelBatch through shed polls: %v", err)
	}
	if !got[4] || !got[9] || len(got) != 2 {
		t.Fatalf("labels = %v, want 4 and 9 true", got)
	}
	if n := polls.Load(); n != 4 {
		t.Fatalf("%d polls, want 3 shed + 1 answered", n)
	}
}

// TestHTTPLabelerShedWaitHonorsCtx: a ctx that ends while LabelBatch waits
// out a Retry-After returns the ctx error without another poll.
func TestHTTPLabelerShedWaitHonorsCtx(t *testing.T) {
	srv, polls := shedServer(t, 1, "5")
	l := &humo.HTTPLabeler{BaseURL: srv.URL, SessionID: "busy", Wait: time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := l.LabelBatch(ctx, []int{1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("LabelBatch = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("LabelBatch returned after %v: the Retry-After wait ignored ctx", elapsed)
	}
	if n := polls.Load(); n != 1 {
		t.Fatalf("%d polls, want 1", n)
	}
}
