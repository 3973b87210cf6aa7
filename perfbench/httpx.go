package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"humo/internal/serve"
)

// server is humod's handler on a loopback listener.
type server struct {
	base string
	srv  *http.Server
	done chan error
}

// handlerHeader carries the handler time of a traced request back to the
// client.
const handlerHeader = "X-Perfbench-Handler-Ns"

// timedHandler wraps the public handler in traced runs: it buffers the
// response so the handler's full time is known before the status line
// leaves, and reports that time in a header.
type timedHandler struct{ h http.Handler }

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	buf := httptest.NewRecorder()
	t0 := time.Now()
	t.h.ServeHTTP(buf, r)
	d := time.Since(t0)
	for k, v := range buf.Header() {
		w.Header()[k] = v
	}
	w.Header().Set(handlerHeader, strconv.FormatInt(d.Nanoseconds(), 10))
	w.WriteHeader(buf.Code)
	w.Write(buf.Body.Bytes()) //nolint:errcheck // the client sees a short body
}

// startServer serves m on 127.0.0.1 and returns once the listener is bound.
func startServer(m *serve.Manager, traced bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := serve.NewObservedHandler(m, serve.HandlerConfig{})
	if traced {
		h = timedHandler{h}
	}
	s := &server{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// httpStats are the client-side measurements of the HTTP workloads: round
// trips per endpoint and, in traced runs, handler and transport times.
type httpStats struct {
	rtt, handler, transport map[string]*samples
	mu                      sync.Mutex
	requests, retries       int
	failed                  int
	problems                []string
}

func newHTTPStats() *httpStats {
	st := &httpStats{rtt: map[string]*samples{}, handler: map[string]*samples{}, transport: map[string]*samples{}}
	for _, op := range append([]string{"build", "replay"}, httpOps...) {
		st.rtt[op], st.handler[op], st.transport[op] = &samples{}, &samples{}, &samples{}
	}
	return st
}

func (st *httpStats) fail(format string, args ...any) {
	st.mu.Lock()
	st.failed++
	st.problems = append(st.problems, fmt.Sprintf(format, args...))
	st.mu.Unlock()
}

// client is one closed-loop HTTP caller.
type client struct {
	e    *env
	base string
	hc   *http.Client
	st   *httpStats
}

func newClient(e *env, base string, st *httpStats) *client {
	return &client{e: e, base: base, st: st, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request, retrying 429s, and checks the status is one of
// want. It records the round trip under op and, when the request is
// traced (parent >= 0), its http and serve spans. out, if non-nil,
// receives the decoded JSON body.
func (c *client) call(op, method, path string, body any, out any, parent int, opID int64, want ...int) (int, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	for {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(payload))
		if err != nil {
			return 0, err
		}
		rec := c.e.rec
		if parent < 0 {
			rec = nil
		}
		sp := rec.start("http."+op, parent, opID)
		t0 := time.Now()
		resp, err := c.hc.Do(req)
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		rtt := time.Since(t0)
		rec.stop(sp)
		c.st.mu.Lock()
		c.st.requests++
		c.st.mu.Unlock()
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			c.st.mu.Lock()
			c.st.retries++
			c.st.mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			continue
		}
		c.st.rtt[op].add(rtt)
		if rec != nil {
			if ns, perr := strconv.ParseInt(resp.Header.Get(handlerHeader), 10, 64); perr == nil {
				h := time.Duration(ns)
				rec.addChild("serve."+op+".handler", sp, h)
				c.st.handler[op].add(h)
				c.st.transport[op].add(rtt - h)
			}
		}
		ok := false
		for _, w := range want {
			ok = ok || resp.StatusCode == w
		}
		if !ok {
			return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
		}
		if out != nil && len(data) > 0 {
			if err := json.Unmarshal(data, out); err != nil {
				return resp.StatusCode, fmt.Errorf("%s %s: decoding: %w", method, path, err)
			}
		}
		return resp.StatusCode, nil
	}
}

// nextBody mirrors the JSON body of GET /v1/sessions/{id}/next.
type nextBody struct {
	IDs   []int  `json:"ids"`
	Done  bool   `json:"done"`
	Error string `json:"error"`
}

// lifecycle is what driving one session over HTTP produced.
type lifecycle struct {
	rounds int
	labels map[int]bool // every answer sent, which GET labels must return
	wall   time.Duration
}

// round fetches session id's next batch and answers it from truth,
// recording the answers in labels. done reports the session terminated
// instead of handing out a batch.
func (c *client) round(id string, parent int, opID int64, truth func(int) bool, labels map[int]bool) (done bool, err error) {
	ids, done, err := c.next(id, "next", parent, opID)
	if err != nil || done {
		return done, err
	}
	return false, c.answer(id, ids, parent, opID, truth, labels)
}

// next fetches session id's next batch, timing it under op. done reports
// the session terminated instead of handing out a batch.
func (c *client) next(id, op string, parent int, opID int64) (ids []int, done bool, err error) {
	for {
		var nb nextBody
		code, err := c.call(op, "GET", "/v1/sessions/"+id+"/next?wait=60s", nil, &nb, parent, opID, http.StatusOK, http.StatusNoContent)
		if err != nil {
			return nil, false, err
		}
		if code == http.StatusNoContent {
			continue
		}
		if nb.Done {
			if nb.Error != "" {
				return nil, true, fmt.Errorf("session %s ended with %s", id, nb.Error)
			}
			return nil, true, nil
		}
		return nb.IDs, false, nil
	}
}

// answer answers pair ids of session id from truth, recording the answers
// in labels.
func (c *client) answer(id string, ids []int, parent int, opID int64, truth func(int) bool, labels map[int]bool) error {
	ans := make(map[string]bool, len(ids))
	rec := c.e.rec
	if parent < 0 {
		rec = nil
	}
	lsp := rec.start("labeler", parent, opID)
	for _, pid := range ids {
		v := truth(pid)
		ans[strconv.Itoa(pid)] = v
		labels[pid] = v
	}
	rec.stop(lsp)
	_, err := c.call("answer", "POST", "/v1/sessions/"+id+"/answers", map[string]any{"labels": ans}, nil, parent, opID, http.StatusOK)
	return err
}

// status polls session id's status.
func (c *client) status(id string, parent int, opID int64) error {
	_, err := c.call("status", "GET", "/v1/sessions/"+id, nil, nil, parent, opID, http.StatusOK)
	return err
}

// driveHTTP answers rounds on session id until it is done, polling its
// status every third round.
func (c *client) driveHTTP(id string, parent int, opID int64, truth func(int) bool) (lifecycle, error) {
	lc := lifecycle{labels: map[int]bool{}}
	for {
		done, err := c.round(id, parent, opID, truth, lc.labels)
		if err != nil || done {
			return lc, err
		}
		lc.rounds++
		if lc.rounds%3 == 0 {
			if err := c.status(id, parent, opID); err != nil {
				return lc, err
			}
		}
	}
}

// checkLabels reads session id's answered labels back and checks they are
// exactly the ones the client sent.
func (c *client) checkLabels(id string, sent map[int]bool, parent int, opID int64) error {
	ids := make([]int, 0, len(sent))
	for pid := range sent {
		ids = append(ids, pid)
	}
	sort.Ints(ids)
	got, err := c.fetchLabels(id, ids, parent, opID)
	if err != nil {
		return err
	}
	if !equalLabels(got, sent) {
		return fmt.Errorf("GET labels returned %d labels, the client answered %d", len(got), len(sent))
	}
	return nil
}

// fetchLabels reads the answered labels of ids from GET …/labels.
func (c *client) fetchLabels(id string, ids []int, parent int, opID int64) (map[int]bool, error) {
	var q bytes.Buffer
	for i, pid := range ids {
		if i > 0 {
			q.WriteByte(',')
		}
		q.WriteString(strconv.Itoa(pid))
	}
	var body struct {
		Labels map[string]bool `json:"labels"`
	}
	if _, err := c.call("labels", "GET", "/v1/sessions/"+id+"/labels?wait=0s&ids="+q.String(), nil, &body, parent, opID, http.StatusOK); err != nil {
		return nil, err
	}
	out := make(map[int]bool, len(body.Labels))
	for k, v := range body.Labels {
		pid, err := strconv.Atoi(k)
		if err != nil {
			return nil, err
		}
		out[pid] = v
	}
	return out, nil
}

// httpLayers reports the per-endpoint handler and transport medians, the
// retry ratio, and the end-to-end request latencies.
func httpLayers(r *result, st *httpStats) {
	for _, op := range httpOps {
		if st.handler[op].n() > 0 {
			r.layerLatency("serve."+op+".handler_ms", st.handler[op])
			r.layerLatency("http."+op+".transport_ms", st.transport[op])
		}
	}
	r.layer("serve.retry_ratio", float64(st.retries)/float64(max(st.requests, 1)), "ratio", st.requests, "429s retried / requests")
	r.attempted += st.requests
	r.failed += st.failed
	r.problems = append(r.problems, st.problems...)
}

func equalLabels(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
