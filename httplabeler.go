package humo

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// HTTPLabeler labels batches through a remote humod server: LabelBatch
// long-polls GET /v1/sessions/{id}/labels until the server's human
// workforce has answered every requested pair.
//
// The remote session must be the deterministic twin of the local one —
// same workload, method, knobs and seed — so the pairs the local search
// asks for are exactly the pairs the remote session surfaces to its
// workforce. That twin property is the package's determinism guarantee at
// work: create the remote session with the same Spec, point Session.Run at
// an HTTPLabeler, and the local session completes with the bit-identical
// Solution the server reports.
//
//	l := &humo.HTTPLabeler{BaseURL: "http://127.0.0.1:8080", SessionID: "products"}
//	sol, err := localSession.Run(ctx, l)
//
// A remote session that terminates (cancel, delete, failure) before
// answering the requested pairs fails LabelBatch with an error, which
// Session.Run propagates after canceling the local session. A poll the
// server sheds under load (429) is not a failure: LabelBatch waits the
// server's Retry-After (at most maxShedWait) and polls again.
type HTTPLabeler struct {
	// BaseURL locates the humod server, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// SessionID names the twin session on that server.
	SessionID string
	// Client overrides http.DefaultClient. It must not impose a Timeout
	// shorter than Wait, or long-polls will fail spuriously.
	Client *http.Client
	// Wait is the per-request long-poll window (default 30s; the server
	// clamps to its own maximum). LabelBatch re-polls until ctx expires.
	Wait time.Duration
}

// labelsResponse mirrors the labels endpoint's JSON body.
type labelsResponse struct {
	Labels  map[string]bool `json:"labels"`
	Missing []int           `json:"missing"`
	Done    bool            `json:"done"`
	Error   string          `json:"error"`
}

// maxShedWait caps how long LabelBatch honors a shed poll's Retry-After;
// defaultShedWait is the wait when the header is missing or unparseable.
const (
	maxShedWait     = 10 * time.Second
	defaultShedWait = time.Second
)

// labelsChunkSize bounds how many ids one labels request carries: the ids
// travel in the query string, and a whole-DH Resolve batch could otherwise
// blow past the server's request-line limits.
const labelsChunkSize = 2000

// LabelBatch implements Labeler. It blocks until the remote session has
// answers for every id, ctx expires, or the remote session terminates
// without them. Large batches are fetched in chunks of labelsChunkSize ids
// per request.
func (l *HTTPLabeler) LabelBatch(ctx context.Context, ids []int) (map[int]bool, error) {
	out := make(map[int]bool, len(ids))
	for start := 0; start < len(ids); start += labelsChunkSize {
		end := min(start+labelsChunkSize, len(ids))
		if err := l.labelChunk(ctx, ids[start:end], out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// labelChunk long-polls one chunk until fully answered, merging into out.
func (l *HTTPLabeler) labelChunk(ctx context.Context, ids []int, out map[int]bool) error {
	wait := l.Wait
	if wait <= 0 {
		wait = 30 * time.Second
	}
	idList := make([]string, len(ids))
	for i, id := range ids {
		idList[i] = strconv.Itoa(id)
	}
	u := fmt.Sprintf("%s/v1/sessions/%s/labels?ids=%s&wait=%s",
		strings.TrimSuffix(l.BaseURL, "/"), url.PathEscape(l.SessionID),
		strings.Join(idList, ","), url.QueryEscape(wait.String()))
	for {
		resp, shedWait, err := l.poll(ctx, u)
		if err != nil {
			return err
		}
		if resp == nil {
			t := time.NewTimer(shedWait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
			continue
		}
		if len(resp.Missing) == 0 {
			for k, v := range resp.Labels {
				id, err := strconv.Atoi(k)
				if err != nil {
					return fmt.Errorf("humo: humod returned pair id %q", k)
				}
				out[id] = v
			}
			return nil
		}
		if resp.Done {
			if resp.Error != "" {
				return fmt.Errorf("humo: remote session %s terminated (%s) with %d pairs unanswered", l.SessionID, resp.Error, len(resp.Missing))
			}
			return fmt.Errorf("humo: remote session %s completed without answering %d requested pairs (is it the same workload, config and seed?)", l.SessionID, len(resp.Missing))
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// poll performs one long-poll request. A shed poll (429) returns a nil
// response and the wait before the next poll.
func (l *HTTPLabeler) poll(ctx context.Context, u string) (*labelsResponse, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, err
	}
	client := l.Client
	if client == nil {
		client = http.DefaultClient
	}
	res, err := client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("humo: polling humod labels: %w", err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(io.LimitReader(res.Body, 64<<20))
	if err != nil {
		return nil, 0, fmt.Errorf("humo: reading humod response: %w", err)
	}
	if res.StatusCode == http.StatusTooManyRequests {
		return nil, shedWait(res.Header.Get("Retry-After")), nil
	}
	if res.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("humo: humod labels request failed: %s: %s", res.Status, strings.TrimSpace(string(body)))
	}
	var out labelsResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, 0, fmt.Errorf("humo: decoding humod response: %w", err)
	}
	return &out, 0, nil
}

// shedWait parses a Retry-After header in delay-seconds form, capped at
// maxShedWait.
func shedWait(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	switch {
	case err != nil || secs < 0:
		return defaultShedWait
	case secs >= int(maxShedWait/time.Second):
		return maxShedWait
	}
	return time.Duration(secs) * time.Second
}
