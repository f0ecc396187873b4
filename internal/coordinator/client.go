package coordinator

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"nocalert/internal/campaign"
	"nocalert/internal/server"
	"nocalert/internal/trace"
)

// client is the coordinator's typed view of one nocalertd worker's job
// API. It speaks the exact wire surface cmd/nocalertd exposes — submit
// with shard coordinates, NDJSON event streaming, checkpoint fetch —
// and classifies every failure as transient (worth retrying, possibly
// a dying worker) or permanent (the request itself is wrong).
type client struct {
	base  string // http://host:port, no trailing slash
	token string // bearer token; "" when the fleet runs without auth
	hc    *http.Client
}

// transientError marks failures where retrying (or requeueing onto
// another worker) is the right move: connection failures, timeouts,
// 5xx, and 429 backpressure. Everything else — 4xx, malformed bodies —
// is a bug in the request and retrying would loop forever.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func transient(format string, args ...any) error {
	return &transientError{fmt.Errorf(format, args...)}
}

// isTransient reports whether err is worth retrying.
func isTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

func (c *client) do(req *http.Request) (*http.Response, error) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Connection-level failures (refused, reset, DNS, ctx timeout
		// via transport) all look like a dead or dying worker.
		return nil, transient("%s: %v", c.base, err)
	}
	return resp, nil
}

// apiError drains the response and renders its JSON error body,
// classifying by status code.
func (c *client) apiError(resp *http.Response, op string) error {
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body); err == nil && body.Error != "" {
		msg = fmt.Sprintf("%s: %s", resp.Status, body.Error)
	}
	err := fmt.Errorf("%s %s: %s", op, c.base, msg)
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		return &transientError{err}
	}
	return err
}

// maxViewBytes caps how much of a worker's response the client reads
// for one job view: what the server accepts as a request body. A view is
// a few hundred bytes; a body past the cap is a broken or hostile worker
// and decodes as truncated, a transient error.
const maxViewBytes = 1 << 20

// maxRecordBytes bounds one record line of a shard checkpoint: a
// trace.RunRecord's fixed fields with every integer at 20 digits come to
// about 700 bytes, and its two checker lists to at most core.NumCheckers
// (32) entries of two digits each. checkpointSlack is the manifest's
// fields besides the spec it embeds, and the footer.
const (
	maxRecordBytes  = 2 << 10
	checkpointSlack = 4 << 10
)

// submitShard dispatches shard i of n to the worker. Idempotent on the
// worker side for every n, 1 included: the worker keys a job by spec hash
// and shard, so a retry after a lost response, or a re-run dispatch, lands
// on the same queued, running or done job (200 instead of 201).
func (c *client) submitShard(ctx context.Context, specJSON []byte, i, n int) (server.View, error) {
	u := fmt.Sprintf("%s/v1/jobs?shard=%d&shards=%d", c.base, i, n)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(specJSON))
	if err != nil {
		return server.View{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return server.View{}, err
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return server.View{}, c.apiError(resp, "submit")
	}
	defer resp.Body.Close()
	var v server.View
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxViewBytes)).Decode(&v); err != nil {
		return server.View{}, transient("submit %s: decoding response: %v", c.base, err)
	}
	return v, nil
}

// status fetches one job's current view.
func (c *client) status(ctx context.Context, id string) (server.View, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return server.View{}, err
	}
	resp, err := c.do(req)
	if err != nil {
		return server.View{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return server.View{}, c.apiError(resp, "status")
	}
	defer resp.Body.Close()
	var v server.View
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxViewBytes)).Decode(&v); err != nil {
		return server.View{}, transient("status %s: decoding response: %v", c.base, err)
	}
	return v, nil
}

// events opens the job's NDJSON progress stream and forwards each
// event to the channel it returns. The stream goroutine exits — and
// closes the channel — when the job goes terminal, the stream breaks,
// or ctx is canceled. Stream errors after at least one event are
// normal (worker killed mid-job) and simply end the stream; the caller
// judges the job by its last observed state and a follow-up status
// probe.
func (c *client) events(ctx context.Context, id string) (<-chan server.Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, c.apiError(resp, "events")
	}
	ch := make(chan server.Event, 16)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var ev server.Event
			if json.Unmarshal(line, &ev) != nil {
				continue
			}
			select {
			case ch <- ev:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch, nil
}

// checkpoint fetches and parses the job's finalized shard checkpoint,
// reading at most limit bytes of it: a longer body is a broken or hostile
// worker, and a transient error.
func (c *client) checkpoint(ctx context.Context, id string, limit int64) (*trace.CheckpointData, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/checkpoint", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, c.apiError(resp, "checkpoint")
	}
	defer resp.Body.Close()
	cd, err := trace.ReadCheckpoint(http.MaxBytesReader(nil, resp.Body, limit))
	var tooLong *http.MaxBytesError
	if errors.As(err, &tooLong) {
		return nil, transient("checkpoint %s job %s: longer than the %d bytes its shard can take", c.base, id, limit)
	}
	if err != nil {
		// A truncated transfer reads like a torn checkpoint; refetch.
		return nil, transient("checkpoint %s job %s: %v", c.base, id, err)
	}
	if cd.Footer == nil {
		return nil, transient("checkpoint %s job %s: not finalized", c.base, id)
	}
	return cd, nil
}

// cancel best-effort cancels a job (used when a lease expires and the
// shard is requeued elsewhere; a hung worker may never see it).
func (c *client) cancel(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// specPayload marshals the spec once for every submit this dispatch
// will do.
func specPayload(spec campaign.Spec) ([]byte, error) {
	return json.Marshal(&spec)
}
