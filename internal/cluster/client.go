package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ErrShardDown reports a shard that could not be reached within the
// retry budget (or whose breaker is open, failing fast). The
// scatter-gather layer maps it to graceful degradation: a partial
// envelope, or 503 under require_complete.
var ErrShardDown = errors.New("cluster: shard unreachable")

// httpError is a non-2xx response that is not a transport failure. 4xx
// means the shard is healthy and the request is wrong — terminal, no
// retry, breaker unaffected. 5xx counts as a shard failure.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, e.body)
}

// shardClient issues requests to one shard's active URL through its
// breaker, with a per-request timeout and — for idempotent reads —
// bounded retries with jittered exponential backoff. Writes never
// retry: a timed-out create may have landed, and a blind resend would
// duplicate it.
type shardClient struct {
	shard   *shard
	http    *http.Client
	timeout time.Duration
	retries int           // extra attempts after the first, idempotent reads only
	backoff time.Duration // base delay; attempt i waits backoff<<i plus jitter
	metrics *clusterMetrics

	mu  sync.Mutex
	rng *rand.Rand
}

// jitter returns a random duration in [0, d): full jitter decorrelates
// the retry storms of concurrent scatter legs.
func (c *shardClient) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	n := c.rng.Int63n(int64(d))
	c.mu.Unlock()
	return time.Duration(n)
}

// getJSON GETs path and decodes the response into out (idempotent:
// retries apply).
func (c *shardClient) getJSON(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out, true)
}

// postJSON POSTs body to path and decodes into out. idempotent selects
// whether the retry budget applies: true for read-only queries
// (/internal/rank et al are pure functions of shard state), false for
// writes.
func (c *shardClient) postJSON(ctx context.Context, path string, body, out any, idempotent bool) error {
	return c.do(ctx, http.MethodPost, path, body, out, idempotent)
}

// del issues a DELETE (not retried: deletes are not idempotent in
// observable effect — a retry of a landed delete reports 404).
func (c *shardClient) del(ctx context.Context, path string) error {
	return c.do(ctx, http.MethodDelete, path, nil, nil, false)
}

func (c *shardClient) do(ctx context.Context, method, path string, body, out any, idempotent bool) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("cluster: encoding request: %w", err)
		}
	}
	attempts := 1
	if idempotent {
		attempts += c.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			delay := c.backoff<<(attempt-1) + c.jitter(c.backoff<<(attempt-1))
			select {
			case <-ctx.Done():
				return fmt.Errorf("%w: %s (%v)", ErrShardDown, c.shard.name, ctx.Err())
			case <-time.After(delay):
			}
			c.metrics.observeRetry(c.shard.name)
		}
		if !c.shard.breaker.Allow() {
			// Fail fast; an open breaker means the retry budget was
			// already spent by someone recently.
			lastErr = fmt.Errorf("%w: %s (breaker open)", ErrShardDown, c.shard.name)
			continue
		}
		err := c.attempt(ctx, method, path, payload, out)
		if err == nil {
			c.shard.breaker.Success()
			return nil
		}
		var he *httpError
		if errors.As(err, &he) && he.status < 500 {
			// The shard answered: it is healthy, the request is bad.
			c.shard.breaker.Success()
			return err
		}
		c.shard.breaker.Failure()
		lastErr = err
		if ctx.Err() != nil {
			break // the caller's deadline expired; retrying is pointless
		}
	}
	// lastErr stays reachable: a shard's own 5xx answer (a poisoned
	// node's degraded body) passes through forwardErr as it was sent.
	return fmt.Errorf("%w: %s: %w", ErrShardDown, c.shard.name, lastErr)
}

func (c *shardClient) attempt(ctx context.Context, method, path string, payload []byte, out any) error {
	actx := ctx
	if c.timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rdr io.Reader
	if payload != nil {
		rdr = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, c.shard.activeURL()+path, rdr)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding shard response: %w", err)
	}
	return nil
}
