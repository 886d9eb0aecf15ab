package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/opencsj/csj/internal/metrics"
)

// newTestShardClient wires a shard + breaker + client against url with
// fast retry timings, returning both so tests can poke the breaker.
func newTestShardClient(url string, threshold, retries int, timeout time.Duration) (*shard, *shardClient) {
	sh := &shard{name: "flaky", primary: url}
	u := url
	sh.active.Store(&u)
	sh.breaker = NewBreaker(threshold, 50*time.Millisecond, nil, nil)
	sh.client = &shardClient{
		shard:   sh,
		http:    &http.Client{},
		timeout: timeout,
		retries: retries,
		backoff: time.Millisecond,
		metrics: newClusterMetrics(metrics.NewRegistry(), []string{sh.name}),
		rng:     rand.New(rand.NewSource(1)),
	}
	return sh, sh.client
}

func TestClientRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "busy", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	sh, c := newTestShardClient(ts.URL, 10, 2, time.Second)
	var out map[string]bool
	if err := c.getJSON(context.Background(), "/x", &out); err != nil {
		t.Fatalf("getJSON after 2 transient 5xx: %v", err)
	}
	if !out["ok"] {
		t.Fatalf("decoded %v, want ok=true", out)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
	if st := sh.breaker.State(); st != StateClosed {
		t.Fatalf("breaker = %v after eventual success, want closed", st)
	}
}

func TestClient4xxIsTerminalNoRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such community"}`, http.StatusNotFound)
	}))
	defer ts.Close()

	sh, c := newTestShardClient(ts.URL, 1, 3, time.Second)
	err := c.getJSON(context.Background(), "/x", nil)
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusNotFound {
		t.Fatalf("err = %v, want httpError 404", err)
	}
	if errors.Is(err, ErrShardDown) {
		t.Fatalf("a 4xx answer must not read as shard-down: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (4xx is terminal)", got)
	}
	// The shard answered: even with threshold 1 the breaker stays closed.
	if st := sh.breaker.State(); st != StateClosed {
		t.Fatalf("breaker = %v after 4xx, want closed", st)
	}
}

func TestClientWritesNeverRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	_, c := newTestShardClient(ts.URL, 10, 5, time.Second)
	err := c.postJSON(context.Background(), "/x", map[string]int{"id": 1}, nil, false)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("err = %v, want ErrShardDown", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (writes never retry)", got)
	}
}

func TestClientRetriesInjectedTimeouts(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select { // hang until the test ends: every attempt times out
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)

	_, c := newTestShardClient(ts.URL, 10, 2, 20*time.Millisecond)
	err := c.getJSON(context.Background(), "/x", nil)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("err = %v, want ErrShardDown after exhausted retries", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (each timing out)", got)
	}
}

func TestClientFailsFastOnOpenBreaker(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	sh, c := newTestShardClient(ts.URL, 2, 0, time.Second)
	for i := 0; i < 2; i++ {
		if err := c.getJSON(context.Background(), "/x", nil); err == nil {
			t.Fatal("expected failure")
		}
	}
	if st := sh.breaker.State(); st != StateOpen {
		t.Fatalf("breaker = %v after threshold failures, want open", st)
	}
	before := calls.Load()
	err := c.getJSON(context.Background(), "/x", nil)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("err = %v, want ErrShardDown (fail fast)", err)
	}
	if got := calls.Load(); got != before {
		t.Fatalf("open breaker let a request through (%d -> %d calls)", before, got)
	}
}

func TestClientHonorsCallerContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer ts.Close()

	_, c := newTestShardClient(ts.URL, 10, 5, time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.getJSON(ctx, "/x", nil)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("err = %v, want ErrShardDown", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("call outlived the caller's deadline by far: %v (retries must stop once ctx expires)", elapsed)
	}
}
