package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Fault-injection suite (the TestFault* tests, run under -race by
// `make check`): each test
// drives the server into a failure mode — a panicking handler, an
// oversized upload, a saturated admission semaphore, an exhausted
// compute budget, a client that walks away mid-join — and checks the
// process degrades instead of dying.

// newFaultServer exposes both the Server (to reach its mux and
// semaphore) and the test listener.
func newFaultServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewWithConfig(nil, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// uploadDense stores n communities whose tight value range makes every
// pairwise exact join expensive (dense encoded windows, large matching
// segments) — the /matrix workload the disconnect and budget tests
// need.
func uploadDense(t *testing.T, ts *httptest.Server, n, size int) []int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = uploadCommunity(t, ts, fmt.Sprintf("dense-%02d", i), randUsers(rng, size, 8, 3))
	}
	return ids
}

func TestFaultInjectedPanicReturns500AndServerSurvives(t *testing.T) {
	s, ts := newFaultServer(t, Config{})
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("injected fault")
	})

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking route: status %d, want 500", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body is not the JSON error shape: %v", err)
	}
	if !strings.Contains(body["error"], "internal server error") {
		t.Errorf("500 body = %v, want internal server error", body)
	}
	// The process must keep serving after the panic.
	var health HealthResponse
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" {
		t.Errorf("health after panic = %+v", health)
	}
}

func TestFaultOversizedBodyRejectedWith413(t *testing.T) {
	_, ts := newFaultServer(t, Config{MaxBodyBytes: 256})

	// A valid community payload that is simply too large for the cap.
	rng := rand.New(rand.NewSource(11))
	payload := CommunityPayload{Name: "big", Category: -1, Users: randUsers(rng, 100, 8, 7)}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(payload); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 256 {
		t.Fatalf("test payload only %d bytes, expected to exceed the cap", buf.Len())
	}
	resp, err := http.Post(ts.URL+"/communities", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "exceeds 256 bytes") {
		t.Errorf("413 body = %v, want a message naming the limit", body)
	}
	// Small bodies still pass.
	uploadCommunity(t, ts, "small", randUsers(rng, 2, 3, 7))
}

func TestFaultAdmissionControlShedsWith429(t *testing.T) {
	s, ts := newFaultServer(t, Config{MaxInFlight: 2})
	rng := rand.New(rand.NewSource(13))
	b := uploadCommunity(t, ts, "b", randUsers(rng, 30, 4, 7))
	a := uploadCommunity(t, ts, "a", randUsers(rng, 40, 4, 7))
	reqBody := func() *bytes.Buffer {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(SimilarityRequest{B: b, A: a, Method: "exminmax"}); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	// Saturate the semaphore directly — deterministic, no racing slow
	// requests needed.
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	resp, err := http.Post(ts.URL+"/similarity", "application/json", reqBody())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "capacity") {
		t.Errorf("429 body = %v, want a capacity message", body)
	}
	// Light endpoints bypass admission control even at capacity.
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)

	// Releasing one token readmits heavy traffic.
	<-s.inflight
	var sim SimilarityResponse
	doJSON(t, "POST", ts.URL+"/similarity", SimilarityRequest{B: b, A: a, Method: "exminmax"},
		http.StatusOK, &sim)
	<-s.inflight // drained by the handler's defer; leave the semaphore empty
	if len(s.inflight) != 0 {
		t.Errorf("semaphore holds %d tokens after requests finished", len(s.inflight))
	}
}

func TestFaultComputeBudgetExhaustedReturns503(t *testing.T) {
	// A 1µs budget expires almost immediately, but context timers only
	// cancel once their runtime timer fires — so the matrix must be
	// large enough to still be scanning when that happens (same sizing
	// as the disconnect test below). The join then unwinds at its next
	// cancellation checkpoint and the 503 is deterministic.
	_, ts := newFaultServer(t, Config{RequestTimeout: time.Microsecond})
	ids := uploadDense(t, ts, 10, 400)
	checkBudget503(t, ts.URL+"/matrix", MatrixRequest{Communities: ids, Options: OptionsPayload{Epsilon: 2}})
}

// TestFaultComputeBudgetExhaustedIndexedReturns503: the indexed engines
// behind /topk and a threshold /rank check the budget before each
// candidate they visit, so an expired budget stops them even when
// every join is too small to reach its scan's own cancellation
// checkpoint (10 × 10 users of 4 dims: under 256 steps a join). A 1ns
// budget has expired before the handler runs, so the answer does not
// wait on a timer firing, which on one CPU can take until the busy
// handler is preempted.
func TestFaultComputeBudgetExhaustedIndexedReturns503(t *testing.T) {
	_, ts := newFaultServer(t, Config{RequestTimeout: time.Nanosecond})
	rng := rand.New(rand.NewSource(7))
	ids := make([]int64, 400)
	for i := range ids {
		ids[i] = uploadCommunity(t, ts, fmt.Sprintf("small-%03d", i), randUsers(rng, 10, 4, 8))
	}
	opts := OptionsPayload{Epsilon: 2}
	checkBudget503(t, ts.URL+"/topk", TopKRequest{Pivot: ids[0], AllCandidates: true, K: len(ids), Options: opts})
	checkBudget503(t, ts.URL+"/rank", RankRequest{Pivot: ids[0], AllCandidates: true, Method: "exminmax",
		MinSimilarity: 0.0001, Options: opts})
}

// checkBudget503 posts body to url and requires the expired-budget
// answer: 503 with Retry-After and a compute-budget message.
func checkBudget503(t *testing.T, url string, body any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("%s with an expired budget: status %d, want 503", url, resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("%s: 503 response is missing Retry-After", url)
	}
	var msg map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg["error"], "compute budget") {
		t.Errorf("%s: 503 body = %v, want a compute-budget message", url, msg)
	}
}

func TestFaultClientDisconnectMidMatrixReleasesServer(t *testing.T) {
	// No deadline: only the client disconnect cancels the join.
	_, ts := newFaultServer(t, Config{RequestTimeout: -1})
	ids := uploadDense(t, ts, 10, 400)
	matrixBody := func() *bytes.Buffer {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(MatrixRequest{
			Communities: ids, Options: OptionsPayload{Epsilon: 2},
		}); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	// Baseline: the full matrix, uncanceled.
	start := time.Now()
	resp, err := http.Post(ts.URL+"/matrix", "application/json", matrixBody())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	full := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline matrix: status %d", resp.StatusCode)
	}
	if full < 20*time.Millisecond {
		t.Skipf("matrix finished in %v; too fast to observe a mid-join disconnect", full)
	}

	// The server runs in-process, so NumGoroutine sees its workers.
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/matrix", matrixBody())
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(full / 10)
		cancel() // the client hangs up mid-join
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded despite client cancellation")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}

	// The handler and its pool must unwind promptly, not run out the
	// remaining O(n²) cells.
	deadline := time.Now().Add(full / 2)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// A couple of runtime/transport goroutines may still be settling;
	// the pool itself is multiples of this.
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines not released after disconnect: %d before, %d after", before, after)
	}
}
