package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// scrapeMetrics fetches /metrics and parses every sample line into a
// map of "name{labels}" -> value, failing the test on any line that is
// not valid Prometheus text exposition.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("GET /metrics: Content-Type %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	seenType := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		switch {
		case line == "":
			t.Fatal("blank line in exposition")
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			seenType[parts[2]] = true
		case strings.HasPrefix(line, "#"):
			// HELP or other comment.
		default:
			key, val, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed sample line %q", line)
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("sample %q: non-numeric value: %v", line, err)
			}
			fam := key
			if i := strings.IndexByte(fam, '{'); i >= 0 {
				fam = fam[:i]
			}
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				fam = strings.TrimSuffix(fam, suffix)
			}
			if !seenType[fam] && !seenType[key] {
				t.Errorf("sample %q appears before its TYPE comment", line)
			}
			samples[key] = f
		}
	}
	if len(samples) == 0 {
		t.Fatal("empty /metrics exposition")
	}
	return samples
}

func TestMetricsEndpointCountersMonotone(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(3))
	b := uploadCommunity(t, ts, "B", randUsers(rng, 40, 6, 50))
	a := uploadCommunity(t, ts, "A", randUsers(rng, 50, 6, 50))

	sim := func() {
		var out SimilarityResponse
		doJSON(t, "POST", ts.URL+"/similarity",
			SimilarityRequest{B: b, A: a, Method: "exminmax", Options: OptionsPayload{Epsilon: 5}},
			http.StatusOK, &out)
	}
	sim()
	before := scrapeMetrics(t, ts)

	const reqKey = `csj_http_requests_total{class="2xx",method="POST",route="/similarity"}`
	if before[reqKey] != 1 {
		t.Errorf("%s = %v after one request, want 1", reqKey, before[reqKey])
	}
	// One completed Ex-MinMax join must have produced comparisons.
	matchKey := `csj_scan_events_total{event="match"}`
	noMatchKey := `csj_scan_events_total{event="no_match"}`
	if before[matchKey]+before[noMatchKey] == 0 {
		t.Error("scan-event counters all zero after a join")
	}

	sim()
	sim()
	after := scrapeMetrics(t, ts)
	if got, want := after[reqKey], before[reqKey]+2; got != want {
		t.Errorf("%s = %v after two more requests, want %v", reqKey, got, want)
	}
	for key, v := range before {
		if after[key] < v && !strings.Contains(key, "inflight") {
			t.Errorf("counter %s went backwards: %v -> %v", key, v, after[key])
		}
	}

	// Latency histogram for the endpoint: count matches requests, sum
	// is positive, +Inf bucket equals the count.
	histCount := `csj_http_request_seconds_count{method="POST",route="/similarity"}`
	if got := after[histCount]; got != 3 {
		t.Errorf("%s = %v, want 3", histCount, got)
	}
	histInf := `csj_http_request_seconds_bucket{method="POST",route="/similarity",le="+Inf"}`
	if after[histInf] != after[histCount] {
		t.Errorf("+Inf bucket %v != count %v", after[histInf], after[histCount])
	}
	if after[`csj_http_request_seconds_sum{method="POST",route="/similarity"}`] <= 0 {
		t.Error("latency sum is not positive")
	}
}

func TestMetricsMatrixFeedsPoolAndScanCounters(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(4))
	ids := make([]int64, 4)
	for i := range ids {
		ids[i] = uploadCommunity(t, ts, fmt.Sprintf("m%d", i), randUsers(rng, 30, 6, 20))
	}
	var cells []MatrixCell
	doJSON(t, "POST", ts.URL+"/matrix",
		MatrixRequest{Communities: ids, Options: OptionsPayload{Epsilon: 3}},
		http.StatusOK, &cells)
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	m := scrapeMetrics(t, ts)
	// One pool stage ran: the community store serves prepared views off
	// its cache, so the matrix has no prepare stage — just the 6 cells.
	if got := m["csj_batch_pool_stages_total"]; got != 1 {
		t.Errorf("pool stages = %v, want 1", got)
	}
	if got := m["csj_batch_pool_tasks_total"]; got != 6 {
		t.Errorf("pool tasks = %v, want 6", got)
	}
	if got := m[`csj_batch_pool_utilization_ratio_count`]; got != 1 {
		t.Errorf("utilization observations = %v, want 1", got)
	}
	// The store encoded each community exactly once, on first use.
	if got := m["csj_prepared_cache_builds_total"]; got != 4 {
		t.Errorf("prepared-view builds = %v, want 4", got)
	}
	// The matrix cells each completed a join whose events were observed.
	var comparisons float64
	for _, ev := range []string{"match", "no_match"} {
		comparisons += m[`csj_scan_events_total{event="`+ev+`"}`]
	}
	if comparisons == 0 {
		t.Error("matrix joins observed no comparisons")
	}
}

func TestMetricsAdmissionRejectionAndInflight(t *testing.T) {
	s, ts := newFaultServer(t, Config{MaxInFlight: 1})
	// Fill the only admission slot so the next heavy request is shed.
	s.inflight <- struct{}{}
	doJSON(t, "POST", ts.URL+"/similarity",
		SimilarityRequest{B: 1, A: 2, Method: "exminmax"},
		http.StatusTooManyRequests, nil)
	<-s.inflight
	m := scrapeMetrics(t, ts)
	if got := m[`csj_http_rejected_total{reason="capacity"}`]; got != 1 {
		t.Errorf("rejected = %v, want 1", got)
	}
	if got := m[`csj_http_inflight_heavy`]; got != 0 {
		t.Errorf("inflight gauge = %v at rest, want 0", got)
	}
	if got := m[`csj_http_requests_total{class="4xx",method="POST",route="/similarity"}`]; got != 1 {
		t.Errorf("4xx counter = %v, want 1 (the shed request)", got)
	}
}

func TestMetricsUnmatchedRoutesLandInOther(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	m := scrapeMetrics(t, ts)
	if got := m[`csj_http_requests_total{class="4xx",method="other",route="other"}`]; got != 1 {
		t.Errorf("unmatched-route 4xx counter = %v, want 1", got)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	_, off := newFaultServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof: status %d, want 404", resp.StatusCode)
	}

	_, on := newFaultServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with EnablePprof: status %d, want 200", resp.StatusCode)
	}
	if len(body) == 0 {
		t.Error("pprof cmdline returned an empty body")
	}
}

// TestMetricsPreparedCacheZeroRebuildAfterWarmup is the acceptance
// check for the versioned store: after a warmup /matrix has populated
// the prepared-view cache, repeated /matrix calls over the same
// communities perform ZERO further core.Prepare work — every view is a
// cache hit — and return identical cells.
func TestMetricsPreparedCacheZeroRebuildAfterWarmup(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(6))
	ids := make([]int64, 4)
	for i := range ids {
		ids[i] = uploadCommunity(t, ts, fmt.Sprintf("w%d", i), randUsers(rng, 30, 6, 20))
	}
	matrix := func() []MatrixCell {
		var cells []MatrixCell
		doJSON(t, "POST", ts.URL+"/matrix",
			MatrixRequest{Communities: ids, Options: OptionsPayload{Epsilon: 3}},
			http.StatusOK, &cells)
		if len(cells) != 6 {
			t.Fatalf("got %d cells, want 6", len(cells))
		}
		for i := range cells {
			cells[i].ElapsedMS = 0
		}
		return cells
	}

	warm := matrix()
	m := scrapeMetrics(t, ts)
	if m["csj_prepared_cache_builds_total"] != 4 || m["csj_prepared_cache_misses_total"] != 4 {
		t.Fatalf("warmup builds/misses = %v/%v, want 4/4",
			m["csj_prepared_cache_builds_total"], m["csj_prepared_cache_misses_total"])
	}
	if m["csj_prepared_cache_entries"] != 4 || m["csj_prepared_cache_bytes"] <= 0 {
		t.Errorf("resident entries/bytes = %v/%v, want 4 entries with positive bytes",
			m["csj_prepared_cache_entries"], m["csj_prepared_cache_bytes"])
	}
	hitsAfterWarm := m["csj_prepared_cache_hits_total"]

	for run := 0; run < 2; run++ {
		got := matrix()
		for i := range got {
			if got[i] != warm[i] {
				t.Fatalf("run %d cell %d = %+v, want %+v (cache must not change answers)",
					run, i, got[i], warm[i])
			}
		}
	}
	m = scrapeMetrics(t, ts)
	if m["csj_prepared_cache_builds_total"] != 4 || m["csj_prepared_cache_misses_total"] != 4 {
		t.Errorf("post-warmup builds/misses = %v/%v, want unchanged 4/4 (zero rebuilds)",
			m["csj_prepared_cache_builds_total"], m["csj_prepared_cache_misses_total"])
	}
	if got, want := m["csj_prepared_cache_hits_total"], hitsAfterWarm+8; got != want {
		t.Errorf("hits = %v, want %v (2 warm runs x 4 views)", got, want)
	}
	if m["csj_prepared_cache_build_seconds_count"] != 4 {
		t.Errorf("build duration observations = %v, want 4", m["csj_prepared_cache_build_seconds_count"])
	}
}
