package server

import (
	"net/http"
	"net/http/pprof"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/core"
	"github.com/opencsj/csj/internal/durable"
	"github.com/opencsj/csj/internal/metrics"
	"github.com/opencsj/csj/internal/store"
)

// This file is the observability layer of the HTTP service (DESIGN.md
// §9): a per-server metrics registry exposed at GET /metrics in the
// Prometheus text format, per-endpoint request/latency/status-class
// instrumentation, in-flight and admission-rejection tracking hooked
// into the heavy-endpoint semaphore, live counters of the paper's scan
// events fed from finished joins, batch-pool worker utilization, and
// opt-in net/http/pprof.

// serverMetrics bundles the service's live instruments. A nil
// *serverMetrics (Config.DisableMetrics) turns every observation into
// a no-op.
type serverMetrics struct {
	reg *metrics.Registry

	// routes holds the per-endpoint instrument sets (latency histogram
	// plus status-class counters, see internal/metrics.RouteSet); its
	// Unmatched entry covers requests no route matched (404s, bad
	// methods).
	routes *metrics.RouteSet

	inflight *metrics.Gauge
	rejected *metrics.Counter

	scan *metrics.ScanEventCounters

	poolStages      *metrics.Counter
	poolTasks       *metrics.Counter
	poolUtilization *metrics.Histogram

	// Prepared-view cache series (DESIGN.md §10), fed by the community
	// store through the store.Observer interface.
	cacheHits         *metrics.Counter
	cacheMisses       *metrics.Counter
	cacheBuilds       *metrics.Counter
	cacheBuildSeconds *metrics.Histogram
	cacheEvictedBytes *metrics.Counter
	cacheBytes        *metrics.Gauge
	cacheEntries      *metrics.Gauge

	// Durability series (DESIGN.md §11), fed by the write-ahead log
	// through the durable.Observer interface.
	walAppends        *metrics.Counter
	walFsyncSeconds   *metrics.Histogram
	checkpointSeconds *metrics.Histogram
	recoveryTruncated *metrics.Counter
	walPoisoned       *metrics.Gauge

	// Envelope-index series (DESIGN.md §12), fed by the indexed query
	// engines through Options.OnIndexStats.
	indexBoundChecks *metrics.Counter
	indexPruned      *metrics.Counter
}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg:    reg,
		routes: metrics.NewRouteSet(reg),
		inflight: reg.Gauge("csj_http_inflight_heavy",
			"Heavy join requests currently holding an admission slot.", nil),
		rejected: reg.Counter("csj_http_rejected_total",
			"Requests shed by admission control.", metrics.Labels{"reason": "capacity"}),
		scan: metrics.NewScanEventCounters(reg, "csj_scan_events_total",
			"MinMax scan events aggregated over completed joins (the paper's MIN PRUNE / MAX PRUNE / NO OVERLAP / NO MATCH / MATCH, plus CSF flushes, EGO prunes, and skip/offset fast-forwards)."),
		poolStages: reg.Counter("csj_batch_pool_stages_total",
			"Worker-pool stages completed by the batch engines.", nil),
		poolTasks: reg.Counter("csj_batch_pool_tasks_total",
			"Tasks (cells, probes, preparations) completed by batch-engine pools.", nil),
		poolUtilization: reg.Histogram("csj_batch_pool_utilization_ratio",
			"Per-stage worker utilization: busy worker-seconds over wall-clock times pool size (1.0 = no idle tails).",
			nil, metrics.LinearBuckets(0.1, 0.1, 10)),
		cacheHits: reg.Counter("csj_prepared_cache_hits_total",
			"Prepared-view cache hits: joins served from an already-encoded view.", nil),
		cacheMisses: reg.Counter("csj_prepared_cache_misses_total",
			"Prepared-view cache misses: requests that found no view and triggered a build.", nil),
		cacheBuilds: reg.Counter("csj_prepared_cache_builds_total",
			"Prepared-view builds executed (concurrent misses for one view share a single build).", nil),
		cacheBuildSeconds: reg.Histogram("csj_prepared_cache_build_seconds",
			"Duration of prepared-view builds (MinMax encodings).", nil, nil),
		cacheEvictedBytes: reg.Counter("csj_prepared_cache_evicted_bytes_total",
			"Bytes evicted from the prepared-view cache (LRU pressure or invalidation on delete).", nil),
		cacheBytes: reg.Gauge("csj_prepared_cache_bytes",
			"Approximate resident bytes of the prepared-view cache.", nil),
		cacheEntries: reg.Gauge("csj_prepared_cache_entries",
			"Views resident in the prepared-view cache.", nil),
		walAppends: reg.Counter("csj_wal_appends_total",
			"Mutation records appended to the write-ahead log.", nil),
		walFsyncSeconds: reg.Histogram("csj_wal_fsync_seconds",
			"Duration of WAL fsyncs (per append under -fsync=always, per tick under interval).",
			nil, nil),
		checkpointSeconds: reg.Histogram("csj_checkpoint_seconds",
			"Duration of durable checkpoint installs (write, fsync, atomic rename).",
			nil, nil),
		recoveryTruncated: reg.Counter("csj_recovery_truncated_records_total",
			"WAL records dropped at startup as a torn tail (or by -repair).", nil),
		walPoisoned: reg.Gauge("csj_wal_poisoned",
			"1 when the write-ahead log has fail-stopped on an unrecoverable I/O failure and the node serves read-only (DESIGN.md §16).", nil),
		indexBoundChecks: reg.Counter("csj_index_bound_checks_total",
			"Upper-bound evaluations performed by the envelope index.", nil),
		indexPruned: reg.Counter("csj_index_candidates_pruned_total",
			"Candidates eliminated by the envelope index without running a join.", nil),
	}
	return m
}

// route registers (or returns) the instrument set for one endpoint.
func (m *serverMetrics) route(method, path string) *metrics.RouteInstruments {
	return m.routes.Route(method, path)
}

// observeJoinEvents feeds one finished join's tallies into the scan
// counters; safe for concurrent use from pool workers.
func (m *serverMetrics) observeJoinEvents(ev csj.Events) {
	if m == nil {
		return
	}
	cev := core.Events(ev)
	m.scan.Observe(&cev)
}

// observePoolStats records one batch-engine pool stage.
func (m *serverMetrics) observePoolStats(ps csj.PoolStats) {
	if m == nil {
		return
	}
	m.poolStages.Inc()
	var tasks int64
	for _, w := range ps.Workers {
		tasks += int64(w.Tasks)
	}
	m.poolTasks.Add(tasks)
	m.poolUtilization.Observe(ps.Utilization())
}

// serverMetrics implements store.Observer, so the community store's
// prepared-view cache feeds the csj_prepared_cache_* series directly.
// The callbacks fire concurrently from request goroutines; every
// instrument underneath is atomic.
var _ store.Observer = (*serverMetrics)(nil)

func (m *serverMetrics) CacheHit()  { m.cacheHits.Inc() }
func (m *serverMetrics) CacheMiss() { m.cacheMisses.Inc() }

func (m *serverMetrics) CacheBuild(d time.Duration) {
	m.cacheBuilds.Inc()
	m.cacheBuildSeconds.Observe(d.Seconds())
}

func (m *serverMetrics) CacheStored(bytes int64) {
	m.cacheBytes.Add(bytes)
	m.cacheEntries.Inc()
}

func (m *serverMetrics) CacheEvicted(bytes int64) {
	m.cacheEvictedBytes.Add(bytes)
	m.cacheBytes.Add(-bytes)
	m.cacheEntries.Dec()
}

// serverMetrics also implements durable.Observer, so a wired
// write-ahead log feeds the csj_wal_* / csj_checkpoint_* /
// csj_recovery_* series. WALAppend and WALFsync fire under the store's
// mutation lock (or from the background flusher); all instruments
// underneath are atomic.
var _ durable.Observer = (*serverMetrics)(nil)

func (m *serverMetrics) WALAppend() { m.walAppends.Inc() }

func (m *serverMetrics) WALFsync(d time.Duration) {
	m.walFsyncSeconds.Observe(d.Seconds())
}

func (m *serverMetrics) CheckpointWritten(d time.Duration) {
	m.checkpointSeconds.Observe(d.Seconds())
}

func (m *serverMetrics) RecoveryTruncated(n int64) {
	m.recoveryTruncated.Add(n)
}

// WALPoisoned latches csj_wal_poisoned to 1; the gauge never resets
// within a process — un-poisoning requires an operator repair and a
// restart (see the README runbook).
func (m *serverMetrics) WALPoisoned() { m.walPoisoned.Set(1) }

// observeIndexStats feeds one indexed query's pruning tallies into the
// envelope-index counters.
func (m *serverMetrics) observeIndexStats(st csj.IndexStats) {
	if m == nil {
		return
	}
	m.indexBoundChecks.Add(st.BoundChecks)
	m.indexPruned.Add(st.Pruned)
}

// instrumentOptions attaches the join observers of the heavy endpoints
// to a request's options payload. Every join endpoint funnels its
// options through here.
func (s *Server) instrumentOptions(opts *csj.Options) *csj.Options {
	if s.metrics == nil {
		return opts
	}
	opts.OnJoinEvents = s.metrics.observeJoinEvents
	opts.OnPoolStats = s.metrics.observePoolStats
	opts.OnIndexStats = s.metrics.observeIndexStats
	return opts
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		s.logf("writing /metrics: %v", err)
	}
}

// mountPprof exposes net/http/pprof on the server's own mux (the
// default-mux registrations of the pprof package are not served).
// Gate this behind Config.EnablePprof: profiles reveal internals and
// profiling costs CPU, so expose it on trusted networks only.
// Registration goes through handle so even the debug routes carry
// route labels instead of polluting the "other" bucket.
func (s *Server) mountPprof() {
	s.handle("GET /debug/pprof/", pprof.Index)
	s.handle("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.handle("GET /debug/pprof/profile", pprof.Profile)
	s.handle("GET /debug/pprof/symbol", pprof.Symbol)
	s.handle("GET /debug/pprof/trace", pprof.Trace)
}

// responseRecorder captures the status and byte count a handler writes
// so the completion log line and the per-endpoint metrics can see
// them. The route instruments are attached by the per-route wrapper
// once the mux has matched.
type responseRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	rm     *metrics.RouteInstruments
}

func (r *responseRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards streaming support (pprof's trace endpoint flushes).
func (r *responseRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *responseRecorder) statusOrDefault() int {
	if r.status == 0 {
		// Nothing was written: net/http would send 200 on return.
		return http.StatusOK
	}
	return r.status
}

// finishRequest runs after the handler (and after panic recovery, so a
// recovered 500 is observed): it updates the endpoint instruments and
// emits the structured completion log line.
func (s *Server) finishRequest(rec *responseRecorder, r *http.Request, start time.Time) {
	elapsed := time.Since(start)
	status := rec.statusOrDefault()
	if s.metrics != nil {
		rm := rec.rm
		if rm == nil {
			rm = s.metrics.routes.Unmatched
		}
		rm.Observe(status, elapsed)
	}
	s.logf("request method=%s path=%s status=%d bytes=%d dur=%s",
		r.Method, r.URL.Path, status, rec.bytes, elapsed.Round(time.Microsecond))
}
