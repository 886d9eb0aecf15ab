package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"github.com/opencsj/csj/internal/metrics"
)

// Surface is the HTTP plumbing a node (Server) and the cluster
// coordinator share: route registration under per-route metrics labels
// (internal/metrics RouteSet), an optional request-body cap, panic
// recovery, the completion log line, GET /metrics, and the JSON helpers
// every handler answers through. Both embed one, so both expose the
// same instrumentation and log shape.
type Surface struct {
	mux *http.ServeMux
	log *log.Logger
	reg *metrics.Registry
	// routes holds the per-endpoint instrument sets; its Unmatched entry
	// covers requests no route matched (404s, bad methods).
	routes *metrics.RouteSet
	// patterns records every pattern registered through Handle, so the
	// route-coverage check (TestRouteMetricsCoverage) can prove each one has a
	// route-label entry: no silent "other" buckets for new routes.
	patterns []string
	maxBody  int64
}

// NewSurface returns a surface serving GET /metrics from its own
// registry. logger may be nil to disable logging; maxBody caps every
// request body (larger ones get 413), and <= 0 sets no cap.
func NewSurface(logger *log.Logger, maxBody int64) *Surface {
	reg := metrics.NewRegistry()
	s := &Surface{
		mux:     http.NewServeMux(),
		log:     logger,
		reg:     reg,
		routes:  metrics.NewRouteSet(reg),
		maxBody: maxBody,
	}
	s.Handle("GET /metrics", s.handleMetrics)
	return s
}

// Registry returns the registry GET /metrics exposes, for the owner's
// own metric families.
func (s *Surface) Registry() *metrics.Registry { return s.reg }

// Handle registers a route and wraps the handler so the matched route's
// instrument set is attached to the request's response recorder
// (created in ServeHTTP). The pattern must be "METHOD /path".
func (s *Surface) Handle(pattern string, h http.HandlerFunc) {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		panic("server: route pattern without method: " + pattern)
	}
	s.patterns = append(s.patterns, pattern)
	rm := s.routes.Route(method, path)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if rec, isRec := w.(*responseRecorder); isRec {
			rec.rm = rm
		}
		h(w, r)
	})
}

// Patterns returns every registered "METHOD /path" pattern — the
// route-coverage check's input (TestRouteMetricsCoverage).
func (s *Surface) Patterns() []string { return s.patterns }

// HasRouteMetric reports whether a pattern has a route-label entry in
// the metrics route set.
func (s *Surface) HasRouteMetric(pattern string) bool { return s.routes.Has(pattern) }

// ServeHTTP implements http.Handler: panic recovery and the body-size
// cap wrap every route, so one faulting request can neither kill the
// process nor buffer an unbounded upload. Every response flows through
// a recorder so the completion log line and the per-endpoint metrics
// see the final status — including a 500 written by panic recovery
// (finish is deferred first, so it runs after recoverPanic).
func (s *Surface) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &responseRecorder{ResponseWriter: w}
	defer s.finish(rec, r, time.Now())
	defer s.recoverPanic(rec, r)
	if s.maxBody > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(rec, r.Body, s.maxBody)
	}
	s.mux.ServeHTTP(rec, r)
}

// recoverPanic turns a handler panic into a logged 500 and keeps the
// process serving. http.ErrAbortHandler is re-raised — it is net/http's
// own control flow for aborting a response.
func (s *Surface) recoverPanic(w http.ResponseWriter, r *http.Request) {
	p := recover()
	if p == nil {
		return
	}
	if p == http.ErrAbortHandler {
		panic(p)
	}
	s.Logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
	// If the handler already started writing, this WriteHeader is a
	// no-op and the client sees a truncated response — the best we can
	// do after the fact.
	s.WriteErr(w, http.StatusInternalServerError, errors.New("internal server error"))
}

// finish runs after the handler (and after panic recovery, so a
// recovered 500 is observed): it updates the endpoint instruments and
// emits the structured completion log line.
func (s *Surface) finish(rec *responseRecorder, r *http.Request, start time.Time) {
	elapsed := time.Since(start)
	status := rec.statusOrDefault()
	rm := rec.rm
	if rm == nil {
		rm = s.routes.Unmatched
	}
	rm.Observe(status, elapsed)
	s.Logf("request method=%s path=%s status=%d bytes=%d dur=%s",
		r.Method, r.URL.Path, status, rec.bytes, elapsed.Round(time.Microsecond))
}

// handleMetrics serves the Prometheus text exposition.
func (s *Surface) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.Logf("writing /metrics: %v", err)
	}
}

// Decode unmarshals a JSON request body into v, writing the proper
// error status (413 for a body over the cap, 400 otherwise) and
// returning false on failure.
func (s *Surface) Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.WriteErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	s.WriteErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
	return false
}

// WriteJSON answers status with v encoded as JSON.
func (s *Surface) WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.Logf("encoding response: %v", err)
	}
}

// WriteErr answers status with the body {"error": err}.
func (s *Surface) WriteErr(w http.ResponseWriter, status int, err error) {
	s.WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// Logf logs through the surface's logger, if it has one.
func (s *Surface) Logf(format string, args ...any) {
	if s.log != nil {
		s.log.Printf(format, args...)
	}
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
