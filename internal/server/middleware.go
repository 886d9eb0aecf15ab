package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/durable"
)

// This file is the hardening layer of the HTTP service: panic
// recovery, request-body limits, per-request deadlines, and
// semaphore-based admission control for the CPU-heavy join endpoints.
// The join engine underneath is cancellation-aware, so a shed or
// abandoned request releases its workers promptly instead of pinning
// them for the full O(n²) cell fan-out.

// Config tunes the server's protective limits. The zero value selects
// the defaults below; negative values disable the corresponding limit.
type Config struct {
	// MaxInFlight bounds how many heavy requests (/similarity, /rank,
	// /topk, /matrix) may run concurrently; excess requests are shed
	// with 429 and a Retry-After hint. 0 selects DefaultMaxInFlight();
	// negative disables admission control.
	MaxInFlight int
	// RequestTimeout is the compute budget of one heavy request. When
	// it expires the join unwinds at its next cancellation checkpoint
	// and the client gets 503. 0 selects DefaultRequestTimeout;
	// negative disables the deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps every request body; larger uploads get 413.
	// 0 selects DefaultMaxBodyBytes; negative disables the cap.
	MaxBodyBytes int64
	// PreparedCacheBytes caps the bytes the cached prepared views own
	// (their columns and streams, not the stored vectors; see DESIGN.md
	// §10). 0 selects DefaultPreparedCacheBytes; negative removes the
	// cap.
	PreparedCacheBytes int64
	// DisableMetrics turns off the observability layer: no /metrics
	// endpoint, no per-endpoint instrumentation, no scan-event counters.
	// Collection is a few atomic adds per request, so the default is on.
	DisableMetrics bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles reveal internals and profiling costs CPU, so
	// expose it on trusted networks only.
	EnablePprof bool
	// IndexBuckets selects the histogram resolution of the pruning
	// summaries the community store attaches to entries for the
	// envelope index (DESIGN.md §12). 0 selects the library default;
	// negative disables summaries, making use_index requests fall back
	// to on-the-fly summarization.
	IndexBuckets int
	// Durable, when non-nil, is an opened write-ahead log the community
	// store persists through (DESIGN.md §11). The server seeds the store
	// from the log's recovered image, feeds its metrics with the log's
	// instrumentation, and reports its Status under /healthz. The caller
	// retains responsibility for the log's lifetime; Server.Close flushes
	// and closes it via the store.
	Durable *durable.Log
}

const (
	// DefaultRequestTimeout bounds one heavy request's compute time.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultMaxBodyBytes caps request bodies (community uploads are
	// the largest legitimate payload: ~100k users × 27 dims fit well
	// within this).
	DefaultMaxBodyBytes = 32 << 20
	// DefaultPreparedCacheBytes caps the prepared-view cache. A 27-dim
	// view owns about 4.2× its community's raw vector bytes (452 B a
	// user), so 256 MiB holds ~590 1,000-user views or five 100k-user
	// ones — the working set of a ranking service, with resident memory
	// bounded.
	DefaultPreparedCacheBytes = 256 << 20
)

// DefaultMaxInFlight is the default heavy-request admission limit:
// twice the CPU count, so a short queue absorbs bursts while the
// backlog stays bounded (joins are CPU-bound; more concurrency only
// adds latency).
func DefaultMaxInFlight() int { return 2 * runtime.GOMAXPROCS(0) }

// withDefaults resolves the zero/negative conventions of Config.
func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight()
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.PreparedCacheBytes == 0 {
		c.PreparedCacheBytes = DefaultPreparedCacheBytes
	}
	return c
}

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the peer went away mid-join, so no one will read the
// response; the status exists for the access log.
const statusClientClosedRequest = 499

// recoverPanic turns a handler panic into a logged 500 and keeps the
// server process serving. http.ErrAbortHandler is re-raised — it is
// net/http's own control flow for aborting a response.
func (s *Server) recoverPanic(w http.ResponseWriter, r *http.Request) {
	p := recover()
	if p == nil {
		return
	}
	if p == http.ErrAbortHandler {
		panic(p)
	}
	s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
	// If the handler already started writing, this WriteHeader is a
	// no-op and the client sees a truncated response — the best we can
	// do after the fact.
	s.writeErr(w, http.StatusInternalServerError, errors.New("internal server error"))
}

// heavy wraps a CPU-bound join endpoint with admission control and a
// per-request deadline. Both act before any community lookup or
// decode, so a shed request costs near zero.
func (s *Server) heavy(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				if s.metrics != nil {
					s.metrics.inflight.Inc()
					defer s.metrics.inflight.Dec()
				}
				defer func() { <-s.inflight }()
			default:
				if s.metrics != nil {
					s.metrics.rejected.Inc()
				}
				w.Header().Set("Retry-After", "1")
				s.writeErr(w, http.StatusTooManyRequests,
					fmt.Errorf("server at capacity (%d heavy requests in flight)", cap(s.inflight)))
				return
			}
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// decode unmarshals a JSON request body into v, writing the proper
// error status (413 for an oversized body, 400 otherwise) and
// returning false on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	s.writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
	return false
}

// writeJoinErr maps a join-computation error onto an HTTP response:
// 409 for the CSJ size precondition, 503 + Retry-After when the
// request's compute budget expired, 499 when the client disconnected
// mid-join (logged; the write itself goes nowhere), 422 otherwise.
func (s *Server) writeJoinErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, csj.ErrSizeConstraint):
		s.writeErr(w, http.StatusConflict, err)
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RequestTimeout)))
		s.writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("request exceeded its %s compute budget", s.cfg.RequestTimeout))
	case errors.Is(err, context.Canceled):
		s.logf("client closed request %s %s mid-join", r.Method, r.URL.Path)
		s.writeErr(w, statusClientClosedRequest, err)
	default:
		s.writeErr(w, http.StatusUnprocessableEntity, err)
	}
}

// writeOptionsErr maps an options-payload failure: spec errors (a bad
// epsilon vector or scorer in an otherwise well-formed request) are
// semantic and map to 422, matching the engine-level status of the
// same condition; anything else (unknown matcher) is a malformed
// request, 400.
func (s *Server) writeOptionsErr(w http.ResponseWriter, err error) {
	var se *specError
	if errors.As(err, &se) {
		s.writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.writeErr(w, http.StatusBadRequest, err)
}

// degraded reports the node is in read-only degraded mode: the
// write-ahead log fail-stopped on an unrecoverable I/O failure
// (DESIGN.md §16). Reads keep serving from the in-memory snapshot.
func (s *Server) degraded() bool {
	return s.cfg.Durable != nil && s.cfg.Durable.Poisoned()
}

// degradedBody is the pinned 503 body of every refused write on a
// poisoned node, so clients and probes can tell "this node refuses
// writes by design" apart from a bug (500). Keep it stable: the
// faultguard harness and operator tooling match on it.
var degradedBody = map[string]string{
	"error":  "degraded",
	"detail": "write-ahead log poisoned; node is read-only — drain, repair, and re-follow (see README runbook)",
}

// writeMutationErr maps a store mutation failure onto HTTP: a poisoned
// WAL answers 503 with the pinned degraded body; anything else (closed
// log during shutdown, encoding failure) stays a 500. Either way the
// mutation was never acknowledged, so nothing durable was promised.
func (s *Server) writeMutationErr(w http.ResponseWriter, err error) {
	if errors.Is(err, durable.ErrPoisoned) {
		s.writeJSON(w, http.StatusServiceUnavailable, degradedBody)
		return
	}
	s.writeErr(w, http.StatusInternalServerError, err)
}

// retryAfterSeconds suggests a retry delay proportional to the budget
// the request just exhausted (at least one second).
func retryAfterSeconds(budget time.Duration) int {
	secs := int(budget / (4 * time.Second))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// ---- response helpers ----

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("encoding response: %v", err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) logf(format string, args ...any) {
	if s.log != nil {
		s.log.Printf(format, args...)
	}
}
