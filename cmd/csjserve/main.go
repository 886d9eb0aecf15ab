// Command csjserve runs the CSJ HTTP service: upload communities,
// compute similarities with any of the six methods, rank candidates,
// find the exact top-k, and maintain incremental joins under
// follow/unfollow events.
//
// Usage:
//
//	csjserve -addr :8080
//
// Endpoints (JSON):
//
//	GET    /healthz                         liveness (process is up)
//	GET    /readyz                          readiness (503 while booting or draining)
//	POST   /communities                     {"name", "category", "users": [[...]]}
//	GET    /communities
//	GET    /communities/{id}
//	DELETE /communities/{id}
//	POST   /similarity                      {"b", "a", "method", "options": {"epsilon": 1}}
//	POST   /rank                            {"pivot", "candidates", "method", "options",
//	                                         "all_candidates", "use_index", "min_similarity"}
//	POST   /topk                            {"pivot", "candidates", "k", "options",
//	                                         "all_candidates", "use_index"}
//	POST   /matrix                          {"communities": [ids], "method", "options"}
//	POST   /joins                           {"dim", "epsilon"}
//	GET    /joins/{id}
//	POST   /joins/{id}/users                {"side": "B", "vector": [...]}
//	DELETE /joins/{id}/users/{side}/{uid}
//	GET    /metrics                         Prometheus text exposition
//
// /rank, /topk and /matrix run the shard query of /internal/rank,
// /internal/topk and /internal/matrix (the csjcoord scatter targets)
// with the pivot as a local id and a matrix's pairs as its cells, so a
// node answers every valid request, and every request with one fault,
// as a csjcoord cluster over the same corpus does: 200 [] for an empty
// candidate set, 400 for k < 1 or for neither or both of candidates and
// all_candidates, 404 for a missing pivot, candidate or matrix id (the
// first in request order), 422 for a matrix over one community or with
// a method other than ap-minmax and ex-minmax.
//
// Operational limits (see DESIGN.md §8):
//
//	-max-inflight         concurrent heavy joins admitted before shedding 429
//	-request-timeout      per-request compute budget (exceeded → 503)
//	-max-body-bytes       request body cap (exceeded → 413)
//	-prepared-cache-bytes cap on the bytes cached prepared views own (see DESIGN.md §10)
//
// Observability (see DESIGN.md §9): GET /metrics always serves
// Prometheus text metrics.
//
//	-pprof        mount net/http/pprof under /debug/pprof/ (default off)
//
// Durability (see DESIGN.md §11):
//
//	-store-dir          directory for the WAL + checkpoints (empty = memory-only)
//	-fsync              always | interval | off (always = no acked write is ever lost)
//	-checkpoint-every   appends between automatic checkpoints
//	-repair             accept a corrupt log: truncate at the damage and start
//
// Cluster replica mode (see DESIGN.md §13):
//
//	-follow URL         run as a WAL-shipped read replica of the csjserve at URL:
//	                    continuously mirror its /wal segment stream into -store-dir
//	                    and serve nothing but /healthz (follower status), /readyz
//	                    (503 "following"), and POST /promote, which stops the tail,
//	                    recovers the mirrored log, and swaps in a full serving node.
//	-follow-interval    leader poll cadence while following
//
// The listener starts before recovery: /readyz answers 503
// {"status":"starting"} until the seed boot (WAL recovery) finishes,
// so load balancers never route to a node still replaying its log.
//
// The server drains gracefully on SIGINT/SIGTERM: /readyz flips to 503
// first, the listener closes, in-flight requests get -shutdown-grace to
// finish, and any still running after that are canceled via their
// request context. Only after the drain completes is the write-ahead
// log flushed and closed — no handler can be mid-append when the log
// shuts down.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/opencsj/csj/internal/durable"
	"github.com/opencsj/csj/internal/server"
)

// serveFlags are the operator inputs that need validation beyond what
// flag parsing gives us. Kept as a struct so validateFlags is a pure,
// table-testable function.
type serveFlags struct {
	RequestTimeout  time.Duration
	CheckpointEvery int64
	MaxInFlight     int
	FollowURL       string
	StoreDir        string
}

// validateFlags rejects operator input that cannot mean anything
// sensible. Negative durations and counts are always a typo (a shell
// arithmetic slip, a missing value making the next flag the argument) —
// silently treating them as "disabled" hides the mistake, so they are
// hard errors; main exits 2 on them, the conventional flag-error code.
func validateFlags(f serveFlags) error {
	if f.RequestTimeout < 0 {
		return fmt.Errorf("-request-timeout must be >= 0, got %v", f.RequestTimeout)
	}
	if f.CheckpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0, got %d", f.CheckpointEvery)
	}
	if f.MaxInFlight < 0 {
		return fmt.Errorf("-max-inflight must be >= 0, got %d", f.MaxInFlight)
	}
	if f.FollowURL != "" && f.StoreDir == "" {
		return errors.New("-follow requires -store-dir (the replica mirrors the leader's log there)")
	}
	return nil
}

// switchableHandler atomically swaps the serving surface: a boot gate
// (or follower front) first, the full server once recovery finishes.
type switchableHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *switchableHandler) Set(h http.Handler) { s.h.Store(&h) }

func (s *switchableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// bootHandler serves while the WAL is still replaying: alive but not
// ready, so orchestrators wait instead of routing traffic into a node
// without its data.
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeStatus(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		writeStatus(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
	})
	return mux
}

func writeStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		quiet       = flag.Bool("q", false, "suppress request logging")
		maxInFlight = flag.Int("max-inflight", 0,
			"max concurrent heavy requests before shedding with 429 (0 = 2×GOMAXPROCS)")
		reqTimeout = flag.Duration("request-timeout", 0,
			"compute budget per heavy request (0 = 30s default)")
		maxBody = flag.Int64("max-body-bytes", 0,
			"request body size cap in bytes (0 = 32 MiB default, negative disables)")
		preparedCache = flag.Int64("prepared-cache-bytes", 0,
			"cap on the bytes the cached prepared views own (0 = 256 MiB default, negative removes the cap)")
		readTimeout = flag.Duration("read-timeout", 30*time.Second,
			"max duration for reading an entire request")
		writeTimeout = flag.Duration("write-timeout", 2*time.Minute,
			"max duration for writing a response (must exceed -request-timeout)")
		idleTimeout = flag.Duration("idle-timeout", 2*time.Minute,
			"max keep-alive idle time before a connection is closed")
		shutdownGrace = flag.Duration("shutdown-grace", 15*time.Second,
			"how long to let in-flight requests drain on SIGINT/SIGTERM")
		pprofOn = flag.Bool("pprof", false,
			"mount net/http/pprof under /debug/pprof/ (trusted networks only)")
		storeDir = flag.String("store-dir", "",
			"directory for the write-ahead log and checkpoints (empty = memory-only, see DESIGN.md §11)")
		fsyncMode = flag.String("fsync", "always",
			"WAL fsync policy: always (durable before every 201), interval, or off")
		checkpointEvery = flag.Int64("checkpoint-every", 0,
			"WAL appends between automatic checkpoints (0 = default)")
		repair = flag.Bool("repair", false,
			"accept a corrupt log: truncate at the first damaged record, drop everything after, and start from what remains")
		followURL = flag.String("follow", "",
			"run as a WAL-shipped read replica of the csjserve at this URL (requires -store-dir; see DESIGN.md §13)")
		followInterval = flag.Duration("follow-interval", 250*time.Millisecond,
			"leader poll cadence while following")
	)
	flag.Parse()

	if err := validateFlags(serveFlags{
		RequestTimeout:  *reqTimeout,
		CheckpointEvery: *checkpointEvery,
		MaxInFlight:     *maxInFlight,
		FollowURL:       *followURL,
		StoreDir:        *storeDir,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "csjserve: %v\n", err)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "csjserve ", log.LstdFlags)
	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}

	cfg := server.Config{
		MaxInFlight:        *maxInFlight,
		RequestTimeout:     *reqTimeout,
		MaxBodyBytes:       *maxBody,
		PreparedCacheBytes: *preparedCache,
		EnablePprof:        *pprofOn,
	}
	openLog := func() (*durable.Log, error) {
		policy, err := durable.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return nil, err
		}
		dlog, err := durable.Open(*storeDir, durable.Options{
			Fsync:           policy,
			CheckpointEvery: *checkpointEvery,
			Repair:          *repair,
		})
		if err != nil {
			return nil, err
		}
		rs := dlog.Recovery()
		logger.Printf("durable store %s: recovered %d communities (checkpoint %d, %d WAL records replayed, %d truncated, repaired=%v)",
			*storeDir, rs.RecoveredEntries, rs.CheckpointSeq, rs.Records, rs.TruncatedRecords, rs.Repaired)
		return dlog, nil
	}

	// The listener starts on the boot gate so health checks get answers
	// (alive, not ready) while recovery — possibly a long WAL replay —
	// runs. The real surface is swapped in atomically once it exists.
	front := &switchableHandler{}
	front.Set(bootHandler())
	srv := &http.Server{
		Addr:              *addr,
		Handler:           front,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		mode := "serving"
		if *followURL != "" {
			mode = "following " + *followURL
		}
		logger.Printf("listening on %s (%s)", *addr, mode)
		errCh <- srv.ListenAndServe()
	}()

	// closer is whatever owns the durable log at shutdown time; drainer
	// flips /readyz to 503 ahead of the listener close.
	closer := func() error { return nil }
	drainer := func() {}

	if *followURL != "" {
		rep, err := newReplica(*storeDir, *followURL, *followInterval, logger, reqLogger, cfg, openLog, front)
		if err != nil {
			logger.Fatal(err)
		}
		closer = rep.Close
		drainer = rep.BeginDrain
		front.Set(rep.Handler())
	} else {
		if *storeDir != "" {
			dlog, err := openLog()
			if err != nil {
				logger.Fatal(err)
			}
			cfg.Durable = dlog
		}
		handler := server.NewWithConfig(reqLogger, cfg)
		closer = handler.Close
		drainer = handler.BeginDrain
		front.Set(handler)
	}

	select {
	case err := <-errCh:
		// The listener failed before any shutdown was requested
		// (e.g. the port is taken) — that is a startup error, not a drain.
		logger.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills immediately
		drainer()
		logger.Printf("shutdown requested, draining for up to %s", *shutdownGrace)
		drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			// Requests outlived the grace period; Close cancels their
			// contexts so the cancellation-aware joins unwind promptly.
			logger.Printf("graceful drain incomplete (%v), forcing close", err)
			srv.Close()
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
		// Close persistence only after the HTTP server has fully stopped:
		// every in-flight ingest has either been acknowledged (and is in
		// the WAL) or canceled. Closing earlier would race live appends.
		if err := closer(); err != nil {
			logger.Fatal(fmt.Errorf("closing durable store: %w", err))
		}
		logger.Printf("bye")
	}
}

// replica is the follower front: it tails the leader's WAL into the
// local store dir and serves only health/status until promoted.
type replica struct {
	follower *durable.Follower
	logger   *log.Logger
	// cancel stops the tail loop; done closes when it has exited, so
	// promotion can safely open the mirrored log afterwards.
	cancel context.CancelFunc
	done   chan struct{}

	reqLogger *log.Logger
	cfg       server.Config
	openLog   func() (*durable.Log, error)
	front     *switchableHandler

	mu       sync.Mutex
	promoted *server.Server // non-nil once promoted
}

func newReplica(dir, leaderURL string, interval time.Duration, logger, reqLogger *log.Logger,
	cfg server.Config, openLog func() (*durable.Log, error), front *switchableHandler) (*replica, error) {
	logf := func(format string, args ...any) { logger.Printf("follower: "+format, args...) }
	f, err := durable.NewFollower(dir, leaderURL, nil, logf)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rep := &replica{
		follower:  f,
		logger:    logger,
		cancel:    cancel,
		done:      make(chan struct{}),
		reqLogger: reqLogger,
		cfg:       cfg,
		openLog:   openLog,
		front:     front,
	}
	go func() {
		defer close(rep.done)
		f.Run(ctx, interval)
	}()
	return rep, nil
}

// Handler is the pre-promotion surface.
func (rep *replica) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeStatus(w, http.StatusOK, map[string]any{"status": "following", "follower": rep.follower.Status()})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		// A follower never serves reads; readiness stays false so no
		// load balancer routes to it before promotion.
		writeStatus(w, http.StatusServiceUnavailable, map[string]any{"status": "following"})
	})
	mux.HandleFunc("POST /promote", rep.handlePromote)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		writeStatus(w, http.StatusServiceUnavailable, map[string]any{"status": "following"})
	})
	return mux
}

// handlePromote turns the follower into a serving node: stop the tail,
// pull one final sync (best effort — the leader is usually dead by
// now), recover the mirrored log through the ordinary startup path,
// and swap the full server in as the process's handler.
func (rep *replica) handlePromote(w http.ResponseWriter, r *http.Request) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.promoted != nil {
		writeStatus(w, http.StatusOK, map[string]any{"status": "already promoted"})
		return
	}
	rep.cancel()
	<-rep.done
	if err := rep.follower.SyncOnce(r.Context()); err != nil {
		rep.logger.Printf("promote: final sync failed (leader presumed dead): %v", err)
	}
	dlog, err := rep.openLog()
	if err != nil {
		rep.logger.Printf("promote: recovering mirrored store failed: %v", err)
		writeStatus(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	cfg := rep.cfg
	cfg.Durable = dlog
	srv := server.NewWithConfig(rep.reqLogger, cfg)
	rep.promoted = srv
	rep.front.Set(srv)
	rep.logger.Printf("promoted: now serving from mirrored store")
	writeStatus(w, http.StatusOK, map[string]any{"status": "promoted"})
}

// BeginDrain forwards the drain signal to whichever surface is live.
func (rep *replica) BeginDrain() {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.promoted != nil {
		rep.promoted.BeginDrain()
	}
}

// Close stops the follower (if still running) and closes whichever
// store is open.
func (rep *replica) Close() error {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.cancel()
	<-rep.done
	if rep.promoted != nil {
		return rep.promoted.Close()
	}
	return nil
}
