// Command csjcoord runs the cluster coordinator: the front door of a
// sharded CSJ deployment (DESIGN.md §13). It consistent-hashes
// community ids across the configured csjserve shards, scatter-gathers
// /rank, /topk and /matrix (merging shard-local answers so responses
// are identical to a single node holding the whole corpus), degrades
// gracefully when shards die (partial-result envelopes, or 503 under
// require_complete=1), and promotes WAL-shipped replicas after leader
// failure.
//
// Usage:
//
//	csjcoord -shard alpha=http://10.0.0.1:8080,http://10.0.1.1:8080 \
//	         -shard beta=http://10.0.0.2:8080 \
//	         -addr :9090
//
// Each -shard flag is name=primaryURL[,replicaURL]. Shard names are
// the hash-ring identity: renaming a shard remaps ownership, so keep
// names stable across restarts.
//
// Endpoints:
//
//	GET    /healthz            liveness
//	GET    /readyz             readiness (503 while draining)
//	GET    /cluster/status     per-shard breaker state, promotion, resource counters
//	GET    /metrics            Prometheus exposition (csj_cluster_* + per-route HTTP)
//	POST   /communities        routed to the owner shard (cluster-wide id allocation)
//	GET    /communities        scatter-gather merge
//	GET    /communities/{id}   routed to the owner shard
//	DELETE /communities/{id}   routed to the owner shard
//	POST   /rank /topk /matrix scatter-gather with shard-side merging
//
// A shard's own error answer reaches the client with the shard's status
// and, when it is JSON, its body verbatim, so a failed query reads as it
// would from a single node. The coordinator serves through the same
// HTTP surface as a node (internal/server.Surface): per-route metrics,
// panic recovery and the completion log line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/opencsj/csj/internal/cluster"
)

// shardFlags collects repeated -shard specs.
type shardFlags []cluster.ShardSpec

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, sp := range *s {
		parts[i] = sp.Name + "=" + sp.URL
		if sp.Replica != "" {
			parts[i] += "," + sp.Replica
		}
	}
	return strings.Join(parts, " ")
}

func (s *shardFlags) Set(v string) error {
	name, urls, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("shard spec %q: want name=primaryURL[,replicaURL]", v)
	}
	primary, replica, _ := strings.Cut(urls, ",")
	if primary == "" {
		return fmt.Errorf("shard spec %q: missing primary URL", v)
	}
	*s = append(*s, cluster.ShardSpec{
		Name:    name,
		URL:     strings.TrimSuffix(primary, "/"),
		Replica: strings.TrimSuffix(replica, "/"),
	})
	return nil
}

func main() {
	var shards shardFlags
	flag.Var(&shards, "shard", "shard spec name=primaryURL[,replicaURL] (repeatable)")
	var (
		addr       = flag.String("addr", ":9090", "listen address")
		quiet      = flag.Bool("q", false, "suppress request logging")
		reqTimeout = flag.Duration("request-timeout", cluster.DefaultRequestTimeout,
			"per-shard request attempt budget")
		retries = flag.Int("retries", cluster.DefaultRetries,
			"extra attempts per idempotent read after the first; 0 disables retries (writes never retry)")
		retryBackoff = flag.Duration("retry-backoff", cluster.DefaultRetryBackoff,
			"base retry backoff (doubles per attempt, plus full jitter)")
		breakerThreshold = flag.Int("breaker-threshold", cluster.DefaultBreakerThreshold,
			"consecutive failures that open a shard's circuit breaker")
		breakerCooldown = flag.Duration("breaker-cooldown", cluster.DefaultBreakerCooldown,
			"how long an open breaker waits before letting a trial request through")
		probeInterval = flag.Duration("probe-interval", cluster.DefaultProbeInterval,
			"health-probe cadence per shard")
		promoteAfter = flag.Duration("promote-after", cluster.DefaultPromoteAfter,
			"how long a shard with a replica must stay probe-dead before its replica is promoted")
		shutdownGrace = flag.Duration("shutdown-grace", 15*time.Second,
			"how long to let in-flight requests drain on SIGINT/SIGTERM")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "csjcoord ", log.LstdFlags)
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "csjcoord: at least one -shard name=url is required")
		os.Exit(2)
	}

	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}
	if *retries == 0 {
		*retries = -1 // the flag counts retries; Config reads 0 as the default
	}
	coord, err := cluster.New(reqLogger, cluster.Config{
		Shards:           shards,
		RequestTimeout:   *reqTimeout,
		Retries:          *retries,
		RetryBackoff:     *retryBackoff,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		ProbeInterval:    *probeInterval,
		PromoteAfter:     *promoteAfter,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "csjcoord: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	coord.Start(ctx) // health probes + replica promotion

	srv := &http.Server{
		Addr:              *addr,
		Handler:           coord,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("coordinating %d shard(s) on %s", len(shards), *addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		logger.Fatal(err)
	case <-ctx.Done():
		stop()
		coord.BeginDrain()
		logger.Printf("shutdown requested, draining for up to %s", *shutdownGrace)
		drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			logger.Printf("graceful drain incomplete (%v), forcing close", err)
			srv.Close()
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
		logger.Printf("bye")
	}
}
