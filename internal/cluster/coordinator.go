package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/opencsj/csj/internal/server"
)

// ShardSpec names one shard: its primary csjserve URL and, optionally,
// a WAL-shipped replica (csjserve -follow) the coordinator promotes
// when the primary stays dead past PromoteAfter.
type ShardSpec struct {
	Name    string
	URL     string
	Replica string
}

// Config parameterizes a Coordinator. Zero values select the defaults
// below; a negative Retries disables retries.
type Config struct {
	Shards []ShardSpec
	// RequestTimeout bounds one shard request attempt.
	RequestTimeout time.Duration
	// Retries is how many extra attempts an idempotent read gets after
	// the first (writes never retry). 0 selects DefaultRetries;
	// negative disables retries.
	Retries int
	// RetryBackoff is the base backoff; attempt i waits
	// backoff*2^(i-1) plus full jitter.
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// shard's breaker closed → open.
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay.
	BreakerCooldown time.Duration
	// ProbeInterval is the health-probe cadence.
	ProbeInterval time.Duration
	// PromoteAfter is how long a shard with a replica must stay
	// probe-dead before the coordinator promotes the replica.
	PromoteAfter time.Duration
}

const (
	DefaultRequestTimeout   = 15 * time.Second
	DefaultRetries          = 2
	DefaultRetryBackoff     = 50 * time.Millisecond
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 2 * time.Second
	DefaultProbeInterval    = 500 * time.Millisecond
	DefaultPromoteAfter     = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	switch {
	case c.Retries == 0:
		c.Retries = DefaultRetries
	case c.Retries < 0:
		c.Retries = 0
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.PromoteAfter == 0 {
		c.PromoteAfter = DefaultPromoteAfter
	}
	return c
}

// shard is one scatter target's runtime state.
type shard struct {
	name    string
	primary string
	replica string
	// active is the URL currently serving this shard's arc: the
	// primary until promotion flips it to the replica.
	active   atomic.Pointer[string]
	promoted atomic.Bool
	breaker  *Breaker
	client   *shardClient
	// downSince is the unix-nano timestamp of the first probe failure
	// of the current outage; 0 while healthy. Drives PromoteAfter.
	downSince atomic.Int64
}

func (s *shard) activeURL() string { return *s.active.Load() }

// Coordinator is the cluster front door: an http.Handler that owns the
// hash ring, the per-shard breakers, health probing, and replica
// promotion. Create one with New; Serve traffic via ServeHTTP; start
// probing with Start. Its Surface is the HTTP plumbing a node uses too:
// route metrics, panic recovery, the completion log line, /metrics.
type Coordinator struct {
	*server.Surface
	cfg      Config
	metrics  *clusterMetrics
	ring     *Ring
	shards   []*shard
	notReady atomic.Bool

	// nextID is the cluster-wide community id allocator; 0 means "not
	// yet initialized from the shards' current max".
	nextID atomic.Int64
	idInit sync.Mutex

	httpc *http.Client
}

// New builds a coordinator over the given shards. logger may be nil.
func New(logger *log.Logger, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one shard")
	}
	names := make([]string, len(cfg.Shards))
	for i, s := range cfg.Shards {
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("cluster: shard %d needs a name and a URL", i)
		}
		names[i] = s.Name
	}
	ring, err := NewRing(names)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		// No body cap: the shards enforce their own.
		Surface: server.NewSurface(logger, 0),
		cfg:     cfg,
		ring:    ring,
		httpc:   &http.Client{},
	}
	c.metrics = newClusterMetrics(c.Registry(), names)
	c.shards = make([]*shard, len(cfg.Shards))
	for i, spec := range cfg.Shards {
		sh := &shard{name: spec.Name, primary: spec.URL, replica: spec.Replica}
		url := spec.URL
		sh.active.Store(&url)
		name := spec.Name
		sh.breaker = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil,
			func(from, to BreakerState) { c.metrics.observeState(name, from, to) })
		sh.client = &shardClient{
			shard:   sh,
			http:    c.httpc,
			timeout: cfg.RequestTimeout,
			retries: cfg.Retries,
			backoff: cfg.RetryBackoff,
			metrics: c.metrics,
			rng:     rand.New(rand.NewSource(int64(i) + 1)),
		}
		c.shards[i] = sh
	}

	c.Handle("GET /healthz", c.handleHealth)
	c.Handle("GET /readyz", c.handleReady)
	c.Handle("GET /cluster/status", c.handleStatus)
	c.Handle("POST /communities", c.handleCreate)
	c.Handle("GET /communities", c.handleList)
	c.Handle("GET /communities/{id}", c.handleGet)
	c.Handle("DELETE /communities/{id}", c.handleDelete)
	c.Handle("POST /rank", c.handleRank)
	c.Handle("POST /topk", c.handleTopK)
	c.Handle("POST /matrix", c.handleMatrix)
	return c, nil
}

// BeginDrain flips /readyz to 503 ahead of shutdown.
func (c *Coordinator) BeginDrain() { c.notReady.Store(true) }

// ---- envelope ----

// Envelope is the coordinator's query-response wrapper: the partial-
// result contract (DESIGN.md §13). A fully answered query has
// Partial=false and an empty Unreachable list; a degraded one flags
// Partial and names the shards whose results are missing. Clients that
// cannot use a partial answer set require_complete=1 and get 503
// instead.
type Envelope struct {
	Partial     bool     `json:"partial"`
	Unreachable []string `json:"unreachable_shards,omitempty"`
	Result      any      `json:"result"`
}

// requireComplete reads the require_complete query flag.
func requireComplete(r *http.Request) bool {
	return r.URL.Query().Get("require_complete") == "1"
}

// writeGathered finishes a scatter-gather response: full answers go
// out plain, partial ones get flagged (or rejected under
// require_complete).
func (c *Coordinator) writeGathered(w http.ResponseWriter, r *http.Request, result any, unreachable []string) {
	env := Envelope{Result: result}
	if len(unreachable) > 0 {
		env.Partial = true
		env.Unreachable = unreachable
		if requireComplete(r) {
			c.metrics.observeIncomplete()
			c.WriteErr(w, http.StatusServiceUnavailable,
				fmt.Errorf("shards unreachable with require_complete set: %v", unreachable))
			return
		}
		c.metrics.observePartial()
	}
	c.WriteJSON(w, http.StatusOK, env)
}

// ---- scatter ----

// scatterResult is one leg of a fan-out.
type scatterResult[T any] struct {
	shard *shard
	val   T
	err   error
}

// scatter fans fn across the given shards concurrently and collects
// every leg. fn runs on its own goroutine per shard; results come back
// in shard order.
func scatter[T any](ctx context.Context, shards []*shard, fn func(ctx context.Context, sh *shard) (T, error)) []scatterResult[T] {
	out := make([]scatterResult[T], len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		i, sh := i, sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := fn(ctx, sh)
			out[i] = scatterResult[T]{shard: sh, val: v, err: err}
		}()
	}
	wg.Wait()
	return out
}

// gatherErrors splits scatter legs into unreachable shard names and a
// terminal client error (a 4xx any shard returned — the request itself
// is bad, so the whole query fails with it).
func gatherErrors[T any](results []scatterResult[T]) (unreachable []string, terminal error) {
	for _, res := range results {
		if res.err == nil {
			continue
		}
		var he *httpError
		if errors.As(res.err, &he) && he.status < 500 {
			if terminal == nil {
				terminal = res.err
			}
			continue
		}
		unreachable = append(unreachable, res.shard.name)
	}
	return unreachable, terminal
}

// forwardErr maps a shard request error onto the client response. A
// shard's own error answer passes through with its status: a JSON body
// verbatim, so the client reads what a node answers, any other body as
// the message of an error body. An unreachable shard becomes 503.
func (c *Coordinator) forwardErr(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case !errors.As(err, &he):
		c.WriteErr(w, http.StatusServiceUnavailable, err)
	case !json.Valid([]byte(he.body)):
		c.WriteErr(w, he.status, errors.New(he.body))
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(he.status)
		io.WriteString(w, he.body+"\n")
	}
}

// ---- id allocation and routing ----

// ensureNextID lazily initializes the id allocator from the shards'
// current max id. First write after boot pays one full scatter; every
// shard must answer, because a missed shard could hold the true max.
func (c *Coordinator) ensureNextID(ctx context.Context) error {
	if c.nextID.Load() != 0 {
		return nil
	}
	c.idInit.Lock()
	defer c.idInit.Unlock()
	if c.nextID.Load() != 0 {
		return nil
	}
	results := scatter(ctx, c.shards, func(ctx context.Context, sh *shard) ([]server.CommunityInfo, error) {
		var list []server.CommunityInfo
		err := sh.client.getJSON(ctx, "/communities", &list)
		return list, err
	})
	var max int64
	for _, res := range results {
		if res.err != nil {
			return fmt.Errorf("cluster: initializing id allocator: %w", res.err)
		}
		for _, info := range res.val {
			if info.ID > max {
				max = info.ID
			}
		}
	}
	c.nextID.Store(max)
	return nil
}

// owner returns the shard owning community id.
func (c *Coordinator) owner(id int64) *shard {
	return c.shards[c.ring.Owner(id)]
}

// fetchProfile pulls a community's full profile from its owner shard
// (retried; profiles are immutable once stored).
func (c *Coordinator) fetchProfile(ctx context.Context, id int64) (*server.CommunityPayload, error) {
	var p server.CommunityPayload
	sh := c.owner(id)
	if err := sh.client.getJSON(ctx, fmt.Sprintf("/communities/%d/profile", id), &p); err != nil {
		return nil, err
	}
	return &p, nil
}
