// Package server exposes the CSJ library as a small JSON-over-HTTP
// service: upload communities, compute similarities with any of the six
// methods, rank candidate communities against a pivot, run the
// two-phase top-k workflow, and maintain incremental joins under
// follow/unfollow events. cmd/csjserve wraps it in a binary.
package server

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/durable"
	"github.com/opencsj/csj/internal/store"
)

// Server is the HTTP handler. Create one with New or NewWithConfig; it
// is safe for concurrent use.
type Server struct {
	mux *http.ServeMux
	log *log.Logger
	cfg Config
	// inflight is the admission semaphore of the heavy join endpoints;
	// nil when admission control is disabled.
	inflight chan struct{}
	// metrics is the observability layer (DESIGN.md §9); nil when
	// Config.DisableMetrics is set, which turns every observation into
	// a no-op.
	metrics *serverMetrics
	// store owns the communities (DESIGN.md §10): immutable deep-copied
	// entries, copy-on-write snapshots, and the shared prepared-view
	// cache that makes repeated joins zero-rebuild.
	store *store.Store
	// patterns records every mux pattern registered through handle, so
	// the route-coverage check (`make routecheck`) can prove each one
	// has a route-label entry in the metrics — no silent "other"
	// buckets for new routes.
	patterns []string
	// notReady, while true, makes /readyz answer 503: set during
	// graceful drain (BeginDrain) so load balancers and the cluster
	// coordinator's health probe stop routing here before the listener
	// closes. /healthz stays 200 — the process is alive, just not
	// accepting new work.
	notReady atomic.Bool

	mu       sync.RWMutex // guards joins and nextJoin only
	joins    map[int64]*joinState
	nextJoin int64
}

type joinState struct {
	mu   sync.Mutex
	join *csj.IncrementalJoin
	dim  int
	eps  int32
}

// New builds a server with the default Config. logger may be nil to
// disable request logging.
func New(logger *log.Logger) *Server {
	return NewWithConfig(logger, Config{})
}

// NewWithConfig builds a server with explicit protective limits (see
// Config for the zero/negative conventions).
func NewWithConfig(logger *log.Logger, cfg Config) *Server {
	s := &Server{
		mux:   http.NewServeMux(),
		log:   logger,
		cfg:   cfg.withDefaults(),
		joins: make(map[int64]*joinState),
	}
	if s.cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, s.cfg.MaxInFlight)
	}
	if !s.cfg.DisableMetrics {
		s.metrics = newServerMetrics()
	}
	cacheBytes := s.cfg.PreparedCacheBytes
	if cacheBytes < 0 {
		cacheBytes = 0 // store convention: <= 0 removes the cap
	}
	// The interface values must stay nil when metrics are off; a typed
	// nil *serverMetrics would pass the store's nil checks and panic.
	var obs store.Observer
	if s.metrics != nil {
		obs = s.metrics
	}
	var p store.Persistence
	var seed *store.Seed
	if s.cfg.Durable != nil {
		p = s.cfg.Durable
		seed = s.cfg.Durable.Seed()
		if s.metrics != nil {
			s.cfg.Durable.SetObserver(s.metrics)
		}
	}
	s.store = store.New(store.Config{
		MaxCacheBytes: cacheBytes,
		Observer:      obs,
		Persistence:   p,
		Seed:          seed,
		Logf:          s.logf,
		IndexBuckets:  s.cfg.IndexBuckets,
	})
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /readyz", s.handleReady)
	s.handle("POST /communities", s.handleCreateCommunity)
	s.handle("GET /communities", s.handleListCommunities)
	s.handle("GET /communities/{id}", s.handleGetCommunity)
	s.handle("GET /communities/{id}/profile", s.handleCommunityProfile)
	s.handle("DELETE /communities/{id}", s.handleDeleteCommunity)
	// The four join endpoints run O(n²)-ish scans; they pass through
	// admission control and get a compute deadline.
	s.handle("POST /similarity", s.heavy(s.handleSimilarity))
	s.handle("POST /rank", s.heavy(s.handleRank))
	s.handle("POST /topk", s.heavy(s.handleTopK))
	s.handle("POST /matrix", s.heavy(s.handleMatrix))
	s.handle("POST /joins", s.handleCreateJoin)
	s.handle("GET /joins/{id}", s.handleGetJoin)
	s.handle("POST /joins/{id}/users", s.handleJoinAddUser)
	s.handle("DELETE /joins/{id}/users/{side}/{uid}", s.handleJoinRemoveUser)
	// Shard-local merge endpoints for the cluster coordinator
	// (DESIGN.md §13): explicit-id ingest and inline-pivot queries over
	// this shard's local candidates. Same engines, same store, same
	// admission control as the public endpoints.
	s.handle("POST /internal/communities", s.handleInternalCreate)
	s.handle("POST /internal/rank", s.heavy(s.handleInternalRank))
	s.handle("POST /internal/topk", s.heavy(s.handleInternalTopK))
	s.handle("POST /internal/matrix", s.heavy(s.handleInternalMatrix))
	if s.cfg.Durable != nil {
		// WAL segment shipping (DESIGN.md §13): followers tail these to
		// mirror the leader's log byte-for-byte.
		s.handle("GET /wal/status", s.handleWALStatus)
		s.handle("GET /wal/segments/{id}", s.handleWALSegment)
		s.handle("GET /wal/checkpoint/{id}", s.handleWALCheckpoint)
	}
	if s.metrics != nil {
		s.handle("GET /metrics", s.handleMetrics)
	}
	if s.cfg.EnablePprof {
		s.mountPprof()
	}
	return s
}

// handle registers a route and, when metrics are enabled, wraps the
// handler so the matched route's instrument set is attached to the
// request's response recorder (created in ServeHTTP). The pattern must
// be "METHOD /path".
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.patterns = append(s.patterns, pattern)
	if s.metrics == nil {
		s.mux.HandleFunc(pattern, h)
		return
	}
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		panic("server: route pattern without method: " + pattern)
	}
	rm := s.metrics.route(method, path)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if rec, isRec := w.(*responseRecorder); isRec {
			rec.rm = rm
		}
		h(w, r)
	})
}

// Patterns returns every registered "METHOD /path" pattern — the
// route-coverage check's input (`make routecheck`).
func (s *Server) Patterns() []string { return s.patterns }

// HasRouteMetric reports whether a pattern has a route-label entry in
// the metrics route set. Always false with metrics disabled.
func (s *Server) HasRouteMetric(pattern string) bool {
	if s.metrics == nil {
		return false
	}
	return s.metrics.routes.Has(pattern)
}

// ServeHTTP implements http.Handler: panic recovery and the body-size
// cap wrap every route, so one faulting request can neither kill the
// process nor buffer an unbounded upload. Every response flows through
// a recorder so the completion log line and the per-endpoint metrics
// see the final status — including a 500 written by panic recovery
// (finishRequest is deferred first, so it runs after recoverPanic).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &responseRecorder{ResponseWriter: w}
	defer s.finishRequest(rec, r, time.Now())
	defer s.recoverPanic(rec, r)
	if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxBodyBytes)
	}
	s.mux.ServeHTTP(rec, r)
}

// ---- wire types ----

// CommunityPayload is the JSON form of a community.
type CommunityPayload struct {
	Name     string    `json:"name"`
	Category int       `json:"category"`
	Users    [][]int32 `json:"users"`
}

// CommunityInfo summarizes a stored community.
type CommunityInfo struct {
	ID       int64  `json:"id"`
	Name     string `json:"name"`
	Category int    `json:"category"`
	Size     int    `json:"size"`
	Dim      int    `json:"dim"`
}

// OptionsPayload mirrors csj.Options for requests.
type OptionsPayload struct {
	Epsilon int32 `json:"epsilon"`
	// EpsilonVec is the optional per-dimension tolerance vector
	// (csj.Options.EpsilonVec): entry j is dimension j's epsilon.
	// Entries must be non-negative and the length must match the
	// communities' dimensionality; MinMax methods only. An all-equal
	// vector is equivalent to the scalar epsilon.
	EpsilonVec         []int32 `json:"epsilon_vec,omitempty"`
	Parts              int     `json:"parts,omitempty"`
	EGOThreshold       int     `json:"ego_threshold,omitempty"`
	Matcher            string  `json:"matcher,omitempty"` // "csf" (default) or "hopcroft-karp"
	VerifyInteger      bool    `json:"verify_integer,omitempty"`
	AllowSizeImbalance bool    `json:"allow_size_imbalance,omitempty"`
	Workers            int     `json:"workers,omitempty"`
	P                  float64 `json:"p,omitempty"`
	// Scorer attaches the composite scorer (csj.Options.Scorer): the
	// reported similarity becomes the normalized weighted blend of the
	// CSJ score, the category-overlap signal, and the centroid cosine.
	Scorer *ScorerPayload `json:"scorer,omitempty"`
}

// ScorerPayload mirrors csj.ScorerSpec for requests: the blend weights
// of the composite scorer. Weights must be non-negative and not all
// zero; they are normalized to sum 1 server-side.
type ScorerPayload struct {
	CSJ      float64 `json:"csj"`
	Category float64 `json:"category,omitempty"`
	Cosine   float64 `json:"cosine,omitempty"`
}

// specError marks an options failure that is semantic rather than
// syntactic — a well-formed request asking for an impossible match
// spec (negative epsilon entries, a bad scorer). writeOptionsErr maps
// it to 422, matching the engine-level status of the same condition,
// while parse-level failures (unknown matcher) stay 400.
type specError struct{ err error }

func (e *specError) Error() string { return e.err.Error() }
func (e *specError) Unwrap() error { return e.err }

func (o *OptionsPayload) toOptions() (*csj.Options, error) {
	out := &csj.Options{
		Epsilon:            o.Epsilon,
		EpsilonVec:         o.EpsilonVec,
		Parts:              o.Parts,
		EGOThreshold:       o.EGOThreshold,
		VerifyInteger:      o.VerifyInteger,
		AllowSizeImbalance: o.AllowSizeImbalance,
		Workers:            o.Workers,
		P:                  o.P,
	}
	switch o.Matcher {
	case "", "csf":
	case "hopcroft-karp", "hopcroftkarp", "hk":
		out.Matcher = csj.MatcherHopcroftKarp
	default:
		return nil, fmt.Errorf("unknown matcher %q", o.Matcher)
	}
	// Dimension-independent spec validation happens here so a bad spec
	// fails before any store or view work; the length-vs-dimensionality
	// check needs the communities and is enforced by the engine.
	for i, e := range o.EpsilonVec {
		if e < 0 {
			return nil, &specError{fmt.Errorf("epsilon_vec entry %d is %d; entries must be >= 0", i, e)}
		}
	}
	if o.Scorer != nil {
		out.Scorer = &csj.ScorerSpec{
			CSJWeight:      o.Scorer.CSJ,
			CategoryWeight: o.Scorer.Category,
			CosineWeight:   o.Scorer.Cosine,
		}
		if err := out.Scorer.Validate(); err != nil {
			return nil, &specError{err}
		}
	}
	return out, nil
}

// SimilarityRequest asks for one join.
type SimilarityRequest struct {
	B       int64          `json:"b"`
	A       int64          `json:"a"`
	Method  string         `json:"method"`
	Options OptionsPayload `json:"options"`
	// Orient lets the server order the pair (smaller becomes B).
	Orient bool `json:"orient,omitempty"`
	// IncludePairs returns the matched user pairs (can be large).
	IncludePairs bool `json:"include_pairs,omitempty"`
}

// SimilarityResponse is the result of one join.
type SimilarityResponse struct {
	Method     string     `json:"method"`
	Similarity float64    `json:"similarity"`
	Matched    int        `json:"matched"`
	SizeB      int        `json:"size_b"`
	SizeA      int        `json:"size_a"`
	ElapsedMS  float64    `json:"elapsed_ms"`
	Events     csj.Events `json:"events"`
	Pairs      []csj.Pair `json:"pairs,omitempty"`
	// Blend reports the unweighted score components when the request
	// attached a composite scorer; Similarity is then their weighted
	// blend rather than the plain CSJ score.
	Blend *csj.ScoreBlend `json:"blend,omitempty"`
}

// RankRequest asks for a ranking of candidates against a pivot.
type RankRequest struct {
	Pivot      int64          `json:"pivot"`
	Candidates []int64        `json:"candidates"`
	Method     string         `json:"method"`
	Options    OptionsPayload `json:"options"`
	// AllCandidates ranks every stored community except the pivot
	// (ascending id), so Candidates may be omitted.
	AllCandidates bool `json:"all_candidates,omitempty"`
	// UseIndex consults the envelope index (DESIGN.md §12): a full
	// ranking skips the joins of provably-zero candidates; a
	// min_similarity ranking prunes every candidate whose upper bound
	// cannot reach the threshold. MinMax methods only.
	UseIndex bool `json:"use_index,omitempty"`
	// MinSimilarity, when positive, switches to the threshold ranking
	// (RankAbove): only candidates with similarity >= min_similarity
	// are returned.
	MinSimilarity float64 `json:"min_similarity,omitempty"`
}

// RankEntry is one row of a ranking response.
type RankEntry struct {
	Community  int64   `json:"community"`
	Name       string  `json:"name"`
	Similarity float64 `json:"similarity"`
	Skipped    bool    `json:"skipped,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// TopKRequest asks for the two-phase top-k workflow — or, with
// use_index, the best-first indexed exact engine.
type TopKRequest struct {
	Pivot      int64          `json:"pivot"`
	Candidates []int64        `json:"candidates"`
	K          int            `json:"k"`
	Options    OptionsPayload `json:"options"`
	// AllCandidates targets every stored community except the pivot
	// (ascending id), so Candidates may be omitted.
	AllCandidates bool `json:"all_candidates,omitempty"`
	// UseIndex switches to the envelope-index engine (DESIGN.md §12):
	// candidates are visited best-first by upper bound and pruned
	// against the running kth-best exact similarity, resolving
	// prepared views only for the candidates actually joined. The
	// answer is the true Ex-MinMax top-k; each entry's
	// approx_similarity carries the index upper bound.
	UseIndex bool `json:"use_index,omitempty"`
}

// TopKEntry is one row of a top-k response.
type TopKEntry struct {
	Community int64   `json:"community"`
	Name      string  `json:"name"`
	Approx    float64 `json:"approx_similarity"`
	Exact     float64 `json:"exact_similarity"`
	Refined   bool    `json:"refined"`
	Skipped   bool    `json:"skipped,omitempty"`
}

// MatrixRequest asks for the full pairwise similarity matrix of a set
// of stored communities. The batch engine encodes each community once
// and fans the cells across Options.Workers goroutines (0 selects
// GOMAXPROCS).
type MatrixRequest struct {
	Communities []int64        `json:"communities"`
	Method      string         `json:"method"` // default "exminmax"
	Options     OptionsPayload `json:"options"`
}

// MatrixCell is one unordered pair of a matrix response. I and J are
// community IDs (not request indexes).
type MatrixCell struct {
	I          int64   `json:"i"`
	J          int64   `json:"j"`
	Similarity float64 `json:"similarity"`
	Matched    int     `json:"matched"`
	Skipped    bool    `json:"skipped,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// JoinRequest creates an incremental join.
type JoinRequest struct {
	Dim     int   `json:"dim"`
	Epsilon int32 `json:"epsilon"`
	Parts   int   `json:"parts,omitempty"`
}

// JoinInfo reports an incremental join's state.
type JoinInfo struct {
	ID         int64    `json:"id"`
	Dim        int      `json:"dim"`
	Epsilon    int32    `json:"epsilon"`
	SizeB      int      `json:"size_b"`
	SizeA      int      `json:"size_a"`
	Matched    int      `json:"matched"`
	Similarity *float64 `json:"similarity,omitempty"`
	// SimilarityError explains why Similarity is absent (empty side or
	// violated size precondition).
	SimilarityError string `json:"similarity_error,omitempty"`
}

// JoinUserRequest adds one subscriber to a side of a join.
type JoinUserRequest struct {
	Side   string  `json:"side"` // "B" or "A"
	Vector []int32 `json:"vector"`
}

// JoinUserResponse returns the assigned user ID and fresh join state.
type JoinUserResponse struct {
	UserID int      `json:"user_id"`
	State  JoinInfo `json:"state"`
}

// ---- handlers ----

// HealthResponse is the GET /healthz body: liveness plus the
// durability state of the community store, so operators (and the
// crashguard harness) can see at a glance whether writes survive a
// crash and what recovery did at the last start.
type HealthResponse struct {
	Status     string         `json:"status"`
	Durability durable.Status `json:"durability"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Status: "ok"}
	if s.cfg.Durable != nil {
		resp.Durability = s.cfg.Durable.Status()
		if resp.Durability.Poisoned {
			// Still 200 — the process is alive and serving reads; the
			// degradation itself is /readyz's job (and the poisoned/
			// poison_cause fields below carry the detail).
			resp.Status = "degraded"
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// Close flushes and closes the store's persistence layer. Call it only
// after the HTTP server has fully stopped (drained or force-closed):
// an acknowledged Put is durable the moment it was acknowledged, and
// closing after the drain guarantees no handler is mid-append.
func (s *Server) Close() error {
	return s.store.Close()
}

func (s *Server) handleCreateCommunity(w http.ResponseWriter, r *http.Request) {
	var p CommunityPayload
	if !s.decode(w, r, &p) {
		return
	}
	// Validate (inside communityFromPayload) rejects empty communities,
	// ragged dimensionalities, and negative counters, each with a
	// message naming the offending user.
	c, err := communityFromPayload(&p)
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	// The store deep-copies on ingest, so the decoder's slices (and any
	// caller still holding them) can never mutate the stored community.
	// With durability on, Create returns only after the mutation is in
	// the WAL — the 201 below is the durability acknowledgement.
	e, err := s.store.Create(c)
	if err != nil {
		s.writeMutationErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, info(e))
}

func info(e *store.Entry) CommunityInfo {
	c := e.Comm
	return CommunityInfo{ID: e.ID, Name: c.Name, Category: c.Category, Size: c.Size(), Dim: c.Dim()}
}

func (s *Server) handleListCommunities(w http.ResponseWriter, _ *http.Request) {
	entries := s.store.Snapshot().List() // ascending id: deterministic for clients
	out := make([]CommunityInfo, len(entries))
	for i, e := range entries {
		out[i] = info(e)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// errMalformedID marks an {id} path value that failed to parse. The
// handlers map it to 400: the request is syntactically wrong, unlike a
// well-formed id that is merely absent (404).
var errMalformedID = errors.New("malformed id in path")

// pathID parses the {id} path value, wrapping parse failures in
// errMalformedID so writeLookupErr can distinguish them from misses.
func pathID(r *http.Request, what string) (int64, error) {
	raw := r.PathValue("id")
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s id %q: %w", what, raw, errMalformedID)
	}
	return id, nil
}

// writeLookupErr maps a path-resolution failure: 400 for a malformed
// id, 404 for a genuinely missing resource.
func (s *Server) writeLookupErr(w http.ResponseWriter, err error) {
	if errors.Is(err, errMalformedID) {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.writeErr(w, http.StatusNotFound, err)
}

func (s *Server) community(r *http.Request) (*store.Entry, error) {
	id, err := pathID(r, "community")
	if err != nil {
		return nil, err
	}
	e, ok := s.store.Snapshot().Get(id)
	if !ok {
		return nil, fmt.Errorf("no community %d", id)
	}
	return e, nil
}

func (s *Server) handleGetCommunity(w http.ResponseWriter, r *http.Request) {
	e, err := s.community(r)
	if err != nil {
		s.writeLookupErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, info(e))
}

func (s *Server) handleDeleteCommunity(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r, "community")
	if err != nil {
		s.writeLookupErr(w, err)
		return
	}
	// Delete atomically checks existence, publishes the new snapshot,
	// and invalidates the community's cached views; in-flight joins keep
	// their pre-delete snapshots and finish consistently.
	ok, err := s.store.Delete(id)
	if err != nil {
		s.writeMutationErr(w, err)
		return
	}
	if !ok {
		s.writeLookupErr(w, fmt.Errorf("no community %d", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// lookup resolves a community in the snapshot the request joins
// against, so every id of one request sees the same store state.
func lookup(snap *store.Snapshot, id int64) (*store.Entry, error) {
	e, ok := snap.Get(id)
	if !ok {
		return nil, fmt.Errorf("no community %d", id)
	}
	return e, nil
}

// minMaxMethod reports whether the method runs on prepared MinMax
// views — the methods the store's view cache serves.
func minMaxMethod(m csj.Method) bool {
	return m == csj.ApMinMax || m == csj.ExMinMax
}

// preparedViews resolves one cached view per candidate, building (or
// joining an in-flight build of) any that are missing.
func preparedViews(src csj.CandidateSource) ([]*csj.PreparedCommunity, error) {
	out := make([]*csj.PreparedCommunity, src.Len())
	for i := range out {
		pc, err := src.View(i)
		if err != nil {
			return nil, err
		}
		out[i] = pc
	}
	return out, nil
}

// candidateEntries resolves an explicit candidate list against the
// snapshot; every id must name a stored community.
func candidateEntries(snap *store.Snapshot, ids []int64) ([]*store.Entry, error) {
	out := make([]*store.Entry, len(ids))
	for i, id := range ids {
		e, err := lookup(snap, id)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// candidateIndex builds the candidate-aligned Index that Options.Index
// expects, from the store's entry summaries.
func candidateIndex(cands store.Candidates) (*csj.Index, error) {
	sums := make([]*csj.CommunitySummary, cands.Len())
	for i := range sums {
		sum, err := cands.Summary(i)
		if err != nil {
			return nil, err
		}
		sums[i] = sum
	}
	return csj.NewIndex(sums)
}

// candidateComms returns the candidates' raw communities, for the
// methods that run without prepared views.
func candidateComms(cands store.Candidates) []*csj.Community {
	out := make([]*csj.Community, cands.Len())
	for i := range out {
		out[i] = cands.Entry(i).Comm
	}
	return out
}

// requestCandidates resolves the candidates of a /rank or /topk
// request: every stored community but the pivot with all_candidates,
// else the explicit list. It writes the error response and reports
// false when the request cannot proceed.
func (s *Server) requestCandidates(w http.ResponseWriter, snap *store.Snapshot, pivot int64, ids []int64, all bool) (store.Candidates, bool) {
	if all {
		if len(ids) > 0 {
			s.writeErr(w, http.StatusBadRequest,
				errors.New("all_candidates excludes an explicit candidate list"))
			return store.Candidates{}, false
		}
		return snap.Candidates(pivot), true
	}
	entries, err := candidateEntries(snap, ids)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return store.Candidates{}, false
	}
	return snap.CandidatesOf(entries), true
}

func (s *Server) handleSimilarity(w http.ResponseWriter, r *http.Request) {
	var req SimilarityRequest
	if !s.decode(w, r, &req) {
		return
	}
	snap := s.store.Snapshot()
	b, err := lookup(snap, req.B)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	a, err := lookup(snap, req.A)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	method, err := csj.ParseMethod(req.Method)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	opts, err := req.Options.toOptions()
	if err != nil {
		s.writeOptionsErr(w, err)
		return
	}
	if req.Orient && b.Comm.Size() > a.Comm.Size() {
		b, a = a, b // smaller community becomes B; ties keep input order
	}
	var res *csj.Result
	if minMaxMethod(method) {
		// MinMax joins run on cached prepared views: after warmup,
		// repeated requests over stored communities re-encode nothing.
		views, verr := preparedViews(snap.CandidatesOf([]*store.Entry{b, a}).Source(opts.Spec()))
		if verr != nil {
			s.writeJoinErr(w, r, verr)
			return
		}
		res, err = csj.SimilarityPreparedCtx(r.Context(), views[0], views[1], method, s.instrumentOptions(opts))
	} else {
		res, err = csj.SimilarityCtx(r.Context(), b.Comm, a.Comm, method, s.instrumentOptions(opts))
	}
	if err != nil {
		s.writeJoinErr(w, r, err)
		return
	}
	resp := SimilarityResponse{
		Method:     res.Method.String(),
		Similarity: res.Similarity,
		Matched:    len(res.Pairs),
		SizeB:      res.SizeB,
		SizeA:      res.SizeA,
		ElapsedMS:  float64(res.Elapsed.Microseconds()) / 1000,
		Events:     res.Events,
		Blend:      res.Blend,
	}
	if req.IncludePairs {
		resp.Pairs = res.Pairs
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req RankRequest
	if !s.decode(w, r, &req) {
		return
	}
	snap := s.store.Snapshot()
	pivot, err := lookup(snap, req.Pivot)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	cands, ok := s.requestCandidates(w, snap, req.Pivot, req.Candidates, req.AllCandidates)
	if !ok {
		return
	}
	method, err := csj.ParseMethod(req.Method)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.MinSimilarity < 0 {
		s.writeErr(w, http.StatusBadRequest, errors.New("min_similarity must be >= 0"))
		return
	}
	if (req.UseIndex || req.MinSimilarity > 0) && !minMaxMethod(method) {
		s.writeErr(w, http.StatusBadRequest,
			fmt.Errorf("use_index and min_similarity require a MinMax method, got %q", req.Method))
		return
	}
	opts, err := req.Options.toOptions()
	if err != nil {
		s.writeOptionsErr(w, err)
		return
	}
	src := cands.Source(opts.Spec())
	var ranked []csj.Ranked
	switch {
	case req.MinSimilarity > 0 && req.UseIndex:
		// Threshold ranking over the envelope index: candidates whose
		// upper bound cannot reach min_similarity are pruned without
		// resolving their prepared views.
		pv, verr := snap.PreparedSpec(pivot.ID, opts.Spec())
		if verr != nil {
			s.writeJoinErr(w, r, verr)
			return
		}
		ranked, err = csj.RankAboveIndexedFrom(r.Context(), pv, src, method, req.MinSimilarity, s.instrumentOptions(opts))
	case req.MinSimilarity > 0:
		pv, verr := snap.PreparedSpec(pivot.ID, opts.Spec())
		var views []*csj.PreparedCommunity
		if verr == nil {
			views, verr = preparedViews(src)
		}
		if verr != nil {
			s.writeJoinErr(w, r, verr)
			return
		}
		ranked, err = csj.RankAbovePreparedCtx(r.Context(), pv, views, method, req.MinSimilarity, s.instrumentOptions(opts))
	case minMaxMethod(method):
		pv, verr := snap.PreparedSpec(pivot.ID, opts.Spec())
		var views []*csj.PreparedCommunity
		if verr == nil {
			views, verr = preparedViews(src)
		}
		if verr != nil {
			s.writeJoinErr(w, r, verr)
			return
		}
		if req.UseIndex {
			// Full ranking must score every candidate, but provably-zero
			// candidates skip their joins (DESIGN.md §12).
			ix, ierr := candidateIndex(cands)
			if ierr != nil {
				s.writeJoinErr(w, r, ierr)
				return
			}
			opts.Index = ix
		}
		ranked, err = csj.RankPreparedCtx(r.Context(), pv, views, method, s.instrumentOptions(opts))
	default:
		ranked, err = csj.RankCtx(r.Context(), pivot.Comm, candidateComms(cands), method, s.instrumentOptions(opts))
	}
	if err != nil {
		s.writeJoinErr(w, r, err)
		return
	}
	out := make([]RankEntry, len(ranked))
	for i, e := range ranked {
		out[i] = RankEntry{Community: cands.Entry(e.Index).ID, Name: e.Name, Skipped: e.Skipped}
		if e.Result != nil {
			out[i].Similarity = e.Result.Similarity
		}
		if e.Err != nil {
			out[i].Error = e.Err.Error()
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req TopKRequest
	if !s.decode(w, r, &req) {
		return
	}
	snap := s.store.Snapshot()
	pivot, err := lookup(snap, req.Pivot)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	cands, ok := s.requestCandidates(w, snap, req.Pivot, req.Candidates, req.AllCandidates)
	if !ok {
		return
	}
	opts, err := req.Options.toOptions()
	if err != nil {
		s.writeOptionsErr(w, err)
		return
	}
	// Both top-k phases are MinMax joins, so the whole workflow runs on
	// cached views. The indexed engine resolves views lazily: only the
	// candidates it actually joins get encoded.
	pv, err := snap.PreparedSpec(pivot.ID, opts.Spec())
	if err != nil {
		s.writeJoinErr(w, r, err)
		return
	}
	src := cands.Source(opts.Spec())
	var top []csj.TopKResult
	if req.UseIndex {
		top, err = csj.TopKIndexedFrom(r.Context(), pv, src, req.K, s.instrumentOptions(opts))
	} else {
		views, verr := preparedViews(src)
		if verr != nil {
			s.writeJoinErr(w, r, verr)
			return
		}
		top, err = csj.TopKPreparedCtx(r.Context(), pv, views, req.K, s.instrumentOptions(opts))
	}
	if err != nil {
		s.writeJoinErr(w, r, err)
		return
	}
	out := make([]TopKEntry, len(top))
	for i, e := range top {
		out[i] = TopKEntry{
			Community: cands.Entry(e.Index).ID,
			Name:      e.Name,
			Approx:    e.ApproxSimilarity,
			Skipped:   e.Skipped,
		}
		if e.Result != nil {
			out[i].Exact = e.Result.Similarity
			out[i].Refined = true
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Communities) < 2 {
		s.writeErr(w, http.StatusUnprocessableEntity,
			fmt.Errorf("matrix needs at least 2 communities, got %d", len(req.Communities)))
		return
	}
	snap := s.store.Snapshot()
	comms, err := candidateEntries(snap, req.Communities)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	if req.Method == "" {
		req.Method = "exminmax"
	}
	method, err := csj.ParseMethod(req.Method)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	opts, err := req.Options.toOptions()
	if err != nil {
		s.writeOptionsErr(w, err)
		return
	}
	// The matrix is MinMax-only; the cells run straight on cached views,
	// so a warmed-up matrix performs zero core.Prepare calls.
	views, err := preparedViews(snap.CandidatesOf(comms).Source(opts.Spec()))
	if err != nil {
		s.writeJoinErr(w, r, err)
		return
	}
	entries, err := csj.SimilarityMatrixPreparedCtx(r.Context(), views, method, s.instrumentOptions(opts))
	if err != nil {
		s.writeJoinErr(w, r, err)
		return
	}
	out := make([]MatrixCell, len(entries))
	for i, e := range entries {
		out[i] = MatrixCell{
			I:       req.Communities[e.I],
			J:       req.Communities[e.J],
			Skipped: e.Skipped,
		}
		if e.Result != nil {
			out[i].Similarity = e.Result.Similarity
			out[i].Matched = len(e.Result.Pairs)
			out[i].ElapsedMS = float64(e.Result.Elapsed.Microseconds()) / 1000
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreateJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !s.decode(w, r, &req) {
		return
	}
	j, err := csj.NewIncrementalJoin(req.Dim, &csj.Options{Epsilon: req.Epsilon, Parts: req.Parts})
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.mu.Lock()
	s.nextJoin++
	id := s.nextJoin
	st := &joinState{join: j, dim: req.Dim, eps: req.Epsilon}
	s.joins[id] = st
	s.mu.Unlock()
	s.writeJSON(w, http.StatusCreated, joinInfo(id, st))
}

func (s *Server) joinState(r *http.Request) (int64, *joinState, error) {
	id, err := pathID(r, "join")
	if err != nil {
		return 0, nil, err
	}
	s.mu.RLock()
	st := s.joins[id]
	s.mu.RUnlock()
	if st == nil {
		return id, nil, fmt.Errorf("no join %d", id)
	}
	return id, st, nil
}

func joinInfo(id int64, st *joinState) JoinInfo {
	info := JoinInfo{
		ID: id, Dim: st.dim, Epsilon: st.eps,
		SizeB: st.join.SizeB(), SizeA: st.join.SizeA(),
		Matched: st.join.Matched(),
	}
	if sim, err := st.join.Similarity(); err == nil {
		info.Similarity = &sim
	} else {
		info.SimilarityError = err.Error()
	}
	return info
}

func (s *Server) handleGetJoin(w http.ResponseWriter, r *http.Request) {
	id, st, err := s.joinState(r)
	if err != nil {
		s.writeLookupErr(w, err)
		return
	}
	st.mu.Lock()
	info := joinInfo(id, st)
	st.mu.Unlock()
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleJoinAddUser(w http.ResponseWriter, r *http.Request) {
	id, st, err := s.joinState(r)
	if err != nil {
		s.writeLookupErr(w, err)
		return
	}
	var req JoinUserRequest
	if !s.decode(w, r, &req) {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var uid int
	switch req.Side {
	case "B", "b":
		uid, err = st.join.AddB(req.Vector)
	case "A", "a":
		uid, err = st.join.AddA(req.Vector)
	default:
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("side must be B or A, got %q", req.Side))
		return
	}
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, JoinUserResponse{UserID: uid, State: joinInfo(id, st)})
}

func (s *Server) handleJoinRemoveUser(w http.ResponseWriter, r *http.Request) {
	id, st, err := s.joinState(r)
	if err != nil {
		s.writeLookupErr(w, err)
		return
	}
	uid, err := strconv.Atoi(r.PathValue("uid"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad user id: %w", err))
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	switch r.PathValue("side") {
	case "B", "b":
		err = st.join.RemoveB(uid)
	case "A", "a":
		err = st.join.RemoveA(uid)
	default:
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("side must be B or A"))
		return
	}
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, joinInfo(id, st))
}
