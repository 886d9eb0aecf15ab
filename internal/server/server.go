// Package server exposes the CSJ library as a small JSON-over-HTTP
// service: upload communities, compute similarities with any of the six
// methods, rank candidate communities against a pivot, find the exact
// top-k, and maintain incremental joins under follow/unfollow events.
// cmd/csjserve wraps it in a binary.
package server

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/durable"
	"github.com/opencsj/csj/internal/store"
)

// Server is the HTTP handler. Create one with New or NewWithConfig; it
// is safe for concurrent use. Its Surface carries the HTTP plumbing it
// shares with the cluster coordinator: routes, metrics, panic recovery,
// logging, and the body cap.
type Server struct {
	*Surface
	cfg Config
	// inflight is the admission semaphore of the heavy join endpoints;
	// nil when admission control is disabled.
	inflight chan struct{}
	// metrics is the node's observability layer (DESIGN.md §9),
	// registered in the Surface's registry.
	metrics *serverMetrics
	// store owns the communities (DESIGN.md §10): immutable deep-copied
	// entries, copy-on-write snapshots, and the shared prepared-view
	// cache that makes repeated joins zero-rebuild.
	store *store.Store
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
	cfg = cfg.withDefaults()
	s := &Server{
		Surface: NewSurface(logger, cfg.MaxBodyBytes),
		cfg:     cfg,
		joins:   make(map[int64]*joinState),
	}
	s.metrics = newServerMetrics(s.Registry())
	if s.cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, s.cfg.MaxInFlight)
	}
	cacheBytes := s.cfg.PreparedCacheBytes
	if cacheBytes < 0 {
		cacheBytes = 0 // store convention: <= 0 removes the cap
	}
	var p store.Persistence
	var seed *store.Seed
	if s.cfg.Durable != nil {
		p = s.cfg.Durable
		seed = s.cfg.Durable.Seed()
		s.cfg.Durable.SetObserver(s.metrics)
	}
	s.store = store.New(store.Config{
		MaxCacheBytes: cacheBytes,
		Observer:      s.metrics,
		Persistence:   p,
		Seed:          seed,
		Logf:          s.Logf,
	})
	s.Handle("GET /healthz", s.handleHealth)
	s.Handle("GET /readyz", s.handleReady)
	s.Handle("POST /communities", s.handleCreateCommunity)
	s.Handle("GET /communities", s.handleListCommunities)
	s.Handle("GET /communities/{id}", s.handleGetCommunity)
	s.Handle("GET /communities/{id}/profile", s.handleCommunityProfile)
	s.Handle("DELETE /communities/{id}", s.handleDeleteCommunity)
	// The four join endpoints run O(n²)-ish scans; they pass through
	// admission control and get a compute deadline.
	s.Handle("POST /similarity", s.heavy(s.handleSimilarity))
	s.Handle("POST /rank", s.heavy(s.handleRank))
	s.Handle("POST /topk", s.heavy(s.handleTopK))
	s.Handle("POST /matrix", s.heavy(s.handleMatrix))
	s.Handle("POST /joins", s.handleCreateJoin)
	s.Handle("GET /joins/{id}", s.handleGetJoin)
	s.Handle("POST /joins/{id}/users", s.handleJoinAddUser)
	s.Handle("DELETE /joins/{id}/users/{side}/{uid}", s.handleJoinRemoveUser)
	// Shard-local endpoints for the cluster coordinator (DESIGN.md §13):
	// explicit-id ingest and inline-pivot queries over this shard's
	// local candidates. /internal/rank, /internal/topk and
	// /internal/matrix run the very functions behind /rank, /topk and
	// /matrix.
	s.Handle("POST /internal/communities", s.handleInternalCreate)
	s.Handle("POST /internal/rank", s.heavy(s.handleInternalRank))
	s.Handle("POST /internal/topk", s.heavy(s.handleInternalTopK))
	s.Handle("POST /internal/matrix", s.heavy(s.handleInternalMatrix))
	if s.cfg.Durable != nil {
		// WAL segment shipping (DESIGN.md §13): followers tail these to
		// mirror the leader's log byte-for-byte.
		s.Handle("GET /wal/status", s.handleWALStatus)
		s.Handle("GET /wal/segments/{id}", s.handleWALSegment)
		s.Handle("GET /wal/checkpoint/{id}", s.handleWALCheckpoint)
	}
	if s.cfg.EnablePprof {
		s.mountPprof()
	}
	return s
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
// spec (a negative part count or epsilon entry, a bad scorer).
// optionsStatus maps it to 422, matching the engine-level status of the
// same condition, while parse-level failures (unknown matcher) stay 400.
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
	if o.Parts < 0 {
		return nil, &specError{fmt.Errorf("parts is %d; it must be >= 0 (0 selects the default)", o.Parts)}
	}
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
	// UseIndex selects no engine and is accepted for compatibility; like
	// min_similarity, it requires a MinMax method.
	UseIndex bool `json:"use_index,omitempty"`
	// MinSimilarity, when positive, switches to the threshold ranking:
	// only candidates with similarity >= min_similarity are returned,
	// and the envelope index (DESIGN.md §12) prunes every candidate
	// whose upper bound cannot reach the threshold.
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

// TopKRequest asks for the exact Ex-MinMax top-k, served by the
// best-first indexed engine (DESIGN.md §12): candidates are visited by
// descending upper bound and pruned against the running kth-best exact
// similarity, resolving prepared views only for the candidates joined.
type TopKRequest struct {
	Pivot      int64          `json:"pivot"`
	Candidates []int64        `json:"candidates"`
	K          int            `json:"k"`
	Options    OptionsPayload `json:"options"`
	// AllCandidates targets every stored community except the pivot
	// (ascending id), so Candidates may be omitted.
	AllCandidates bool `json:"all_candidates,omitempty"`
	// UseIndex selects no engine and is accepted for compatibility.
	UseIndex bool `json:"use_index,omitempty"`
}

// TopKEntry is one row of a top-k response. Approx is the candidate's
// index upper bound, which gated its exact join.
type TopKEntry struct {
	Community int64   `json:"community"`
	Name      string  `json:"name"`
	Approx    float64 `json:"approx_similarity"`
	Exact     float64 `json:"exact_similarity"`
	Refined   bool    `json:"refined"`
	Skipped   bool    `json:"skipped,omitempty"`
}

// MatrixRequest asks for the full pairwise similarity matrix of a set
// of stored communities with a MinMax method. The cells join cached
// views on the batch pool of Options.Workers goroutines (0 selects
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
	s.WriteJSON(w, http.StatusOK, resp)
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
	if s.Decode(w, r, &p) {
		s.create(w, 0, &p)
	}
}

// create is the ingest of POST /communities and POST
// /internal/communities: the community under id, or under the next
// free id when id is 0. Validate (inside CheckCommunity) rejects empty
// communities, communities outside the limits, ragged
// dimensionalities, and negative counters, each with a message naming
// the offending user (422); a live id is 409.
func (s *Server) create(w http.ResponseWriter, id int64, p *CommunityPayload) {
	c, err := CheckCommunity(p)
	if err != nil {
		s.WriteErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	// The store deep-copies on ingest, so the decoder's slices (and any
	// caller still holding them) can never mutate the stored community.
	// With durability on, the write returns only after the mutation is
	// in the WAL — the 201 below is the durability acknowledgement.
	var e *store.Entry
	if id == 0 {
		e, err = s.store.Create(c)
	} else {
		e, err = s.store.CreateWithID(id, c)
	}
	switch {
	case errors.Is(err, store.ErrDuplicateID):
		s.WriteErr(w, http.StatusConflict, err)
	case err != nil:
		s.writeMutationErr(w, err)
	default:
		s.WriteJSON(w, http.StatusCreated, info(e))
	}
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
	s.WriteJSON(w, http.StatusOK, out)
}

// errMalformedID marks an {id} path value that failed to parse. The
// handlers map it to 400: the request is syntactically wrong, unlike a
// well-formed id that is merely absent (404).
var errMalformedID = errors.New("malformed id in path")

// PathID parses the {id} path value, wrapping parse failures in
// errMalformedID so writeLookupErr can distinguish them from misses.
// The coordinator parses its paths with it too, so a malformed id
// answers alike from a node and a cluster.
func PathID(r *http.Request, what string) (int64, error) {
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
		s.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	s.WriteErr(w, http.StatusNotFound, err)
}

func (s *Server) community(r *http.Request) (*store.Entry, error) {
	id, err := PathID(r, "community")
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
	s.WriteJSON(w, http.StatusOK, info(e))
}

func (s *Server) handleDeleteCommunity(w http.ResponseWriter, r *http.Request) {
	id, err := PathID(r, "community")
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

// candidateComms returns the candidates' raw communities, for the
// methods that run without prepared views.
func candidateComms(cands store.Candidates) []*csj.Community {
	out := make([]*csj.Community, cands.Len())
	for i := range out {
		out[i] = cands.Entry(i).Comm
	}
	return out
}

func (s *Server) handleSimilarity(w http.ResponseWriter, r *http.Request) {
	var req SimilarityRequest
	if !s.Decode(w, r, &req) {
		return
	}
	snap := s.store.Snapshot()
	b, err := lookup(snap, req.B)
	if err != nil {
		s.WriteErr(w, http.StatusNotFound, err)
		return
	}
	a, err := lookup(snap, req.A)
	if err != nil {
		s.WriteErr(w, http.StatusNotFound, err)
		return
	}
	method, err := csj.ParseMethod(req.Method)
	if err != nil {
		s.WriteErr(w, http.StatusBadRequest, err)
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
		res, err = csj.Similarity(r.Context(), b.Comm, a.Comm, method, s.instrumentOptions(opts))
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
	s.WriteJSON(w, http.StatusOK, resp)
}

// handleRank serves /rank: a node's ranking is the shard ranking of
// /internal/rank with the request's pivot as a local id.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req RankRequest
	if !s.Decode(w, r, &req) {
		return
	}
	if err := CheckCandidates("rank", req.Candidates, req.AllCandidates); err != nil {
		s.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	s.rank(w, r, &ShardQueryRequest{
		Pivot:         ShardPivot{ID: &req.Pivot},
		Candidates:    req.Candidates,
		Method:        req.Method,
		MinSimilarity: req.MinSimilarity,
		UseIndex:      req.UseIndex,
		Options:       req.Options,
	})
}

// CheckCandidates requires exactly one of an explicit candidate list and
// all_candidates, the two ways a /rank or /topk request names its
// candidates; query names the endpoint in the error.
func CheckCandidates(query string, ids []int64, all bool) error {
	switch {
	case all && len(ids) > 0:
		return errors.New("all_candidates excludes an explicit candidate list")
	case !all && len(ids) == 0:
		return fmt.Errorf("%s needs candidates or all_candidates", query)
	}
	return nil
}

// CheckRank runs the checks of a rank query that come before its
// pivot, in this order: the method against min_similarity and use_index
// (400), then the options (422 for a bad spec, else 400). It returns
// the parsed method and options, or a failure with its status. A node's
// rank runs it before it resolves the pivot, and the coordinator before
// it fetches the pivot's profile, so both answer a request with several
// faults alike. use_index selects no engine, but keeps its MinMax-only
// check.
func CheckRank(name string, minSim float64, useIndex bool, o *OptionsPayload) (csj.Method, *csj.Options, int, error) {
	method, err := csj.ParseMethod(name)
	switch {
	case err != nil:
	case minSim < 0:
		err = errors.New("min_similarity must be >= 0")
	case (useIndex || minSim > 0) && !minMaxMethod(method):
		err = fmt.Errorf("use_index and min_similarity require a MinMax method, got %q", name)
	}
	if err != nil {
		return method, nil, http.StatusBadRequest, err
	}
	opts, err := o.toOptions()
	if err != nil {
		return method, nil, optionsStatus(err), err
	}
	return method, opts, 0, nil
}

// CheckTopK is CheckRank for a top-k query: k (400), then the options.
func CheckTopK(k int, o *OptionsPayload) (*csj.Options, int, error) {
	if k < 1 {
		return nil, http.StatusBadRequest, fmt.Errorf("k must be >= 1, got %d", k)
	}
	opts, err := o.toOptions()
	if err != nil {
		return nil, optionsStatus(err), err
	}
	return opts, 0, nil
}

// CheckMatrix is CheckRank for a matrix: the method (400 if unknown,
// 422 if not a MinMax one; empty selects Ex-MinMax), then the options.
// A node's matrix runs it before it resolves any community, and the
// coordinator before it fetches any guest profile.
func CheckMatrix(name string, o *OptionsPayload) (csj.Method, *csj.Options, int, error) {
	if name == "" {
		name = "exminmax"
	}
	method, err := csj.ParseMethod(name)
	if err != nil {
		return method, nil, http.StatusBadRequest, err
	}
	if !minMaxMethod(method) {
		return method, nil, http.StatusUnprocessableEntity,
			fmt.Errorf("matrix requires a MinMax method, got %q", name)
	}
	opts, err := o.toOptions()
	if err != nil {
		return method, nil, optionsStatus(err), err
	}
	return method, opts, 0, nil
}

// rankEntries renders a ranking over cands as response rows.
func rankEntries(ranked []csj.Ranked, cands store.Candidates) []RankEntry {
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
	return out
}

// handleTopK serves /topk: a node's top-k is the shard top-k of
// /internal/topk with the request's pivot as a local id.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req TopKRequest
	if !s.Decode(w, r, &req) {
		return
	}
	if err := CheckCandidates("topk", req.Candidates, req.AllCandidates); err != nil {
		s.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	s.topK(w, r, &ShardQueryRequest{
		Pivot:      ShardPivot{ID: &req.Pivot},
		Candidates: req.Candidates,
		K:          req.K,
		Options:    req.Options,
	})
}

// topKEntries renders a top-k answer over cands as response rows.
func topKEntries(top []csj.TopKResult, cands store.Candidates) []TopKEntry {
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
	return out
}

// handleMatrix serves /matrix: a node's matrix is the shard matrix of
// /internal/matrix over the request's canonical cells — every pair
// (i, j) of request positions with i < j, in row-major order — with no
// guests.
func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	if !s.Decode(w, r, &req) {
		return
	}
	if len(req.Communities) < 2 {
		s.WriteErr(w, http.StatusUnprocessableEntity,
			fmt.Errorf("matrix needs at least 2 communities, got %d", len(req.Communities)))
		return
	}
	ids := req.Communities
	cells := make([][2]int64, 0, len(ids)*(len(ids)-1)/2)
	for i := range ids {
		for _, id := range ids[i+1:] {
			cells = append(cells, [2]int64{ids[i], id})
		}
	}
	s.matrix(w, r, &ShardMatrixRequest{Cells: cells, Method: req.Method, Options: req.Options})
}

func (s *Server) handleCreateJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !s.Decode(w, r, &req) {
		return
	}
	j, err := csj.NewIncrementalJoin(req.Dim, &csj.Options{Epsilon: req.Epsilon, Parts: req.Parts})
	if err != nil {
		s.WriteErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.mu.Lock()
	s.nextJoin++
	id := s.nextJoin
	st := &joinState{join: j, dim: req.Dim, eps: req.Epsilon}
	s.joins[id] = st
	s.mu.Unlock()
	s.WriteJSON(w, http.StatusCreated, joinInfo(id, st))
}

func (s *Server) joinState(r *http.Request) (int64, *joinState, error) {
	id, err := PathID(r, "join")
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
	s.WriteJSON(w, http.StatusOK, info)
}

func (s *Server) handleJoinAddUser(w http.ResponseWriter, r *http.Request) {
	id, st, err := s.joinState(r)
	if err != nil {
		s.writeLookupErr(w, err)
		return
	}
	var req JoinUserRequest
	if !s.Decode(w, r, &req) {
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
		s.WriteErr(w, http.StatusBadRequest, fmt.Errorf("side must be B or A, got %q", req.Side))
		return
	}
	if err != nil {
		s.WriteErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.WriteJSON(w, http.StatusCreated, JoinUserResponse{UserID: uid, State: joinInfo(id, st)})
}

func (s *Server) handleJoinRemoveUser(w http.ResponseWriter, r *http.Request) {
	id, st, err := s.joinState(r)
	if err != nil {
		s.writeLookupErr(w, err)
		return
	}
	uid, err := strconv.Atoi(r.PathValue("uid"))
	if err != nil {
		s.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad user id: %w", err))
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
		s.WriteErr(w, http.StatusBadRequest, fmt.Errorf("side must be B or A"))
		return
	}
	if err != nil {
		s.WriteErr(w, http.StatusNotFound, err)
		return
	}
	s.WriteJSON(w, http.StatusOK, joinInfo(id, st))
}
