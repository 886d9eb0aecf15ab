package server

import (
	"errors"
	"fmt"
	"net/http"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/store"
)

// Shard-local endpoints for the cluster coordinator (DESIGN.md §13).
// The coordinator consistent-hashes communities across shards and
// scatter-gathers queries; these endpoints are the scatter targets.
// Ingest takes an explicit coordinator-assigned id (global uniqueness
// is the coordinator's job). A query's pivot may arrive as an inline
// profile (the pivot usually lives on a different shard), and its
// candidate set defaults to "everything on this shard", so the
// coordinator never has to know shard contents. A node's own /rank,
// /topk and /matrix run the same query functions with the pivot as a
// local id and no guests, so a node and a cluster answer alike.
// Results carry global community ids, so the coordinator can merge
// shard answers without translation.

// ---- readiness ----

// handleReady is the drain-aware readiness probe, split from /healthz:
// liveness says "the process is up", readiness says "route traffic
// here". During graceful shutdown (BeginDrain) the process is alive
// but must stop receiving new work, so /readyz turns 503 while
// /healthz stays 200. cmd/csjserve additionally answers 503 here
// before seed-boot completes, via its bootstrap handler.
//
// A poisoned WAL (DESIGN.md §16) also answers 503: the node still
// serves reads, but writes are refused, and readiness deliberately
// reports the degradation so the cluster coordinator's prober stops
// routing here and promotes the follower replica — exactly the
// drain/repair/re-follow path of the README runbook.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.notReady.Load() {
		s.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.degraded() {
		s.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":    "degraded",
			"read_only": true,
			"detail":    "write-ahead log poisoned; node serves reads only",
		})
		return
	}
	s.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// BeginDrain flips /readyz to 503 so load balancers and the cluster
// coordinator's health probe stop routing here. Call it when graceful
// shutdown starts, before the listener closes; in-flight and
// already-accepted requests still complete normally.
func (s *Server) BeginDrain() { s.notReady.Store(true) }

// ---- wire types ----

// InternalCreateRequest ingests a community under an explicit,
// coordinator-assigned id.
type InternalCreateRequest struct {
	ID        int64            `json:"id"`
	Community CommunityPayload `json:"community"`
}

// ShardPivot identifies a query pivot: exactly one of a local
// community id or an inline profile (when the pivot lives on another
// shard, the coordinator fetches its profile once and ships it).
type ShardPivot struct {
	ID      *int64            `json:"id,omitempty"`
	Profile *CommunityPayload `json:"profile,omitempty"`
}

// ShardQueryRequest is the body of POST /internal/rank and
// /internal/topk, and the query a node's /rank and /topk run. An empty
// Candidates list means every community on this shard but a local
// pivot.
type ShardQueryRequest struct {
	Pivot      ShardPivot `json:"pivot"`
	Candidates []int64    `json:"candidates,omitempty"`
	// Method and MinSimilarity apply to rank; K applies to topk.
	Method        string  `json:"method,omitempty"`
	K             int     `json:"k,omitempty"`
	MinSimilarity float64 `json:"min_similarity,omitempty"`
	// UseIndex selects no engine: top-k always runs the indexed engine
	// and rank picks its engine from min_similarity. It stays on the
	// wire because coordinators set it for shards of earlier releases,
	// which chose their engine by it; on rank it keeps its MinMax-only
	// check.
	UseIndex bool           `json:"use_index,omitempty"`
	Options  OptionsPayload `json:"options"`
}

// GuestCommunity is a non-local community's profile shipped inline for
// a matrix request, keyed by its global id.
type GuestCommunity struct {
	ID        int64            `json:"id"`
	Community CommunityPayload `json:"community"`
}

// ShardMatrixRequest is the body of POST /internal/matrix, and the
// query a node's /matrix runs: an explicit list of cells to score.
// Cell ids resolve against the guests first, then the local store;
// cells come back in request order, so the coordinator can reassemble
// the full matrix deterministically.
type ShardMatrixRequest struct {
	Cells   [][2]int64       `json:"cells"`
	Guests  []GuestCommunity `json:"guests,omitempty"`
	Method  string           `json:"method,omitempty"` // default "exminmax"
	Options OptionsPayload   `json:"options"`
}

// ---- helpers ----

// CheckCommunity is the ingest check of POST /communities: it builds
// and validates the community of one JSON payload, applying the
// absent-category convention (0 decodes from a missing field; store
// "unknown"). A rejection is 422. The coordinator runs it before it
// allocates an id, so a rejected create uses up no id on a cluster,
// as on a node.
func CheckCommunity(p *CommunityPayload) (*csj.Community, error) {
	c := &csj.Community{Name: p.Name, Category: p.Category, Users: p.Users}
	if c.Category == 0 {
		c.Category = -1
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("invalid community: %w", err)
	}
	return c, nil
}

// resolveCommunity returns a query's community — a pivot or a matrix
// id: a local community by id, or an inline profile. For a MinMax
// method it also returns the community's prepared view under opts —
// the cached view of a local community, or a one-shot encoding of a
// profile. The status is the HTTP mapping of a non-nil err.
func resolveCommunity(snap *store.Snapshot, p ShardPivot, method csj.Method, opts *csj.Options) (*csj.Community, *csj.PreparedCommunity, int, error) {
	switch {
	case p.ID != nil && p.Profile != nil:
		return nil, nil, http.StatusBadRequest, errors.New("pivot carries both id and profile")
	case p.ID != nil:
		e, err := lookup(snap, *p.ID)
		if err != nil {
			return nil, nil, http.StatusNotFound, err
		}
		if !minMaxMethod(method) {
			return e.Comm, nil, 0, nil
		}
		pv, err := snap.PreparedSpec(e.ID, opts.Spec())
		return e.Comm, pv, http.StatusUnprocessableEntity, err
	case p.Profile != nil:
		c, err := CheckCommunity(p.Profile)
		if err != nil || !minMaxMethod(method) {
			return c, nil, http.StatusUnprocessableEntity, err
		}
		pv, err := csj.Precompute(c, opts)
		return c, pv, http.StatusUnprocessableEntity, err
	default:
		return nil, nil, http.StatusBadRequest, errors.New("pivot needs an id or a profile")
	}
}

// query is a /rank or /topk request resolved against one snapshot.
type query struct {
	pivot *csj.Community
	view  *csj.PreparedCommunity // the pivot's view; MinMax methods only
	cands store.Candidates
}

// resolve resolves req's pivot and candidates for method under opts:
// the explicit candidate list when given (each must be local),
// otherwise every local community but a local pivot. The pivot resolves
// first, so a missing one is 404 even when no candidate is left.
// resolve writes the error response and reports false when the query
// cannot run.
func (s *Server) resolve(w http.ResponseWriter, req *ShardQueryRequest, method csj.Method, opts *csj.Options) (query, bool) {
	snap := s.store.Snapshot()
	pc, pv, status, err := resolveCommunity(snap, req.Pivot, method, opts)
	if err != nil {
		s.WriteErr(w, status, err)
		return query{}, false
	}
	q := query{pivot: pc, view: pv}
	if len(req.Candidates) > 0 {
		entries, err := candidateEntries(snap, req.Candidates)
		if err != nil {
			s.WriteErr(w, http.StatusNotFound, err)
			return query{}, false
		}
		q.cands = snap.CandidatesOf(entries)
	} else {
		var pivotID int64 // ids are positive, so 0 excludes nothing
		if req.Pivot.ID != nil {
			pivotID = *req.Pivot.ID
		}
		q.cands = snap.Candidates(pivotID)
	}
	return q, true
}

// ---- handlers ----

// handleCommunityProfile returns a stored community's full profile —
// the coordinator fetches it to ship a pivot or matrix guest to the
// shards that don't own it.
func (s *Server) handleCommunityProfile(w http.ResponseWriter, r *http.Request) {
	e, err := s.community(r)
	if err != nil {
		s.writeLookupErr(w, err)
		return
	}
	c := e.Comm
	s.WriteJSON(w, http.StatusOK, CommunityPayload{Name: c.Name, Category: c.Category, Users: c.Users})
}

func (s *Server) handleInternalCreate(w http.ResponseWriter, r *http.Request) {
	var req InternalCreateRequest
	if !s.Decode(w, r, &req) {
		return
	}
	if req.ID <= 0 {
		s.WriteErr(w, http.StatusBadRequest,
			fmt.Errorf("community id must be positive, got %d", req.ID))
		return
	}
	s.create(w, req.ID, &req.Community)
}

func (s *Server) handleInternalRank(w http.ResponseWriter, r *http.Request) {
	var req ShardQueryRequest
	if s.Decode(w, r, &req) {
		s.rank(w, r, &req)
	}
}

// rank serves /rank and /internal/rank. A positive min_similarity runs
// the indexed threshold ranking, which prunes candidates whose upper
// bound cannot reach it without resolving their views (DESIGN.md §12);
// another MinMax ranking joins every candidate's cached view; the other
// methods join the raw communities. An empty candidate set ranks to [].
func (s *Server) rank(w http.ResponseWriter, r *http.Request, req *ShardQueryRequest) {
	method, opts, status, err := CheckRank(req.Method, req.MinSimilarity, req.UseIndex, &req.Options)
	if err != nil {
		s.WriteErr(w, status, err)
		return
	}
	q, ok := s.resolve(w, req, method, opts)
	if !ok {
		return
	}
	if q.cands.Len() == 0 {
		// The engines reject empty candidate sets; nothing ranks to [].
		s.WriteJSON(w, http.StatusOK, []RankEntry{})
		return
	}
	opts = s.instrumentOptions(opts)
	var ranked []csj.Ranked
	switch {
	case req.MinSimilarity > 0:
		ranked, err = csj.RankAboveIndexedFrom(r.Context(), q.view, q.cands.Source(opts.Spec()), method, req.MinSimilarity, opts)
	case minMaxMethod(method):
		var views []*csj.PreparedCommunity
		if views, err = preparedViews(q.cands.Source(opts.Spec())); err == nil {
			ranked, err = csj.RankPreparedCtx(r.Context(), q.view, views, method, opts)
		}
	default:
		ranked, err = csj.Rank(r.Context(), q.pivot, candidateComms(q.cands), method, opts)
	}
	if err != nil {
		s.writeJoinErr(w, r, err)
		return
	}
	s.WriteJSON(w, http.StatusOK, rankEntries(ranked, q.cands))
}

func (s *Server) handleInternalTopK(w http.ResponseWriter, r *http.Request) {
	var req ShardQueryRequest
	if s.Decode(w, r, &req) {
		s.topK(w, r, &req)
	}
}

// topK serves /topk and /internal/topk with the best-first indexed
// engine: it returns the exact Ex-MinMax top-k and resolves views only
// for the candidates it joins (DESIGN.md §12). The exact per-shard
// top-k is what makes the coordinator's merge exact (DESIGN.md §13).
// An empty candidate set answers [].
func (s *Server) topK(w http.ResponseWriter, r *http.Request, req *ShardQueryRequest) {
	opts, status, err := CheckTopK(req.K, &req.Options)
	if err != nil {
		s.WriteErr(w, status, err)
		return
	}
	q, ok := s.resolve(w, req, csj.ExMinMax, opts)
	if !ok {
		return
	}
	if q.cands.Len() == 0 {
		s.WriteJSON(w, http.StatusOK, []TopKEntry{})
		return
	}
	opts = s.instrumentOptions(opts)
	top, err := csj.TopKIndexedFrom(r.Context(), q.view, q.cands.Source(opts.Spec()), req.K, opts)
	if err != nil {
		s.writeJoinErr(w, r, err)
		return
	}
	s.WriteJSON(w, http.StatusOK, topKEntries(top, q.cands))
}

func (s *Server) handleInternalMatrix(w http.ResponseWriter, r *http.Request) {
	var req ShardMatrixRequest
	if s.Decode(w, r, &req) {
		s.matrix(w, r, &req)
	}
}

// matrix serves /matrix and /internal/matrix. After CheckMatrix it
// resolves each distinct id of the cells once, in the order the cells
// first name it: a guest's one-shot view, else the local store's cached
// view — 404 for a missing community, 422 for a view that fails to
// build, guest or local alike. The cells then join on the batch pool
// and come back in request order. A node's cells are the canonical
// pairs of its request, so it resolves ids in request order, and so
// does the shard owning a cluster request's first id, whose cells name
// every later id.
func (s *Server) matrix(w http.ResponseWriter, r *http.Request, req *ShardMatrixRequest) {
	method, opts, status, err := CheckMatrix(req.Method, &req.Options)
	if err != nil {
		s.WriteErr(w, status, err)
		return
	}
	// Guests are one-shot encodings: they exist for this request only
	// and never enter the shared view cache.
	guests := make(map[int64]*CommunityPayload, len(req.Guests))
	for i, g := range req.Guests {
		if g.ID <= 0 {
			s.WriteErr(w, http.StatusBadRequest,
				fmt.Errorf("guest id must be positive, got %d", g.ID))
			return
		}
		guests[g.ID] = &req.Guests[i].Community
	}
	snap := s.store.Snapshot()
	slots := make(map[int64]int)
	var views []*csj.PreparedCommunity
	cells := make([][2]int, len(req.Cells))
	for k, cell := range req.Cells {
		for side, id := range cell {
			slot, ok := slots[id]
			if !ok {
				ref := ShardPivot{Profile: guests[id]}
				if ref.Profile == nil {
					ref.ID = &id
				}
				_, pv, status, err := resolveCommunity(snap, ref, method, opts)
				if err != nil {
					s.WriteErr(w, status, err)
					return
				}
				slot = len(views)
				slots[id] = slot
				views = append(views, pv)
			}
			cells[k][side] = slot
		}
	}
	entries, err := csj.SimilarityMatrixCells(r.Context(), views, cells, method, s.instrumentOptions(opts))
	if err != nil {
		s.writeJoinErr(w, r, err)
		return
	}
	out := make([]MatrixCell, len(entries))
	for k, e := range entries {
		out[k] = MatrixCell{I: req.Cells[k][0], J: req.Cells[k][1], Skipped: e.Skipped}
		if e.Result != nil {
			out[k].Similarity = e.Result.Similarity
			out[k].Matched = len(e.Result.Pairs)
			out[k].ElapsedMS = float64(e.Result.Elapsed.Microseconds()) / 1000
		}
	}
	s.WriteJSON(w, http.StatusOK, out)
}
