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
// They differ from the public query endpoints in three ways: ingest
// takes an explicit coordinator-assigned id (global uniqueness is the
// coordinator's job), the query pivot may arrive as an inline profile
// (the pivot usually lives on a different shard), and the candidate
// set defaults to "everything on this shard" so the coordinator never
// has to know shard contents. Results carry global community ids, so
// the coordinator can merge shard answers without translation.

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
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.degraded() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":    "degraded",
			"read_only": true,
			"detail":    "write-ahead log poisoned; node serves reads only",
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
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
// /internal/topk. An empty Candidates list means every community on
// this shard (minus Exclude and a local pivot).
type ShardQueryRequest struct {
	Pivot      ShardPivot `json:"pivot"`
	Exclude    int64      `json:"exclude,omitempty"`
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

// ShardMatrixRequest asks this shard to score an explicit list of
// cells. Cell ids resolve against the guests first, then the local
// store; cells come back in request order, so the coordinator can
// reassemble the full matrix deterministically.
type ShardMatrixRequest struct {
	Cells   [][2]int64       `json:"cells"`
	Guests  []GuestCommunity `json:"guests,omitempty"`
	Method  string           `json:"method,omitempty"` // default "exminmax"
	Options OptionsPayload   `json:"options"`
}

// ---- helpers ----

// communityFromPayload builds and validates the community of one JSON
// payload, applying the absent-category convention (0 decodes from a
// missing field; store "unknown").
func communityFromPayload(p *CommunityPayload) (*csj.Community, error) {
	c := &csj.Community{Name: p.Name, Category: p.Category, Users: p.Users}
	if c.Category == 0 {
		c.Category = -1
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("invalid community: %w", err)
	}
	return c, nil
}

// resolvePivotPrepared returns the pivot's prepared MinMax view: the
// cached view of a local community, or a one-shot encoding of an
// inline profile. A non-zero status reports the HTTP mapping of err.
func (s *Server) resolvePivotPrepared(snap *store.Snapshot, p ShardPivot, opts *csj.Options) (*csj.PreparedCommunity, int, error) {
	switch {
	case p.ID != nil && p.Profile != nil:
		return nil, http.StatusBadRequest, errors.New("pivot carries both id and profile")
	case p.ID != nil:
		pv, err := snap.PreparedSpec(*p.ID, opts.Spec())
		if err != nil {
			return nil, http.StatusNotFound, err
		}
		return pv, 0, nil
	case p.Profile != nil:
		c, err := communityFromPayload(p.Profile)
		if err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
		pv, err := csj.Precompute(c, opts)
		if err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
		return pv, 0, nil
	default:
		return nil, http.StatusBadRequest, errors.New("pivot needs an id or a profile")
	}
}

// resolvePivotRaw returns the pivot as a raw community, for the
// non-MinMax rank methods that run without prepared views.
func resolvePivotRaw(snap *store.Snapshot, p ShardPivot) (*csj.Community, int, error) {
	switch {
	case p.ID != nil && p.Profile != nil:
		return nil, http.StatusBadRequest, errors.New("pivot carries both id and profile")
	case p.ID != nil:
		e, ok := snap.Get(*p.ID)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("no community %d", *p.ID)
		}
		return e.Comm, 0, nil
	case p.Profile != nil:
		c, err := communityFromPayload(p.Profile)
		if err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
		return c, 0, nil
	default:
		return nil, http.StatusBadRequest, errors.New("pivot needs an id or a profile")
	}
}

// shardCandidates resolves an internal query's candidates: the
// explicit list when given (each must be local), otherwise every local
// community minus Exclude and a local pivot. Community ids are always
// positive, so Exclude's zero value excludes nothing.
func shardCandidates(snap *store.Snapshot, req *ShardQueryRequest) (store.Candidates, error) {
	if len(req.Candidates) > 0 {
		entries, err := candidateEntries(snap, req.Candidates)
		if err != nil {
			return store.Candidates{}, err
		}
		return snap.CandidatesOf(entries), nil
	}
	var pivotID int64
	if req.Pivot.ID != nil {
		pivotID = *req.Pivot.ID
	}
	return snap.Candidates(req.Exclude, pivotID), nil
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
	s.writeJSON(w, http.StatusOK, CommunityPayload{Name: c.Name, Category: c.Category, Users: c.Users})
}

func (s *Server) handleInternalCreate(w http.ResponseWriter, r *http.Request) {
	var req InternalCreateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.ID <= 0 {
		s.writeErr(w, http.StatusBadRequest,
			fmt.Errorf("community id must be positive, got %d", req.ID))
		return
	}
	c, err := communityFromPayload(&req.Community)
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	// Same durability contract as the public ingest: with a WAL wired,
	// the 201 is the durability acknowledgement.
	e, err := s.store.CreateWithID(req.ID, c)
	if err != nil {
		if errors.Is(err, store.ErrDuplicateID) {
			s.writeErr(w, http.StatusConflict, err)
			return
		}
		s.writeMutationErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, info(e))
}

func (s *Server) handleInternalRank(w http.ResponseWriter, r *http.Request) {
	var req ShardQueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	method, err := rankMethod(req.Method, req.MinSimilarity, req.UseIndex)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	opts, err := req.Options.toOptions()
	if err != nil {
		s.writeOptionsErr(w, err)
		return
	}
	snap := s.store.Snapshot()
	cands, err := shardCandidates(snap, &req)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	if cands.Len() == 0 {
		// Nothing local to rank; the engines reject empty candidate
		// sets, so answer directly.
		s.writeJSON(w, http.StatusOK, []RankEntry{})
		return
	}
	var pv *csj.PreparedCommunity
	var pc *csj.Community
	var status int
	if minMaxMethod(method) {
		pv, status, err = s.resolvePivotPrepared(snap, req.Pivot, opts)
	} else {
		pc, status, err = resolvePivotRaw(snap, req.Pivot)
	}
	if err != nil {
		s.writeErr(w, status, err)
		return
	}
	ranked, err := s.rank(r.Context(), pv, pc, cands, method, req.MinSimilarity, opts)
	if err != nil {
		s.writeJoinErr(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, rankEntries(ranked, cands))
}

func (s *Server) handleInternalTopK(w http.ResponseWriter, r *http.Request) {
	var req ShardQueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.K < 1 {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("k must be >= 1, got %d", req.K))
		return
	}
	opts, err := req.Options.toOptions()
	if err != nil {
		s.writeOptionsErr(w, err)
		return
	}
	snap := s.store.Snapshot()
	cands, err := shardCandidates(snap, &req)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	if cands.Len() == 0 {
		s.writeJSON(w, http.StatusOK, []TopKEntry{})
		return
	}
	pv, status, err := s.resolvePivotPrepared(snap, req.Pivot, opts)
	if err != nil {
		s.writeErr(w, status, err)
		return
	}
	// The exact per-shard top-k is what makes the coordinator's merge
	// exact (DESIGN.md §13).
	top, err := csj.TopKIndexedFrom(r.Context(), pv, cands.Source(opts.Spec()), req.K, s.instrumentOptions(opts))
	if err != nil {
		s.writeJoinErr(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, topKEntries(top, cands))
}

func (s *Server) handleInternalMatrix(w http.ResponseWriter, r *http.Request) {
	var req ShardMatrixRequest
	if !s.decode(w, r, &req) {
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
	snap := s.store.Snapshot()
	// Guests are one-shot encodings: they exist for this request only
	// and never enter the shared view cache.
	guests := make(map[int64]*csj.PreparedCommunity, len(req.Guests))
	for _, g := range req.Guests {
		if g.ID <= 0 {
			s.writeErr(w, http.StatusBadRequest,
				fmt.Errorf("guest id must be positive, got %d", g.ID))
			return
		}
		c, cerr := communityFromPayload(&g.Community)
		if cerr != nil {
			s.writeErr(w, http.StatusUnprocessableEntity,
				fmt.Errorf("guest %d: %w", g.ID, cerr))
			return
		}
		pv, perr := csj.Precompute(c, opts)
		if perr != nil {
			s.writeErr(w, http.StatusUnprocessableEntity,
				fmt.Errorf("guest %d: %w", g.ID, perr))
			return
		}
		guests[g.ID] = pv
	}
	resolve := func(id int64) (*csj.PreparedCommunity, error) {
		if pv, ok := guests[id]; ok {
			return pv, nil
		}
		return snap.PreparedSpec(id, opts.Spec())
	}
	iopts := s.instrumentOptions(opts)
	out := make([]MatrixCell, 0, len(req.Cells))
	for _, cell := range req.Cells {
		pi, ierr := resolve(cell[0])
		if ierr != nil {
			s.writeErr(w, http.StatusNotFound, ierr)
			return
		}
		pj, jerr := resolve(cell[1])
		if jerr != nil {
			s.writeErr(w, http.StatusNotFound, jerr)
			return
		}
		// Same orientation rule as the batch matrix engine: the smaller
		// community becomes B, ties keep (i, j) order — so a distributed
		// cell is bit-identical to its single-node counterpart.
		b, a := pi, pj
		if b.Size() > a.Size() {
			b, a = a, b
		}
		mc := MatrixCell{I: cell[0], J: cell[1]}
		res, jerr2 := csj.SimilarityPreparedCtx(r.Context(), b, a, method, iopts)
		switch {
		case jerr2 == nil:
			mc.Similarity = res.Similarity
			mc.Matched = len(res.Pairs)
			mc.ElapsedMS = float64(res.Elapsed.Microseconds()) / 1000
		case errors.Is(jerr2, csj.ErrSizeConstraint):
			mc.Skipped = true
		default:
			s.writeJoinErr(w, r, jerr2)
			return
		}
		out = append(out, mc)
	}
	s.writeJSON(w, http.StatusOK, out)
}
