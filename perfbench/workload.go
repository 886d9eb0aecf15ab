package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/cluster"
	"github.com/opencsj/csj/internal/dataset"
	"github.com/opencsj/csj/internal/server"
)

// workloadSpec fixes everything about a workload except the seed. The
// rates were chosen so that the program, when this benchmark was
// introduced, used a sixth to a quarter of a 2-vCPU machine; they are
// constants, so every later commit is driven at the same load.
type workloadSpec struct {
	Name    string
	Cluster bool
	Read    opKind // opTopK or opRank
	// Rate is the arrival rate of the window's reads, in operations per
	// second; see arrivals.
	Rate float64
	// CreateShare is the share of every write block that creates; the
	// rest delete.
	CreateShare float64
	// Queries is the number of distinct read queries; window reads draw
	// from this pool, so the oracle computes each answer once. The
	// set-up warm-up runs the first Warmup of them back to back.
	Queries int
	Warmup  int
	// NicheShare is the share of window reads whose pivot is niche
	// (top-k workloads), exact in every segment.
	NicheShare float64
	// Corpus shape. Group is the number of communities sharing an
	// archetype in a top-k corpus.
	Communities int
	Group       int
	Epsilon     int32
	K           int
	// CacheBytes caps each shard's prepared-view cache (cluster only;
	// 0 keeps the server default).
	CacheBytes int64
	// Fsync is the shards' WAL fsync policy (cluster only).
	Fsync string
	// CheckpointEvery is the shards' WAL appends between checkpoints.
	CheckpointEvery int64
}

const (
	// segmentCount is the number of consecutive segments of a window.
	// Every segment has the same number and mix of operations.
	segmentCount = 10
	// writeBlocks is the number of slices a read window is driven in,
	// each followed by blockWrites closed-loop writes on one
	// connection. A write that waits behind a read measures the read,
	// not the write path, so writes never overlap reads. Writes are
	// short and the machine's speed drifts over seconds, so many small
	// blocks sample the window more evenly than a few large ones.
	writeBlocks = 40
	blockWrites = 12
	// writeGap is the pause between a read slice and its write block,
	// long enough for a garbage collection the reads started to finish
	// on the then idle machine, so that the writes do not pay for it.
	writeGap = 25 * time.Millisecond
	// setupReps is how many times an untraced run sets the program up;
	// setup_s is the median.
	setupReps = 3
	// minSamples is the fewest reads and writes an untraced window may
	// schedule, so that each p90 has at least ten samples beyond it.
	minSamples = 100
)

var workloadSpecs = map[string]*workloadSpec{
	// Node writes are three quarters creates, so that both write
	// percentiles fall among the creates.
	"node-topk": {
		Name: "node-topk", Read: opTopK, Rate: 60, CreateShare: 0.75,
		Queries: 300, Warmup: 100, NicheShare: 0.2,
		Communities: 5000, Group: 20, Epsilon: 1500, K: 10,
	},
	"node-rank": {
		Name: "node-rank", Read: opRank, Rate: 30, CreateShare: 0.75,
		Queries: 200, Warmup: 200,
		Communities: 24, Epsilon: 1,
	},
	// Cluster writes are 38% of the operations, half creates and half
	// deletes.
	"cluster-mixed": {
		Name: "cluster-mixed", Cluster: true, Read: opTopK,
		Rate: 35, CreateShare: 0.5,
		Queries: 400, Warmup: 100,
		Communities: 3000, Group: 150, Epsilon: 1500, K: 10,
		CacheBytes: 6 << 20, Fsync: "interval", CheckpointEvery: 256,
	},
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"node-topk", "node-rank", "cluster-mixed"}

type opKind int

const (
	opTopK opKind = iota
	opRank
	opCreate
	opDelete
)

func (k opKind) String() string {
	switch k {
	case opTopK:
		return "topk"
	case opRank:
		return "rank"
	case opCreate:
		return "create"
	default:
		return "delete"
	}
}

func (k opKind) isRead() bool { return k == opTopK || k == opRank }

// op is one scheduled request.
type op struct {
	At     time.Duration // scheduled send, from the start of its phase
	Kind   opKind
	Query  int // reads: index into workload.queries
	Method string
	Path   string
	Body   []byte
	// Comm is the uploaded community of a create.
	Comm *csj.Community
}

// query is one distinct read and its expected answer.
type query struct {
	Pivot int64
	Cands []int64 // rank: explicit candidates; top-k: nil (all candidates)
	Niche bool
	Body  []byte
	// Expect is the expected response body without its trailing
	// newline; computed by the library before any request is sent.
	Expect []byte
	// Full marks a top-k read whose engine run joins every candidate
	// on every node or shard it runs on.
	Full bool
}

// workload is a generated instance of a spec for one seed.
type workload struct {
	spec *workloadSpec
	opts csj.Options
	// corpus is ingested in order during set-up; community i gets id
	// i+1. The first mainN are the main corpus, the rest are the
	// disposable communities the delete operations remove.
	corpus []*csj.Community
	mainN  int
	ingest [][]byte
	// group labels each main-corpus community with its archetype
	// (top-k corpora); niche marks the communities of niche groups.
	niche   []bool
	queries []query
	window  []op
	// writes are the write blocks, blockWrites each.
	writes   []op
	writeSeq int
	// views and sums are the oracle's library-built prepared views and
	// summaries, aligned with corpus; kept for the replay.
	views []*csj.PreparedCommunity
	sums  []*csj.CommunitySummary
	// owner maps each corpus id to its cluster shard (0 on a node).
	owner []int
}

// Corpus shape constants of the top-k workloads: communities cluster
// around per-dimension archetype bases drawn from the Synthetic value
// range; users spread topkSpread above their base. Groups of
// workloadSpec.Group communities share a base; niche groups have
// topkNicheGroup members, so a niche pivot has fewer than k candidates
// with a positive upper bound.
const (
	topkDims       = 6
	topkNicheGroup = 5
	topkNicheComm  = 0.1 // share of main-corpus communities in niche groups
	topkSpread     = 4000
	topkMinSize    = 16
	topkMaxSize    = 24
	// Written and disposable communities sit below every archetype
	// base (bases start at topkBaseMin), further than epsilon away on
	// every dimension: their bound against every pivot is zero.
	topkBaseMin     = 10000
	topkWriteSpread = 1000

	rankDims   = dataset.Dim
	rankSize   = 1500
	rankPool   = 1000 // shared users drawn into several communities
	rankShared = 0.3  // share of each community's users from the pool
	rankCands  = 6
	// Written and disposable node-rank communities are smaller VK-like
	// communities; the write path is measured, not the join.
	rankWriteSize = 250
)

func buildWorkload(spec *workloadSpec, seed int64, seconds int) (*workload, error) {
	w := &workload{spec: spec, opts: csj.Options{Epsilon: spec.Epsilon}}
	rng := rand.New(rand.NewSource(seed))
	switch spec.Read {
	case opTopK:
		w.topkCorpus(rng)
	case opRank:
		w.rankCorpus(rng)
	}
	if err := w.schedule(rng, seconds); err != nil {
		return nil, err
	}
	w.ingest = make([][]byte, len(w.corpus))
	for i, c := range w.corpus {
		b, err := json.Marshal(payload(c))
		if err != nil {
			return nil, err
		}
		w.ingest[i] = b
	}
	return w, nil
}

func payload(c *csj.Community) server.CommunityPayload {
	return server.CommunityPayload{Name: c.Name, Category: c.Category, Users: c.Users}
}

func (w *workload) topkCorpus(rng *rand.Rand) {
	n := w.spec.Communities
	nicheN := int(float64(n) * topkNicheComm)
	nicheN -= nicheN % topkNicheGroup
	base := func() []int32 {
		b := make([]int32, topkDims)
		for j := range b {
			b[j] = topkBaseMin + rng.Int31n(dataset.SyntheticMaxCounter-topkBaseMin-topkSpread)
		}
		return b
	}
	// Group membership is shuffled so niche communities are spread
	// over the id range instead of sitting at its end.
	groupOf := make([]int, n)
	isNiche := make([]bool, n)
	g := 0
	for i := 0; i < n; {
		size, niche := w.spec.Group, false
		if i < nicheN {
			size, niche = topkNicheGroup, true
		}
		for j := 0; j < size && i < n; j++ {
			groupOf[i], isNiche[i] = g, niche
			i++
		}
		g++
	}
	perm := rng.Perm(n)
	bases := make([][]int32, g)
	for i := range bases {
		bases[i] = base()
	}
	w.niche = make([]bool, n)
	for i := 0; i < n; i++ {
		src := perm[i]
		w.niche[i] = isNiche[src]
		size := topkMinSize + rng.Intn(topkMaxSize-topkMinSize+1)
		w.corpus = append(w.corpus, spreadCommunity(rng, fmt.Sprintf("c%05d", i+1), bases[groupOf[src]], size, topkSpread))
	}
	w.mainN = n
}

// spreadCommunity draws size users uniformly in [base, base+spread)
// per dimension.
func spreadCommunity(rng *rand.Rand, name string, base []int32, size int, spread int32) *csj.Community {
	users := make([]csj.Vector, size)
	for i := range users {
		u := make([]int32, len(base))
		for j := range u {
			u[j] = base[j] + rng.Int31n(spread)
		}
		users[i] = u
	}
	return &csj.Community{Name: name, Category: -1, Users: users}
}

// writeCommunity is the community of a create or a disposable: a
// zero-bound community for the top-k workloads, a VK-like one for
// node-rank.
func (w *workload) writeCommunity(rng *rand.Rand, name string) *csj.Community {
	if w.spec.Read == opTopK {
		b := make([]int32, topkDims)
		size := topkMinSize + rng.Intn(topkMaxSize-topkMinSize+1)
		return spreadCommunity(rng, name, b, size, topkWriteSpread)
	}
	g := dataset.NewVKGenerator(rng, rng.Intn(rankDims))
	users := make([]csj.Vector, rankWriteSize)
	for i := range users {
		users[i] = g.User()
	}
	return &csj.Community{Name: name, Category: -1, Users: users}
}

func (w *workload) rankCorpus(rng *rand.Rand) {
	poolGen := dataset.NewVKGenerator(rng, -1)
	pool := make([]csj.Vector, rankPool)
	for i := range pool {
		pool[i] = poolGen.User()
	}
	for i := 0; i < w.spec.Communities; i++ {
		g := dataset.NewVKGenerator(rng, i%rankDims)
		size := rankSize
		shared := int(float64(size) * rankShared)
		users := make([]csj.Vector, 0, size)
		for _, p := range rng.Perm(rankPool)[:shared] {
			users = append(users, append([]int32(nil), pool[p]...))
		}
		for len(users) < size {
			users = append(users, g.User())
		}
		rng.Shuffle(len(users), func(a, b int) { users[a], users[b] = users[b], users[a] })
		w.corpus = append(w.corpus, &csj.Community{Name: fmt.Sprintf("vk%02d", i+1), Category: -1, Users: users})
	}
	w.mainN = w.spec.Communities
}

// arrivals returns the window's arrival times: every segment gets
// exactly round(rate × segment length) arrivals, placed independently
// and uniformly within it. That is a Poisson process conditioned on
// its count per segment: the gaps are those of Poisson arrivals, but
// no seed draws a busier or a quieter window than another.
func arrivals(rng *rand.Rand, rate float64, seconds int) []time.Duration {
	seg := time.Duration(seconds) * time.Second / segmentCount
	n := int(math.Round(rate * seg.Seconds()))
	out := make([]time.Duration, 0, n*segmentCount)
	for k := 0; k < segmentCount; k++ {
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = time.Duration(k)*seg + time.Duration(rng.Int63n(int64(seg)))
		}
		sort.Slice(at, func(a, b int) bool { return at[a] < at[b] })
		out = append(out, at...)
	}
	return out
}

// exactMask marks exactly round(share*n) of n positions, at random.
func exactMask(rng *rand.Rand, n int, share float64) []bool {
	m := make([]bool, n)
	k := int(math.Round(share * float64(n)))
	for _, i := range rng.Perm(n)[:k] {
		m[i] = true
	}
	return m
}

// schedule draws the distinct queries, the window's reads and the
// write blocks, and appends the disposable communities the deletes
// need to the corpus.
func (w *workload) schedule(rng *rand.Rand, seconds int) error {
	spec := w.spec
	var normal, niche []int
	switch spec.Read {
	case opTopK:
		nicheQ := int(math.Round(spec.NicheShare * float64(spec.Queries)))
		var nicheIDs, normalIDs []int64
		for i := 0; i < w.mainN; i++ {
			if w.niche[i] {
				nicheIDs = append(nicheIDs, int64(i+1))
			} else {
				normalIDs = append(normalIDs, int64(i+1))
			}
		}
		for _, i := range rng.Perm(len(nicheIDs))[:nicheQ] {
			niche = append(niche, len(w.queries))
			w.queries = append(w.queries, query{Pivot: nicheIDs[i], Niche: true})
		}
		for _, i := range rng.Perm(len(normalIDs))[:spec.Queries-nicheQ] {
			normal = append(normal, len(w.queries))
			w.queries = append(w.queries, query{Pivot: normalIDs[i]})
		}
	case opRank:
		for q := 0; q < spec.Queries; q++ {
			perm := rng.Perm(w.mainN)
			cands := make([]int64, rankCands)
			for j := range cands {
				cands[j] = int64(perm[j+1] + 1)
			}
			normal = append(normal, q)
			w.queries = append(w.queries, query{Pivot: int64(perm[0] + 1), Cands: cands})
		}
	}
	for i := range w.queries {
		b, err := w.readBody(&w.queries[i])
		if err != nil {
			return err
		}
		w.queries[i].Body = b
	}

	// Every segment of the window gets exactly the workload's niche
	// share, so segments differ only in their arrival times.
	at := arrivals(rng, spec.Rate, seconds)
	ops := make([]op, len(at))
	bySeg := make([][]int, segmentCount)
	for i, t := range at {
		ops[i].At = t
		k := segmentOf(t, seconds)
		bySeg[k] = append(bySeg[k], i)
	}
	for _, idx := range bySeg {
		nicheMask := exactMask(rng, len(idx), spec.NicheShare)
		for j, i := range idx {
			pool := normal
			if nicheMask[j] && len(niche) > 0 {
				pool = niche
			}
			q := pool[rng.Intn(len(pool))]
			ops[i].Kind, ops[i].Query = spec.Read, q
			ops[i].Method, ops[i].Path, ops[i].Body = "POST", "/"+spec.Read.String(), w.queries[q].Body
		}
	}
	w.window = ops
	w.writes = make([]op, writeBlocks*blockWrites)
	for b := 0; b < writeBlocks; b++ {
		idx := make([]int, blockWrites)
		for j := range idx {
			idx[j] = b*blockWrites + j
		}
		if err := w.assignWrites(rng, w.writes, idx, spec.CreateShare); err != nil {
			return err
		}
	}
	return nil
}

// segmentOf returns the segment of a window of the given length that
// an operation scheduled at t belongs to.
func segmentOf(t time.Duration, seconds int) int {
	seg := time.Duration(seconds) * time.Second / segmentCount
	return min(int(t/seg), segmentCount-1)
}

// assignWrites makes exactly the given share of ops[idx] creates of
// fresh communities and the rest deletes of disposable communities,
// which it appends to the corpus.
func (w *workload) assignWrites(rng *rand.Rand, ops []op, idx []int, createShare float64) error {
	creates := exactMask(rng, len(idx), createShare)
	for j, i := range idx {
		w.writeSeq++
		if creates[j] {
			c := w.writeCommunity(rng, fmt.Sprintf("w%05d", w.writeSeq))
			b, err := json.Marshal(payload(c))
			if err != nil {
				return err
			}
			ops[i].Kind, ops[i].Method, ops[i].Path, ops[i].Body, ops[i].Comm = opCreate, "POST", "/communities", b, c
			continue
		}
		id := int64(len(w.corpus) + 1)
		w.corpus = append(w.corpus, w.writeCommunity(rng, fmt.Sprintf("d%05d", w.writeSeq)))
		ops[i].Kind, ops[i].Method, ops[i].Path = opDelete, "DELETE", "/communities/"+strconv.FormatInt(id, 10)
	}
	return nil
}

func (w *workload) readBody(q *query) ([]byte, error) {
	opts := server.OptionsPayload{Epsilon: w.spec.Epsilon}
	if w.spec.Read == opRank {
		return json.Marshal(server.RankRequest{Pivot: q.Pivot, Candidates: q.Cands, Method: "ex-minmax", Options: opts})
	}
	return json.Marshal(server.TopKRequest{Pivot: q.Pivot, K: w.spec.K, AllCandidates: true, UseIndex: true, Options: opts})
}

// shardNames names the cluster's shards; the coordinator's hash ring
// places each community by these names alone.
var shardNames = []string{"shard0", "shard1", "shard2"}

// oracle computes every query's expected answer from the library on
// benchmark-built views, with the options the server receives. The
// candidate set of a top-k read is every community ingested during
// set-up except the pivot, in ascending id order: the writes of the
// window only add or remove zero-bound communities with ids above the
// main corpus, which can never enter an answer.
func (w *workload) oracle() error {
	w.views = make([]*csj.PreparedCommunity, len(w.corpus))
	w.sums = make([]*csj.CommunitySummary, len(w.corpus))
	for i, c := range w.corpus {
		if w.spec.Read == opRank && i >= w.mainN {
			break
		}
		v, err := csj.Precompute(c, &w.opts)
		if err != nil {
			return fmt.Errorf("preparing %s: %w", c.Name, err)
		}
		s, err := csj.SummarizeCommunity(c, 0)
		if err != nil {
			return fmt.Errorf("summarizing %s: %w", c.Name, err)
		}
		w.views[i], w.sums[i] = v, s
	}
	w.owner = make([]int, len(w.corpus)+1)
	if w.spec.Cluster {
		ring, err := cluster.NewRing(shardNames)
		if err != nil {
			return err
		}
		for id := range w.owner {
			w.owner[id] = ring.Owner(int64(id))
		}
	}
	// The distinct queries are independent: answer them on every CPU.
	errs := make([]error, len(w.queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := int(next.Add(1)) - 1; qi < len(w.queries); qi = int(next.Add(1)) - 1 {
				q := &w.queries[qi]
				if w.spec.Read == opTopK {
					q.Expect, errs[qi] = w.expectTopK(q)
				} else {
					q.Expect, errs[qi] = w.expectRank(q)
				}
			}
		}()
	}
	wg.Wait()
	for qi, err := range errs {
		if err != nil {
			return fmt.Errorf("oracle for query %d: %w", qi, err)
		}
	}
	return nil
}

// topkCandidates lists the indexed candidates of a top-k read that
// shard holds (-1: every candidate), in ascending id order.
func (w *workload) topkCandidates(pivot int64, shard int) ([]int64, []csj.IndexedCandidate) {
	var ids []int64
	var ics []csj.IndexedCandidate
	for i := range w.corpus {
		id := int64(i + 1)
		if id == pivot || (shard >= 0 && w.owner[id] != shard) {
			continue
		}
		v := w.views[i]
		ids = append(ids, id)
		ics = append(ics, csj.IndexedCandidate{Name: w.corpus[i].Name, Summary: w.sums[i],
			View: func() (*csj.PreparedCommunity, error) { return v, nil }})
	}
	return ids, ics
}

// topk runs the indexed engine over a shard's candidates (-1: all) and
// reports whether it joined every one of them.
func (w *workload) topk(q *query, shard int) ([]int64, []csj.TopKResult, bool, error) {
	ids, ics := w.topkCandidates(q.Pivot, shard)
	var st csj.IndexStats
	opts := w.opts
	opts.OnIndexStats = func(s csj.IndexStats) { st = s }
	top, err := csj.TopKIndexed(w.views[q.Pivot-1], ics, w.spec.K, &opts)
	return ids, top, st.Candidates > 0 && st.Visited == st.Candidates, err
}

// expectTopK computes a top-k read's answer and whether the read joins
// every candidate: on a node, in the oracle's own run; on the cluster,
// on every shard.
func (w *workload) expectTopK(q *query) ([]byte, error) {
	ids, top, full, err := w.topk(q, -1)
	if err != nil {
		return nil, err
	}
	out := make([]server.TopKEntry, len(top))
	for i, e := range top {
		out[i] = server.TopKEntry{Community: ids[e.Index], Name: e.Name, Approx: e.ApproxSimilarity, Skipped: e.Skipped}
		if e.Result != nil {
			out[i].Exact, out[i].Refined = e.Result.Similarity, true
		}
	}
	if !w.spec.Cluster {
		q.Full = full
		return json.Marshal(out)
	}
	q.Full = true
	for sh := range shardNames {
		_, _, full, err := w.topk(q, sh)
		if err != nil {
			return nil, err
		}
		q.Full = q.Full && full
	}
	return json.Marshal(cluster.Envelope{Result: out})
}

func (w *workload) expectRank(q *query) ([]byte, error) {
	cands := make([]*csj.PreparedCommunity, len(q.Cands))
	for i, id := range q.Cands {
		cands[i] = w.views[id-1]
	}
	ranked, err := csj.RankPrepared(w.views[q.Pivot-1], cands, csj.ExMinMax, &w.opts)
	if err != nil {
		return nil, err
	}
	out := make([]server.RankEntry, len(ranked))
	for i, e := range ranked {
		out[i] = server.RankEntry{Community: q.Cands[e.Index], Name: e.Name, Skipped: e.Skipped}
		if e.Result != nil {
			out[i].Similarity = e.Result.Similarity
		}
		if e.Err != nil {
			out[i].Error = e.Err.Error()
		}
	}
	return json.Marshal(out)
}

// warmup lists the queries run back to back at the end of set-up, in
// query order: on the single-node workloads every distinct query once,
// which builds every view the window uses.
func (w *workload) warmup() []int {
	out := make([]int, min(w.spec.Warmup, len(w.queries)))
	for i := range out {
		out[i] = i
	}
	return out
}

// fullScanShare is the share of the window's reads that join every
// candidate.
func (w *workload) fullScanShare() float64 {
	full := 0
	for i := range w.window {
		if w.queries[w.window[i].Query].Full {
			full++
		}
	}
	return ratio(float64(full), float64(len(w.window)))
}
