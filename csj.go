package csj

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/opencsj/csj/internal/baseline"
	"github.com/opencsj/csj/internal/core"
	"github.com/opencsj/csj/internal/ego"
	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/vector"
)

// Method selects one of the paper's six CSJ algorithms.
type Method int

const (
	// ApBaseline is the approximate nested-loop join (greedy first
	// match, skip/offset fast-forwarding).
	ApBaseline Method = iota
	// ApMinMax is the paper's approximate MinMax method: sorted MinMax
	// encoding, MIN/MAX pruning, greedy first match.
	ApMinMax
	// ApSuperEGO is the approximate adapted Super-EGO join.
	ApSuperEGO
	// ExBaseline is the exact nested-loop join: all matches, then one
	// CSF (or Hopcroft–Karp) call.
	ExBaseline
	// ExMinMax is the paper's exact MinMax method with maxV segment
	// flushing.
	ExMinMax
	// ExSuperEGO is the exact adapted Super-EGO join.
	ExSuperEGO
)

// Methods lists all six methods in the paper's presentation order.
var Methods = []Method{ApBaseline, ApMinMax, ApSuperEGO, ExBaseline, ExMinMax, ExSuperEGO}

// ApproximateMethods lists the three approximate methods.
var ApproximateMethods = []Method{ApBaseline, ApMinMax, ApSuperEGO}

// ExactMethods lists the three exact methods.
var ExactMethods = []Method{ExBaseline, ExMinMax, ExSuperEGO}

// String returns the paper's name for the method (e.g. "Ex-MinMax").
func (m Method) String() string {
	switch m {
	case ApBaseline:
		return "Ap-Baseline"
	case ApMinMax:
		return "Ap-MinMax"
	case ApSuperEGO:
		return "Ap-SuperEGO"
	case ExBaseline:
		return "Ex-Baseline"
	case ExMinMax:
		return "Ex-MinMax"
	case ExSuperEGO:
		return "Ex-SuperEGO"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// IsExact reports whether the method computes the maximum one-to-one
// matching (no greedy false misses).
func (m Method) IsExact() bool {
	return m == ExBaseline || m == ExMinMax || m == ExSuperEGO
}

// ParseMethod resolves a method name, accepting the paper's hyphenated
// names case-insensitively with or without the hyphen (e.g.
// "Ex-MinMax", "exminmax").
func ParseMethod(s string) (Method, error) {
	key := strings.ToLower(strings.NewReplacer("-", "", "_", "", " ", "").Replace(s))
	for _, m := range Methods {
		name := strings.ToLower(strings.ReplaceAll(m.String(), "-", ""))
		if key == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownMethod, s, Methods)
}

// MatcherKind selects how exact methods resolve the match graph into
// one-to-one pairs.
type MatcherKind int

const (
	// MatcherCSF is the paper's Cover Smallest First heuristic
	// (near-linear, near-optimal in practice).
	MatcherCSF MatcherKind = iota
	// MatcherHopcroftKarp is a true maximum bipartite matching
	// (O(E*sqrt(V)), guaranteed optimal).
	MatcherHopcroftKarp
	// MatcherGreedy is the naive insertion-order maximal matching; it
	// exists to quantify what CSF buys (it can lose up to half the
	// optimum on adversarial graphs).
	MatcherGreedy
)

func (k MatcherKind) matcher() matching.Matcher {
	switch k {
	case MatcherHopcroftKarp:
		return matching.HopcroftKarp
	case MatcherGreedy:
		return matching.Greedy
	default:
		return matching.CSF
	}
}

// String names the matcher kind.
func (k MatcherKind) String() string {
	switch k {
	case MatcherHopcroftKarp:
		return "HopcroftKarp"
	case MatcherGreedy:
		return "Greedy"
	default:
		return "CSF"
	}
}

// Options configure a CSJ run. The zero value joins with epsilon 0
// (exact per-dimension equality), the paper's defaults everywhere else.
type Options struct {
	// Epsilon is the per-dimension absolute-difference threshold. The
	// paper uses 1 for VK-scale counters and 15000 for its synthetic
	// [0, 500000] domain.
	Epsilon int32
	// EpsilonVec, when non-empty, replaces Epsilon with an explicit
	// per-dimension tolerance: dimension j matches within EpsilonVec[j]
	// (per-category tolerance — a strict category may demand equality
	// while a noisy one tolerates wide drift). Its length must equal the
	// profile dimensionality and every entry must be >= 0. An all-equal
	// vector canonicalizes to the scalar and is accepted everywhere;
	// heterogeneous vectors require a MinMax method (the prepared and
	// indexed engines included) — Baseline and SuperEGO return
	// ErrEpsilonVecUnsupported.
	EpsilonVec []int32
	// Parts is the MinMax encoding part count; 0 selects the paper's
	// default of 4. Used by the MinMax methods only.
	Parts int
	// Scorer, when non-nil, blends the CSJ score with category-overlap
	// and centroid-cosine signals into the reported Similarity; see
	// ScorerSpec. Pair ordering, top-k selection, and cluster merging
	// all operate on the blended score. Nil keeps the paper's score.
	Scorer *ScorerSpec
	// EGOThreshold is SuperEGO's recursion threshold t; 0 selects the
	// default (64). Used by the SuperEGO methods only.
	EGOThreshold int
	// Matcher selects the one-to-one matcher of the exact methods.
	Matcher MatcherKind
	// Float64Normalization switches SuperEGO to double-precision
	// normalization (the paper's setup is single precision).
	Float64Normalization bool
	// VerifyInteger makes SuperEGO authoritative on the original
	// integer counters, removing its normalization accuracy loss.
	VerifyInteger bool
	// DisableSkipOffset turns off the skip/offset fast-forwarding in
	// the Baseline and MinMax scans (ablation; results are unchanged).
	DisableSkipOffset bool
	// AllowSizeImbalance skips the ceil(|A|/2) <= |B| <= |A|
	// precondition check. The similarity semantics of the paper only
	// hold when the check passes.
	AllowSizeImbalance bool
	// P is the approximate-confidence factor p of Eq. (1), applied to
	// the similarity of approximate methods; 0 or 1 means no discount.
	P float64
	// DisableDimReorder keeps SuperEGO's original dimension order
	// (ablation).
	DisableDimReorder bool
	// Workers is the pool size of the batch engines (SimilarityMatrix,
	// TopK, Rank and their prepared forms): 0 selects GOMAXPROCS, 1
	// runs the cells serially on the caller's goroutine. Results are
	// identical for every pool size. A single join always runs
	// serially, as in the paper's evaluation, so Similarity,
	// SimilarityPrepared and the indexed engines ignore Workers.
	Workers int
	// OnPoolStats, when non-nil, receives per-worker utilization for
	// every worker-pool stage run by the batch engines
	// (SimilarityMatrix, TopK, Rank) — one synchronous callback per
	// stage, after the stage completes (also on error, reporting the
	// work done up to the stop). Results are unaffected; leave nil when
	// not observing.
	OnPoolStats func(PoolStats)
	// Index, when non-nil, attaches candidate-aligned pruning summaries
	// to the prepared batch engines: entry i of the index summarizes
	// candidate i. TopKPrepared then switches to the best-first exact
	// engine (TopKIndexed) and RankPrepared/RankAbovePrepared skip
	// joins their bounds prove pointless. Pruning is exact — results
	// are identical to the unindexed engines (modulo TopK's documented
	// two-phase-vs-exact semantics; see TopKPrepared).
	Index *Index
	// OnIndexStats, when non-nil, receives the pruning tallies of every
	// indexed query — one synchronous callback after the query
	// completes. Leave nil when not observing.
	OnIndexStats func(IndexStats)
	// OnJoinEvents, when non-nil, receives the event tallies of every
	// completed join — one-shot Similarity calls and each prepared cell
	// or probe of the batch engines. It is called synchronously after a
	// join finishes, possibly concurrently from pool workers, so
	// implementations must be safe for concurrent use (the metrics
	// layer's counters are). The scan hot loops are untouched: tallies
	// keep accumulating in Events and are handed over once per join.
	OnJoinEvents func(Events)
}

func (o *Options) orDefault() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.P == 0 {
		out.P = 1
	}
	// Canonicalize the spec fields (MatchSpec.Canonical's rules): an
	// all-equal epsilon vector is the scalar — by collapsing it here,
	// every downstream path literally runs the scalar code — and a no-op
	// scorer is no scorer.
	if len(out.EpsilonVec) > 0 {
		if s, ok := vector.NewEps(out.Epsilon, out.EpsilonVec).Uniform(); ok {
			out.Epsilon, out.EpsilonVec = s, nil
		}
	}
	// An invalid scorer (all-zero or negative weights) is kept so the
	// entry points can reject it instead of silently ignoring it.
	if out.Scorer != nil && out.Scorer.validate() == nil && out.Scorer.isNoop() {
		out.Scorer = nil
	}
	return out
}

// Pair is one matched user pair: indexes into B.Users and A.Users.
type Pair struct {
	B, A int
}

// Events counts the algorithmic events of one run. Fields that do not
// exist for a method (e.g. prune events for the Baseline) stay zero.
type Events struct {
	// MinPrunes and MaxPrunes count the MinMax window prunes.
	MinPrunes, MaxPrunes int64
	// NoOverlaps counts candidate pairs rejected by the part/range
	// overlap check without a d-dimensional comparison.
	NoOverlaps int64
	// NoMatches and Matches count d-dimensional comparisons by outcome.
	NoMatches, Matches int64
	// CSFCalls counts matcher invocations of the exact methods.
	CSFCalls int64
	// EGOPrunes counts SuperEGO segment pairs pruned by the
	// EGO-Strategy.
	EGOPrunes int64
	// OffsetAdvances counts skip/offset fast-forward steps.
	OffsetAdvances int64
}

// Comparisons returns the number of d-dimensional vector comparisons.
func (e *Events) Comparisons() int64 { return e.NoMatches + e.Matches }

// Result is the outcome of one CSJ computation.
type Result struct {
	// Method that produced the result.
	Method Method
	// Similarity is Eq. (1): p * |pairs| / |B|. With Options.Scorer it
	// is the composite blend instead; Blend reports the components.
	Similarity float64
	// Blend reports the unweighted score components when a composite
	// scorer was attached; nil otherwise.
	Blend *ScoreBlend
	// Pairs lists the matched user pairs.
	Pairs []Pair
	// SizeB and SizeA record the community sizes.
	SizeB, SizeA int
	// Events counts the algorithmic events of the run.
	Events Events
	// Elapsed is the wall-clock duration of the computation (excluding
	// input validation).
	Elapsed time.Duration
}

// Similarity computes the CSJ similarity of communities b and a with
// the given method. b must be the less-followed community:
// ceil(|A|/2) <= |B| <= |A| unless opts.AllowSizeImbalance is set (use
// Orient to order a pair). opts may be nil for defaults (epsilon 0).
func Similarity(b, a *Community, method Method, opts *Options) (*Result, error) {
	return SimilarityCtx(context.Background(), b, a, method, opts)
}

// SimilarityCtx is Similarity with cooperative cancellation: when ctx
// is canceled or its deadline passes, the MinMax scan loops stop at
// their next checkpoint and ctx's error is returned. The checkpoints
// are polled every few hundred outer-loop iterations, so cancellation
// latency is a small fraction of one scan and the hot path stays
// allocation-free. Methods other than Ap/Ex-MinMax check ctx only
// between phases (their scans run to completion once started).
func SimilarityCtx(ctx context.Context, b, a *Community, method Method, opts *Options) (*Result, error) {
	o := opts.orDefault()
	ib, ia := b.internal(), a.internal()
	if err := ib.Validate(0); err != nil {
		return nil, err
	}
	if err := ia.Validate(0); err != nil {
		return nil, err
	}
	if err := o.Scorer.validate(); err != nil {
		return nil, err
	}
	if !o.AllowSizeImbalance {
		if err := vector.CheckSizes(ib, ia); err != nil {
			return nil, fmt.Errorf("%w (pass AllowSizeImbalance to override)", err)
		}
	}

	start := time.Now()
	res, err := dispatch(ctx, ib, ia, method, &o)
	if err != nil {
		return nil, mapCanceled(ctx, err)
	}
	elapsed := time.Since(start)

	out := &Result{
		Method:  method,
		Pairs:   make([]Pair, len(res.Pairs)),
		SizeB:   b.Size(),
		SizeA:   a.Size(),
		Events:  Events(res.Events),
		Elapsed: elapsed,
	}
	for i, p := range res.Pairs {
		out.Pairs[i] = Pair{B: int(p.B), A: int(p.A)}
	}
	out.Similarity = csjScore(method, &o, len(out.Pairs), b.Size())
	applyScorerRaw(&o, ib, ia, out)
	if o.OnJoinEvents != nil {
		o.OnJoinEvents(out.Events)
	}
	return out, nil
}

// csjScore is the paper's score p·pairs/|B| (Eq. 1); the discount p
// applies to approximate methods only. The indexed engines turn their
// pairs bounds into scores through it as well, so a bound and the
// similarity it bounds take the same float operations and rounding
// keeps similarity <= bound exactly.
func csjScore(method Method, o *Options, pairs, sizeB int) float64 {
	p := 1.0
	if !method.IsExact() && o.P > 0 {
		p = o.P
	}
	return p * float64(pairs) / float64(sizeB)
}

// mapCanceled rewrites the scan loops' cancellation sentinel into the
// context's own error, so callers can errors.Is against
// context.Canceled or context.DeadlineExceeded.
func mapCanceled(ctx context.Context, err error) error {
	if errors.Is(err, core.ErrCanceled) {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
	}
	return err
}

func dispatch(ctx context.Context, b, a *vector.Community, method Method, o *Options) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch method {
	case ApBaseline, ExBaseline:
		if len(o.EpsilonVec) > 0 {
			return nil, fmt.Errorf("%w: %s", ErrEpsilonVecUnsupported, method)
		}
		opts := baseline.Options{
			Eps:               o.Epsilon,
			Matcher:           o.Matcher.matcher(),
			DisableSkipOffset: o.DisableSkipOffset,
		}
		if method == ApBaseline {
			return baseline.ApBaseline(b, a, opts)
		}
		return baseline.ExBaseline(b, a, opts)
	case ApMinMax, ExMinMax:
		opts := core.Options{
			Eps:               o.Epsilon,
			EpsVec:            o.EpsilonVec,
			Parts:             o.Parts,
			Matcher:           o.Matcher.matcher(),
			DisableSkipOffset: o.DisableSkipOffset,
			Done:              ctx.Done(),
		}
		if method == ApMinMax {
			return core.ApMinMax(b, a, opts)
		}
		return core.ExMinMax(b, a, opts)
	case ApSuperEGO, ExSuperEGO:
		if len(o.EpsilonVec) > 0 {
			return nil, fmt.Errorf("%w: %s", ErrEpsilonVecUnsupported, method)
		}
		opts := ego.Options{
			Eps:            o.Epsilon,
			T:              o.EGOThreshold,
			Float64:        o.Float64Normalization,
			VerifyInteger:  o.VerifyInteger,
			DisableReorder: o.DisableDimReorder,
			Matcher:        o.Matcher.matcher(),
		}
		if method == ApSuperEGO {
			return ego.ApSuperEGO(b, a, opts)
		}
		return ego.ExSuperEGO(b, a, opts)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownMethod, int(method))
	}
}
