package csj

import (
	"context"
	"fmt"
	"time"

	"github.com/opencsj/csj/internal/core"
	"github.com/opencsj/csj/internal/vector"
)

// Footprint is the number of bytes the prepared view owns: its sorted
// encoded columns and flat scan streams. The community's vectors are
// not counted — the caller (or the store entry) owns them, and dropping
// the view does not free them. Byte-capped caches (internal/store) use
// it for eviction accounting.
func (pc *PreparedCommunity) Footprint() int64 { return pc.p.Footprint() }

// joinScratch is the reusable state of the prepared joins one goroutine
// runs: the scan scratch and the result the scan fills. The zero value
// is ready to use; it is not safe for concurrent use.
type joinScratch struct {
	s    core.Scratch
	cres core.Result
}

// checkPreparedMethod rejects a method that does not run on prepared
// views.
func checkPreparedMethod(method Method) error {
	if method != ApMinMax && method != ExMinMax {
		return fmt.Errorf("%w: SimilarityPrepared supports Ap-MinMax and Ex-MinMax, got %v",
			ErrUnknownMethod, method)
	}
	return nil
}

// similarityPrepared is the prepared join behind SimilarityPrepared and
// the batch engines. o must already be defaulted.
func similarityPrepared(ctx context.Context, b, a *PreparedCommunity, method Method, o *Options, sc *joinScratch) (*Result, error) {
	out := &Result{}
	if err := similarityPreparedInto(ctx, b, a, method, o, sc, out); err != nil {
		return nil, err
	}
	return out, nil
}

// similarityPreparedInto is the engine behind every prepared join. It
// reuses sc's scan state and out's Pairs capacity, so at steady state —
// warm scratch, sufficient capacity — a join performs zero allocations
// (TestPreparedJoinZeroAllocs). o must already be defaulted; out's
// previous contents are overwritten.
func similarityPreparedInto(ctx context.Context, b, a *PreparedCommunity, method Method, o *Options, sc *joinScratch, out *Result) error {
	if err := checkPreparedMethod(method); err != nil {
		return err
	}
	if err := o.Scorer.validate(); err != nil {
		return err
	}
	if !o.AllowSizeImbalance {
		if err := vector.CheckSizes(b.p.Community(), a.p.Community()); err != nil {
			return fmt.Errorf("%w (pass AllowSizeImbalance to override)", err)
		}
	}
	copts := core.Options{Eps: o.Epsilon, EpsVec: o.EpsilonVec, Parts: o.Parts,
		Matcher: o.Matcher.matcher(), DisableSkipOffset: o.DisableSkipOffset,
		Done: ctx.Done()}
	run := core.ApMinMaxPreparedInto
	if method == ExMinMax {
		run = core.ExMinMaxPreparedInto
	}
	start := time.Now()
	if err := run(b.p, a.p, copts, &sc.s, &sc.cres); err != nil {
		return mapCanceled(ctx, err)
	}
	out.Method = method
	out.Pairs = append(out.Pairs[:0], sc.cres.Pairs...)
	out.SizeB = b.Size()
	out.SizeA = a.Size()
	out.Events = sc.cres.Events
	out.Elapsed = time.Since(start)
	out.Similarity = csjScore(method, o, len(out.Pairs), b.Size())
	out.Blend = nil // out is reused; clear any stale blend first
	applyScorerPrepared(o, b, a, out)
	if o.OnJoinEvents != nil {
		o.OnJoinEvents(out.Events)
	}
	return nil
}
