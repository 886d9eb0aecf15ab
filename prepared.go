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

// Scratch bundles the reusable state of a prepared MinMax join: the
// scan scratch and the internal result buffer. The zero value is ready
// to use. A Scratch is not safe for concurrent use — give each worker
// goroutine its own.
type Scratch struct {
	s    core.Scratch
	cres core.Result
}

// NewScratch returns scratch state for SimilarityPreparedInto.
func NewScratch() *Scratch { return &Scratch{} }

// SimilarityPreparedInto runs a prepared MinMax join (ApMinMax or
// ExMinMax), writing the result into out. It reuses sc's scan state and
// out's Pairs capacity, so at steady state — warm scratch, sufficient
// capacity — a join performs zero allocations (guarded by
// `make storeguard`). out's previous contents are overwritten. sc may
// be nil for a one-shot run.
func SimilarityPreparedInto(b, a *PreparedCommunity, method Method, opts *Options, sc *Scratch, out *Result) error {
	return SimilarityPreparedIntoCtx(context.Background(), b, a, method, opts, sc, out)
}

// SimilarityPreparedIntoCtx is SimilarityPreparedInto with cooperative
// cancellation (see SimilarityCtx for the semantics).
func SimilarityPreparedIntoCtx(ctx context.Context, b, a *PreparedCommunity, method Method, opts *Options, sc *Scratch, out *Result) error {
	o := opts.orDefault()
	if sc == nil {
		sc = &Scratch{}
	}
	return similarityPreparedInto(ctx, b, a, method, &o, &sc.s, &sc.cres, out)
}

// similarityPreparedInto is the allocation-free engine behind every
// prepared join: SimilarityPrepared, SimilarityPreparedInto, and the
// batch engines all land here. o must already be defaulted; s and cres
// hold reusable scan state; out's Pairs capacity is reused when it
// suffices.
func similarityPreparedInto(ctx context.Context, b, a *PreparedCommunity, method Method, o *Options, s *core.Scratch, cres *core.Result, out *Result) error {
	if method != ApMinMax && method != ExMinMax {
		return fmt.Errorf("%w: SimilarityPrepared supports Ap-MinMax and Ex-MinMax, got %v",
			ErrUnknownMethod, method)
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
	if err := run(b.p, a.p, copts, s, cres); err != nil {
		return mapCanceled(ctx, err)
	}
	pairs := out.Pairs[:0]
	if cap(pairs) < len(cres.Pairs) {
		pairs = make([]Pair, 0, len(cres.Pairs))
	}
	for _, p := range cres.Pairs {
		pairs = append(pairs, Pair{B: int(p.B), A: int(p.A)})
	}
	out.Method = method
	out.Pairs = pairs
	out.SizeB = b.Size()
	out.SizeA = a.Size()
	out.Events = Events(cres.Events)
	out.Elapsed = time.Since(start)
	out.Similarity = csjScore(method, o, len(pairs), b.Size())
	out.Blend = nil // out is reused; clear any stale blend first
	applyScorerPrepared(o, b, a, out)
	if o.OnJoinEvents != nil {
		o.OnJoinEvents(out.Events)
	}
	return nil
}
