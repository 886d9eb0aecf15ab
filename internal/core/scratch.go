package core

import "github.com/opencsj/csj/internal/matching"

// Scratch is the reusable per-worker state of the prepared MinMax hot
// path: the scan view, the used bitmap of the approximate scan, the
// position-pair buffer, and the match graph of the exact scan, whose
// workspace holds CSF's working state. A batch engine gives each worker
// one Scratch and threads it through every join the worker runs, so
// repeated joins, Ap and Ex alike, stop allocating entirely.
//
// A Scratch may be used by one join at a time; it is not safe for
// concurrent use. The zero value is ready to use.
type Scratch struct {
	in    Input
	used  []bool
	pairs [][2]int
	graph matching.Graph
}

// NewScratch returns an empty scratch. Buffers grow to the largest join
// seen and are retained across joins.
func NewScratch() *Scratch { return &Scratch{} }

// usedBitmap returns a cleared n-element bitmap, reusing prior storage.
func (s *Scratch) usedBitmap(n int) []bool {
	if cap(s.used) < n {
		s.used = make([]bool, n)
	}
	s.used = s.used[:n]
	clear(s.used)
	return s.used
}

// matchGraph returns the scratch's match graph, emptied for reuse.
func (s *Scratch) matchGraph() *matching.Graph {
	s.graph.Reset()
	return &s.graph
}

// bindPrepared points the scratch's scan view at the cached sorted
// columns of a prepared pair. No slice is copied or allocated: BID,
// AMin and AMax alias the arrays built once at Prepare time, and the
// fused sweeps read the SoA streams from the views themselves.
func (s *Scratch) bindPrepared(b, a *Prepared, opts *Options) *Input {
	s.in = Input{
		BID:               b.bid,
		AMin:              a.amin,
		AMax:              a.amax,
		DisableSkipOffset: opts.DisableSkipOffset,
		Done:              opts.Done,
	}
	return &s.in
}

// ApMinMaxPreparedInto runs Ap-MinMax on a prepared pair into res,
// reusing s across calls. res.Pairs is truncated and reused, so a
// caller that also recycles res allocates nothing at steady state.
// s may be nil for a one-shot run.
func ApMinMaxPreparedInto(b, a *Prepared, opts Options, s *Scratch, res *Result) error {
	if err := compatible(b, a); err != nil {
		return err
	}
	if s == nil {
		s = NewScratch()
	}
	in := s.bindPrepared(b, a, &opts)
	res.Events = Events{}
	pairs, err := apScanSoA(in, &b.soa, &a.soa, &res.Events, s)
	if err != nil {
		return err
	}
	res.Pairs = translateInto(res.Pairs[:0], pairs, b.bref, a.aref)
	return nil
}

// ExMinMaxPreparedInto runs Ex-MinMax on a prepared pair into res,
// reusing s across calls. See ApMinMaxPreparedInto.
func ExMinMaxPreparedInto(b, a *Prepared, opts Options, s *Scratch, res *Result) error {
	if err := compatible(b, a); err != nil {
		return err
	}
	if s == nil {
		s = NewScratch()
	}
	in := s.bindPrepared(b, a, &opts)
	res.Events = Events{}
	pairs, err := exScanSoA(in, &b.soa, &a.soa, opts.matcher(), &res.Events, s)
	if err != nil {
		return err
	}
	res.Pairs = translateInto(res.Pairs[:0], pairs, b.bref, a.aref)
	return nil
}
