package core

import (
	"fmt"

	"github.com/opencsj/csj/internal/encoding"
	"github.com/opencsj/csj/internal/vector"
)

// Prepared caches both roles of a community's MinMax encoding — the
// Encd_B side it needs as the smaller community and the Encd_A side it
// needs as the larger — so that joining N communities pairwise encodes
// each community once instead of O(N) times. The paper's
// broadcast-recommendation scenario ("the online system applies CSJ to
// a variety of community pairs") is exactly this workload.
//
// A view holds only what the fused SoA sweep reads (DESIGN.md §14):
// the sorted encoded columns, the flat streams, and the sorted-position
// to user-index maps that translate matched positions into pairs. The
// Encd_B/Encd_A entry buffers are built once to fill these and then
// dropped. A view is never persisted: everything in it derives from
// the community's vectors, the tolerance and the part count, so a
// caller that stores the community rebuilds the view with Prepare
// (DESIGN.md §10).
//
// A Prepared is immutable after construction and safe for concurrent
// joins: the cached columns and streams are only ever read.
type Prepared struct {
	comm   *vector.Community
	layout *encoding.Layout
	eps    vector.Eps

	// Sorted encoded columns: B's encoded IDs ascending, A's encoded
	// [Min, Max] windows ascending by Min. Built once here so assembling
	// a join Input is pointer assembly instead of three O(n) copies per
	// join (O(N²·n) across a similarity matrix).
	bid        []int64
	amin, amax []int64
	// bref and aref map a sorted B/A position to its user index.
	bref, aref []int32

	// soa holds the flat structure-of-arrays streams of the fused
	// sweep: contiguous per-dimension counters and saturated epsilon
	// windows plus per-part sums and ranges, all in sorted-buffer
	// order, so the B×A sweep reads sequential memory.
	soa soaStreams
}

// Prepare encodes the community for repeated MinMax joins under the
// given epsilon (scalar or per-dimension) and part count.
func Prepare(c *vector.Community, opts Options) (*Prepared, error) {
	if c.Size() == 0 {
		return nil, vector.ErrEmptyCommunity
	}
	if opts.Eps < 0 {
		return nil, fmt.Errorf("core: epsilon %d must be non-negative", opts.Eps)
	}
	eps := opts.eps()
	if err := eps.Validate(c.Dim()); err != nil {
		return nil, err
	}
	layout, err := opts.layout(c.Dim())
	if err != nil {
		return nil, err
	}
	// The sorted buffers fill the view's columns and streams and are
	// not retained.
	bb, ab := encoding.EncodeB(c, layout), encoding.EncodeA(c, layout, eps)
	p := &Prepared{
		comm:   c,
		layout: layout,
		eps:    eps,
		bid:    make([]int64, len(bb.Entries)),
		bref:   make([]int32, len(bb.Entries)),
		amin:   make([]int64, len(ab.Entries)),
		amax:   make([]int64, len(ab.Entries)),
		aref:   make([]int32, len(ab.Entries)),
		soa:    soaStreams{d: c.Dim(), parts: layout.Parts()},
	}
	for i := range bb.Entries {
		p.bid[i] = bb.Entries[i].ID
		p.bref[i] = bb.Entries[i].Ref
	}
	for i := range ab.Entries {
		p.amin[i] = ab.Entries[i].Min
		p.amax[i] = ab.Entries[i].Max
		p.aref[i] = ab.Entries[i].Ref
	}
	p.soa.buildB(c.Users, bb)
	p.soa.buildA(c.Users, ab, eps)
	return p, nil
}

// Community returns the underlying community.
func (p *Prepared) Community() *vector.Community { return p.comm }

// Size returns the community size.
func (p *Prepared) Size() int { return p.comm.Size() }

// Footprint is the resident size of the view's own arrays in bytes:
// the sorted columns, the position maps, and the SoA streams.
// Byte-capped caches use it for eviction accounting. The community's
// vectors are not counted: the store entry owns them, and evicting the
// view cannot free them. Slice headers and allocator slack are not
// counted either.
func (p *Prepared) Footprint() int64 {
	return int64(len(p.bid)+len(p.amin)+len(p.amax))*8 +
		int64(len(p.bref)+len(p.aref))*4 +
		p.soa.footprint()
}

// epsString renders a tolerance for error messages: the scalar digits,
// or the bracketed vector.
func epsString(e vector.Eps) string {
	if s, ok := e.Uniform(); ok {
		return fmt.Sprintf("%d", s)
	}
	return fmt.Sprintf("%v", e.Vec())
}

// compatible checks that two prepared communities can be joined.
func compatible(b, a *Prepared) error {
	if b.comm.Dim() != a.comm.Dim() {
		return fmt.Errorf("%w: B has %d dimensions, A has %d",
			vector.ErrDimensionMismatch, b.comm.Dim(), a.comm.Dim())
	}
	if !b.eps.Equal(a.eps) {
		return fmt.Errorf("core: prepared communities disagree on epsilon (%s vs %s)",
			epsString(b.eps), epsString(a.eps))
	}
	if b.layout.Parts() != a.layout.Parts() {
		return fmt.Errorf("core: prepared communities disagree on parts (%d vs %d)",
			b.layout.Parts(), a.layout.Parts())
	}
	return nil
}

// ApMinMaxPrepared runs Ap-MinMax on two prepared communities.
func ApMinMaxPrepared(b, a *Prepared, opts Options) (*Result, error) {
	res := &Result{}
	if err := ApMinMaxPreparedInto(b, a, opts, nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ExMinMaxPrepared runs Ex-MinMax on two prepared communities.
func ExMinMaxPrepared(b, a *Prepared, opts Options) (*Result, error) {
	res := &Result{}
	if err := ExMinMaxPreparedInto(b, a, opts, nil, res); err != nil {
		return nil, err
	}
	return res, nil
}
