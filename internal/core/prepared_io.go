package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"github.com/opencsj/csj/internal/encoding"
	"github.com/opencsj/csj/internal/vector"
)

// On-disk format for a prepared community (little-endian):
//
//	magic "CSJP\x01"
//	int32 epsilon
//	the community in the vector binary format
//	the encoded buffers in the encoding buffers format
//
// A prepared view built under a per-dimension epsilon vector uses the
// v2 record instead:
//
//	magic "CSJP\x02"
//	uint32 entry count, then that many int32 epsilon entries
//	the community in the vector binary format
//	the encoded buffers in the encoding buffers format
//
// Uniform views keep writing the v1 record byte-for-byte, so files from
// earlier releases load unchanged. A view does not keep its buffers, so
// writing re-encodes them from the community; the encoders break ties
// by user index, so the bytes are the ones the view was built from.
// Loading re-encodes the buffers from the stored community and rejects
// the record unless every stored entry equals its re-derived one.

const (
	preparedMagic    = "CSJP\x01"
	preparedMagicVec = "CSJP\x02"
)

// WritePrepared serializes a prepared community.
func WritePrepared(w io.Writer, p *Prepared) error {
	bw := bufio.NewWriter(w)
	var buf [4]byte
	if s, ok := p.eps.Uniform(); ok {
		if _, err := bw.WriteString(preparedMagic); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf[:], uint32(s))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	} else {
		if _, err := bw.WriteString(preparedMagicVec); err != nil {
			return err
		}
		vec := p.eps.Vec()
		binary.LittleEndian.PutUint32(buf[:], uint32(len(vec)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		for _, e := range vec {
			binary.LittleEndian.PutUint32(buf[:], uint32(e))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	if err := vector.WriteBinary(bw, p.comm); err != nil {
		return err
	}
	bb := encoding.EncodeB(p.comm, p.layout)
	ab := encoding.EncodeA(p.comm, p.layout, p.eps)
	if err := encoding.WriteBuffers(bw, bb, ab); err != nil {
		return err
	}
	return bw.Flush()
}

// maxPreparedEpsDim bounds the epsilon-vector length a v2 record may
// declare, so a corrupted count cannot drive a huge allocation.
const maxPreparedEpsDim = 1 << 20

// ReadPrepared parses a prepared community written by WritePrepared.
func ReadPrepared(r io.Reader) (*Prepared, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(preparedMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading prepared magic: %w", err)
	}
	var buf [4]byte
	var eps vector.Eps
	switch string(magic) {
	case preparedMagic:
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("core: reading prepared epsilon: %w", err)
		}
		s := int32(binary.LittleEndian.Uint32(buf[:]))
		if s < 0 {
			return nil, fmt.Errorf("core: prepared epsilon %d is negative", s)
		}
		eps = vector.UniformEps(s)
	case preparedMagicVec:
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("core: reading prepared epsilon count: %w", err)
		}
		n := binary.LittleEndian.Uint32(buf[:])
		if n == 0 || n > maxPreparedEpsDim {
			return nil, fmt.Errorf("core: prepared epsilon vector declares %d entries", n)
		}
		vec := make([]int32, n)
		for i := range vec {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, fmt.Errorf("core: reading prepared epsilon entry %d: %w", i, err)
			}
			vec[i] = int32(binary.LittleEndian.Uint32(buf[:]))
		}
		eps = vector.NewEps(0, vec)
		if err := eps.Validate(int(n)); err != nil {
			return nil, fmt.Errorf("core: prepared epsilon vector: %w", err)
		}
	default:
		return nil, fmt.Errorf("core: bad prepared magic %q", magic)
	}
	comm, err := vector.ReadBinary(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading prepared community: %w", err)
	}
	if err := eps.Validate(comm.Dim()); err != nil {
		return nil, fmt.Errorf("core: prepared epsilon vector: %w", err)
	}
	bb, ab, err := encoding.ReadBuffers(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading prepared buffers: %w", err)
	}
	if bb.Layout.Dim() != comm.Dim() {
		return nil, fmt.Errorf("core: prepared buffers are %d-dimensional, community is %d",
			bb.Layout.Dim(), comm.Dim())
	}
	if len(bb.Entries) != comm.Size() || len(ab.Entries) != comm.Size() {
		return nil, fmt.Errorf("core: prepared buffers hold %d/%d entries, community has %d users",
			len(bb.Entries), len(ab.Entries), comm.Size())
	}
	// The view indexes the community's vectors by every Ref and trusts
	// every encoded bound, so the record loads only if its buffers are
	// exactly the ones WritePrepared derives from its community; a
	// corrupted but well-formed record cannot poison later joins.
	wantB := encoding.EncodeB(comm, bb.Layout)
	for i := range bb.Entries {
		g, w := &bb.Entries[i], &wantB.Entries[i]
		if g.ID != w.ID || g.Ref != w.Ref || !slices.Equal(g.Parts, w.Parts) {
			return nil, fmt.Errorf("core: prepared B entry %d does not match its community", i)
		}
	}
	wantA := encoding.EncodeA(comm, bb.Layout, eps)
	for i := range ab.Entries {
		g, w := &ab.Entries[i], &wantA.Entries[i]
		if g.Min != w.Min || g.Max != w.Max || g.Ref != w.Ref ||
			!slices.Equal(g.RangeLo, w.RangeLo) || !slices.Equal(g.RangeHi, w.RangeHi) {
			return nil, fmt.Errorf("core: prepared A entry %d does not match its community", i)
		}
	}
	return newPrepared(comm, bb.Layout, eps, bb, ab), nil
}
