package encoding

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// On-disk format for encoded buffers (little-endian):
//
//	magic "CSJE\x01"
//	uint32 d, uint32 parts
//	uint32 nB, then per B entry: int64 ID, parts x int64, int32 ref
//	uint32 nA, then per A entry: int64 Min, int64 Max,
//	    parts x int64 range lows, parts x int64 range highs, int32 ref
//
// The entries are stored in their sorted order, so loading does not
// re-sort.

const buffersMagic = "CSJE\x01"

// WriteBuffers serializes a community's B and A encodings. Both
// buffers must share the same layout.
func WriteBuffers(w io.Writer, bb *BBuffer, ab *ABuffer) error {
	if bb.Layout != ab.Layout &&
		(bb.Layout.Dim() != ab.Layout.Dim() || bb.Layout.Parts() != ab.Layout.Parts()) {
		return fmt.Errorf("encoding: buffers disagree on layout")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(buffersMagic); err != nil {
		return err
	}
	l := bb.Layout
	writeU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		bw.Write(b[:])
	}
	writeI64 := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		bw.Write(b[:])
	}
	writeU32(uint32(l.Dim()))
	writeU32(uint32(l.Parts()))

	writeU32(uint32(len(bb.Entries)))
	for i := range bb.Entries {
		e := &bb.Entries[i]
		writeI64(e.ID)
		for _, p := range e.Parts {
			writeI64(p)
		}
		writeU32(uint32(e.Ref))
	}
	writeU32(uint32(len(ab.Entries)))
	for i := range ab.Entries {
		e := &ab.Entries[i]
		writeI64(e.Min)
		writeI64(e.Max)
		for _, p := range e.RangeLo {
			writeI64(p)
		}
		for _, p := range e.RangeHi {
			writeI64(p)
		}
		writeU32(uint32(e.Ref))
	}
	return bw.Flush()
}

// maxBufferDim bounds the dimensionality a buffers header may declare,
// the same cap the vector binary format puts on its users.
const maxBufferDim = 1 << 16

// ReadBuffers parses buffers written by WriteBuffers. The header is
// untrusted: entries are allocated as they are read, so memory tracks
// the bytes the source actually supplies rather than the counts it
// claims.
func ReadBuffers(r io.Reader) (*BBuffer, *ABuffer, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(buffersMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, fmt.Errorf("encoding: reading magic: %w", err)
	}
	if string(magic) != buffersMagic {
		return nil, nil, fmt.Errorf("encoding: bad magic %q", magic)
	}
	var rerr error
	readU32 := func() uint32 {
		if rerr != nil {
			return 0
		}
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			rerr = err
			return 0
		}
		return binary.LittleEndian.Uint32(b[:])
	}
	readI64 := func() int64 {
		if rerr != nil {
			return 0
		}
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			rerr = err
			return 0
		}
		return int64(binary.LittleEndian.Uint64(b[:]))
	}
	d := readU32()
	parts := int(readU32())
	if rerr != nil {
		return nil, nil, fmt.Errorf("encoding: reading header: %w", rerr)
	}
	if d > maxBufferDim {
		return nil, nil, fmt.Errorf("encoding: implausible dimensionality %d", d)
	}
	layout, err := NewLayout(int(d), parts)
	if err != nil {
		return nil, nil, err
	}
	const preallocEntries = 1024

	nB := int(readU32())
	if rerr != nil || nB < 0 || nB > 1<<30 {
		return nil, nil, fmt.Errorf("encoding: implausible B count %d (%v)", nB, rerr)
	}
	bb := &BBuffer{Layout: layout, Entries: make([]BEntry, 0, min(nB, preallocEntries))}
	var bBacking []int64
	for i := 0; i < nB && rerr == nil; i++ {
		id := readI64()
		for p := 0; p < parts; p++ {
			bBacking = append(bBacking, readI64())
		}
		bb.Entries = append(bb.Entries, BEntry{ID: id, Ref: int32(readU32())})
	}
	for i := range bb.Entries {
		bb.Entries[i].Parts = bBacking[i*parts : (i+1)*parts : (i+1)*parts]
	}

	nA := int(readU32())
	if rerr != nil || nA < 0 || nA > 1<<30 {
		return nil, nil, fmt.Errorf("encoding: implausible A count %d (%v)", nA, rerr)
	}
	ab := &ABuffer{Layout: layout, Entries: make([]AEntry, 0, min(nA, preallocEntries))}
	var aBacking []int64
	for i := 0; i < nA && rerr == nil; i++ {
		e := AEntry{Min: readI64(), Max: readI64()}
		for p := 0; p < 2*parts; p++ {
			aBacking = append(aBacking, readI64())
		}
		e.Ref = int32(readU32())
		ab.Entries = append(ab.Entries, e)
	}
	for i := range ab.Entries {
		base := 2 * i * parts
		ab.Entries[i].RangeLo = aBacking[base : base+parts : base+parts]
		ab.Entries[i].RangeHi = aBacking[base+parts : base+2*parts : base+2*parts]
	}
	if rerr != nil {
		return nil, nil, fmt.Errorf("encoding: truncated buffers: %w", rerr)
	}
	// Integrity: sorted orders and internal sums must hold.
	for i := 1; i < nB; i++ {
		if bb.Entries[i-1].ID > bb.Entries[i].ID {
			return nil, nil, fmt.Errorf("encoding: B buffer not sorted at %d", i)
		}
	}
	for i := 1; i < nA; i++ {
		if ab.Entries[i-1].Min > ab.Entries[i].Min {
			return nil, nil, fmt.Errorf("encoding: A buffer not sorted at %d", i)
		}
	}
	for i := range bb.Entries {
		var sum int64
		for _, p := range bb.Entries[i].Parts {
			sum += p
		}
		if sum != bb.Entries[i].ID {
			return nil, nil, fmt.Errorf("encoding: B entry %d parts do not sum to ID", i)
		}
	}
	return bb, ab, nil
}
