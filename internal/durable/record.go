package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	csj "github.com/opencsj/csj"
)

// The WAL record format. Every mutation is one frame:
//
//	uint32 LE  payload length
//	uint32 LE  CRC-32C (Castagnoli) of the payload
//	payload    (length bytes)
//
// and every payload starts with a 17-byte mutation header:
//
//	byte    op (1 = put, 2 = delete)
//	int64   community id
//	uint64  store version of the mutation
//
// A put payload is the header and then exactly one community in the
// compact binary format of csj.WriteCommunityBinary; a delete payload
// is exactly the header. Trailing bytes after either are corruption.
// The CRC covers the payload only: a frame whose payload is shorter
// than its length prefix is a torn write (the process died
// mid-append), while a full-length payload that fails the CRC is
// corruption — recovery treats the two very differently (see replay).

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	opPut    = byte(1)
	opDelete = byte(2)

	frameHeaderSize    = 8
	mutationHeaderSize = 17

	// maxRecordBytes bounds a single record's payload. The community
	// binary format caps its own payload at 2 GiB, so any length prefix
	// above this is corruption, not a large record.
	maxRecordBytes = int64(1)<<31 + mutationHeaderSize + 64
)

// record is one decoded WAL mutation.
type record struct {
	op      byte
	id      int64
	version uint64
	comm    *csj.Community // put only
}

// putPayload encodes a put mutation.
func putPayload(id int64, version uint64, c *csj.Community) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(opPut)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(id))
	binary.LittleEndian.PutUint64(hdr[8:16], version)
	buf.Write(hdr[:])
	if err := csj.WriteCommunityBinary(&buf, c); err != nil {
		return nil, fmt.Errorf("durable: encoding community: %w", err)
	}
	return buf.Bytes(), nil
}

// deletePayload encodes a delete mutation.
func deletePayload(id int64, version uint64) []byte {
	p := make([]byte, mutationHeaderSize)
	p[0] = opDelete
	binary.LittleEndian.PutUint64(p[1:9], uint64(id))
	binary.LittleEndian.PutUint64(p[9:17], version)
	return p
}

// decodePayload parses a CRC-verified payload. A failure here means the
// bytes were written this way — logical corruption, never a torn write.
func decodePayload(p []byte) (record, error) {
	if len(p) < mutationHeaderSize {
		return record{}, fmt.Errorf("payload of %d bytes is shorter than the %d-byte mutation header", len(p), mutationHeaderSize)
	}
	r := record{
		op:      p[0],
		id:      int64(binary.LittleEndian.Uint64(p[1:9])),
		version: binary.LittleEndian.Uint64(p[9:17]),
	}
	switch r.op {
	case opPut:
		c, err := csj.ReadCommunityBinary(bytes.NewReader(p[mutationHeaderSize:]))
		if err != nil {
			return record{}, fmt.Errorf("put record community: %w", err)
		}
		// The binary reader buffers its input and cannot report what it
		// left unread, so compare with the community's encoded size:
		// 5 magic and 16 header bytes, the name, 4 bytes a counter.
		if n := mutationHeaderSize + 5 + 16 + len(c.Name) + 4*c.Size()*c.Dim(); len(p) != n {
			return record{}, fmt.Errorf("put record carries %d trailing bytes", len(p)-n)
		}
		r.comm = c
	case opDelete:
		if len(p) != mutationHeaderSize {
			return record{}, fmt.Errorf("delete record carries %d trailing bytes", len(p)-mutationHeaderSize)
		}
	default:
		return record{}, fmt.Errorf("unknown op %d", r.op)
	}
	return r, nil
}

// encodeFrame wraps a payload in the length+CRC frame. One contiguous
// buffer so the file write is a single syscall: a crash can tear the
// frame but cannot interleave two appends.
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderSize:], payload)
	return frame
}
