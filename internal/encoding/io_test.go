package encoding

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"github.com/opencsj/csj/internal/vector"
)

func buildBuffers(t *testing.T, seed int64, n, d, parts int, eps int32) (*BBuffer, *ABuffer) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	users := make([]vector.Vector, n)
	for i := range users {
		u := make(vector.Vector, d)
		for j := range u {
			u[j] = rng.Int31n(100)
		}
		users[i] = u
	}
	c := &vector.Community{Name: "c", Users: users}
	l, err := NewLayout(d, parts)
	if err != nil {
		t.Fatal(err)
	}
	return EncodeB(c, l), EncodeA(c, l, vector.UniformEps(eps))
}

func buffersEqual(bb1, bb2 *BBuffer, ab1, ab2 *ABuffer) bool {
	if len(bb1.Entries) != len(bb2.Entries) || len(ab1.Entries) != len(ab2.Entries) {
		return false
	}
	for i := range bb1.Entries {
		e1, e2 := &bb1.Entries[i], &bb2.Entries[i]
		if e1.ID != e2.ID || e1.Ref != e2.Ref || len(e1.Parts) != len(e2.Parts) {
			return false
		}
		for p := range e1.Parts {
			if e1.Parts[p] != e2.Parts[p] {
				return false
			}
		}
	}
	for i := range ab1.Entries {
		e1, e2 := &ab1.Entries[i], &ab2.Entries[i]
		if e1.Min != e2.Min || e1.Max != e2.Max || e1.Ref != e2.Ref {
			return false
		}
		for p := range e1.RangeLo {
			if e1.RangeLo[p] != e2.RangeLo[p] || e1.RangeHi[p] != e2.RangeHi[p] {
				return false
			}
		}
	}
	return true
}

func TestBuffersRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		n, d, parts int
		eps         int32
	}{
		{50, 27, 4, 1},
		{1, 1, 1, 0},
		{10, 8, 8, 3},
		{200, 12, 2, 15000},
	} {
		bb, ab := buildBuffers(t, int64(tc.n), tc.n, tc.d, tc.parts, tc.eps)
		var buf bytes.Buffer
		if err := WriteBuffers(&buf, bb, ab); err != nil {
			t.Fatalf("%+v: WriteBuffers: %v", tc, err)
		}
		bb2, ab2, err := ReadBuffers(&buf)
		if err != nil {
			t.Fatalf("%+v: ReadBuffers: %v", tc, err)
		}
		if !buffersEqual(bb, bb2, ab, ab2) {
			t.Fatalf("%+v: round trip mismatch", tc)
		}
		if bb2.Layout.Dim() != tc.d || bb2.Layout.Parts() != tc.parts {
			t.Fatalf("%+v: layout mismatch", tc)
		}
	}
}

func TestReadBuffersRejectsCorruption(t *testing.T) {
	bb, ab := buildBuffers(t, 3, 20, 6, 3, 1)
	var buf bytes.Buffer
	if err := WriteBuffers(&buf, bb, ab); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, _, err := ReadBuffers(bytes.NewReader([]byte("WRONGMAGIC"))); err == nil {
		t.Error("expected error on bad magic")
	}
	for _, cut := range []int{len(full) - 1, len(full) / 2, 7} {
		if _, _, err := ReadBuffers(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("expected error on truncation to %d bytes", cut)
		}
	}
	// Flip a B entry's ID so parts no longer sum to it: integrity check
	// must reject. The first ID lives right after magic + d + parts + nB.
	corrupt := append([]byte(nil), full...)
	idOffset := len("CSJE\x01") + 4 + 4 + 4
	corrupt[idOffset] ^= 0x01
	if _, _, err := ReadBuffers(bytes.NewReader(corrupt)); err == nil {
		t.Error("expected error on corrupted entry")
	}
}

// TestReadBuffersUntrustedHeader: the counts in a buffers header are
// claims, not sizes. A header claiming 2^30 B entries over an empty
// body must fail on the missing bytes without allocating for the
// claim, and one declaring a dimensionality (and so a part count) past
// the cap is refused before any layout is built for it.
func TestReadBuffersUntrustedHeader(t *testing.T) {
	header := func(d, parts, nB uint32) []byte {
		b := []byte("CSJE\x01")
		for _, v := range []uint32{d, parts, nB} {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"2^30 B entries claimed", header(6, 3, 1<<30)},
		{"dimensionality past the cap", header(0xFFFFFFFF, 0xFFFFFFFF, 0)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadBuffers(bytes.NewReader(c.in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: ReadBuffers accepted the header", c.name)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("%s: ReadBuffers allocated %d bytes for a %d-byte input", c.name, grown, len(c.in))
		}
	}
}
