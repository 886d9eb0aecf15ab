package vector

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzReadCSV checks that arbitrary input never panics the CSV parser
// and that everything it accepts round-trips losslessly. The corpus
// seeds the fixed ingest bugs of the hardening pass: the final line
// without a trailing newline, rows wider than the old scanner token
// cap, and negative counters; and a name holding a carriage return,
// which read back changed.
func FuzzReadCSV(f *testing.F) {
	f.Add("# category=3 name=X\n1,2,3\n4,5,6\n")
	f.Add("0\n")
	f.Add("1,2\n3,4\n")
	f.Add("")
	f.Add("#\n\n  7 , 8 \n")
	f.Add("9999999999999,1\n")
	f.Add("1,2,3\n4,5,6") // no trailing newline
	f.Add("1,-2\n")       // negative counter
	f.Add("# name=wide\n" + strings.Repeat("7,", 4096) + "7\n")
	f.Add(",\n,\n")
	f.Add("\r\n1,2\r\n")
	f.Add("#name=\r0\n0") // a carriage return inside the name
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ReadCSV(bytes.NewReader([]byte(in)))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, c); err != nil {
			t.Fatalf("WriteCSV of accepted community: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-read of written community: %v", err)
		}
		if !communitiesEqual(c, back) {
			t.Fatal("CSV round trip not lossless")
		}
	})
}

// FuzzReadBinary checks that arbitrary bytes never panic the binary
// parser. The corpus seeds the crafted-header attacks the ingest
// hardening fixed: headers claiming ~2^30 users from a tiny file,
// shapes whose product overflows the payload cap, 0xFFFFFFFF counters
// (int32(-1)), and oversized name lengths.
func FuzzReadBinary(f *testing.F) {
	good := &Community{Name: "x", Category: 3, Users: []Vector{{1, 2}, {3, 4}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, good); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CSJC\x01"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(craftBinaryHeader(0, 0, 1<<30, 3, nil))      // huge user-count claim
	f.Add(craftBinaryHeader(0, 0, 1<<26, 1<<6, nil))   // n*d*4 overflows the cap
	f.Add(craftBinaryHeader(1<<30, 0, 1, 1, nil))      // oversized name length
	f.Add(craftBinaryHeader(0, 0xFFFFFFFF, 1, 1, nil)) // category -1
	negCounter := make([]byte, 12)
	binary.LittleEndian.PutUint32(negCounter[0:], 1)
	binary.LittleEndian.PutUint32(negCounter[4:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(negCounter[8:], 3)
	f.Add(craftBinaryHeader(0, 0, 1, 3, negCounter)) // negative counter
	f.Add(buf.Bytes()[:len(buf.Bytes())-2])          // truncated payload
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ReadBinary accepted an invalid community: %v", err)
		}
	})
}

// FuzzMatchEpsilon cross-checks the match predicate against the
// Chebyshev distance on fuzz-provided vectors.
func FuzzMatchEpsilon(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, int32(1))
	f.Add([]byte{}, []byte{}, int32(0))
	f.Fuzz(func(t *testing.T, ab, bb []byte, eps int32) {
		if len(ab) != len(bb) || eps < 0 {
			return
		}
		a := make(Vector, len(ab))
		b := make(Vector, len(bb))
		for i := range ab {
			a[i] = int32(ab[i])
			b[i] = int32(bb[i])
		}
		if got, want := MatchEpsilon(a, b, eps), ChebyshevDistance(a, b) <= eps; got != want {
			t.Fatalf("MatchEpsilon=%v but Chebyshev says %v (a=%v b=%v eps=%d)", got, want, a, b, eps)
		}
	})
}
