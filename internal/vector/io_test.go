package vector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func randomCommunity(rng *rand.Rand, name string, n, d int) *Community {
	users := make([]Vector, n)
	for i := range users {
		u := make(Vector, d)
		for j := range u {
			u[j] = int32(rng.Intn(1000))
		}
		users[i] = u
	}
	return &Community{Name: name, Category: rng.Intn(27), Users: users}
}

func communitiesEqual(a, b *Community) bool {
	if a.Name != b.Name || a.Category != b.Category || len(a.Users) != len(b.Users) {
		return false
	}
	for i := range a.Users {
		if len(a.Users[i]) != len(b.Users[i]) {
			return false
		}
		for j := range a.Users[i] {
			if a.Users[i][j] != b.Users[i][j] {
				return false
			}
		}
	}
	return true
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := randomCommunity(rng, "Quick Recipes", 50, 27)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, c); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !communitiesEqual(c, got) {
		t.Error("CSV round trip mismatch")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := randomCommunity(rng, "Sportshacker", 100, 27)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, c); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !communitiesEqual(c, got) {
		t.Error("binary round trip mismatch")
	}
}

func TestBinaryNegativeCategoryRoundTrip(t *testing.T) {
	c := &Community{Name: "n", Category: -1, Users: []Vector{{1, 2, 3}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, c); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if got.Category != -1 {
		t.Errorf("Category = %d, want -1", got.Category)
	}
}

func TestReadCSVHandlesWhitespaceAndBlankLines(t *testing.T) {
	in := "# category=3 name=X\n\n 1 , 2 ,3\n4,5,6\n\n"
	c, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if c.Name != "X" || c.Category != 3 || c.Size() != 2 || c.Dim() != 3 {
		t.Errorf("parsed %+v, want name X, category 3, 2 users, 3 dims", c)
	}
	if c.Users[0][0] != 1 || c.Users[1][2] != 6 {
		t.Errorf("unexpected values: %v", c.Users)
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("1,two,3\n")); err == nil {
		t.Error("expected parse error on non-numeric field")
	}
	if _, err := ReadCSV(strings.NewReader("1,-2,3\n")); err == nil {
		t.Error("expected validation error on negative counter")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n1,2,3\n")); err == nil {
		t.Error("expected error on inconsistent dimensionality")
	}
}

func TestReadBinaryRejectsBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOTMAGICATALL"))); err == nil {
		t.Error("expected error on bad magic")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("expected error on empty input")
	}
}

func TestReadBinaryRejectsTruncated(t *testing.T) {
	c := &Community{Name: "t", Users: []Vector{{1, 2, 3}, {4, 5, 6}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, c); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, len(binaryMagic) + 3} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("expected error on truncation to %d bytes", cut)
		}
	}
}

// craftBinaryHeader builds magic + header claiming the given shape,
// followed by payload (which may be far less than the header claims).
func craftBinaryHeader(nameLen, category, n, d uint32, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	hdr := make([]byte, 0, 16)
	hdr = binary.LittleEndian.AppendUint32(hdr, nameLen)
	hdr = binary.LittleEndian.AppendUint32(hdr, category)
	hdr = binary.LittleEndian.AppendUint32(hdr, n)
	hdr = binary.LittleEndian.AppendUint32(hdr, d)
	buf.Write(hdr)
	buf.Write(payload)
	return buf.Bytes()
}

// TestReadBinaryMaliciousHeaderDoesNotPreallocate pins the ingest
// hardening: a tiny file whose header claims ~2^30 users must fail with
// an error — and without allocating memory proportional to the claim.
// Before the fix, make([]Vector, n) allocated gigabytes of slice
// headers from a 36-byte input.
func TestReadBinaryMaliciousHeaderDoesNotPreallocate(t *testing.T) {
	// n*d*4 stays under the payload cap, so only incremental allocation
	// protects us here; the read must die on the missing payload.
	in := craftBinaryHeader(0, 0, 1<<27, 1, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := ReadBinary(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("accepted a %d-byte file claiming 2^27 users: %+v", len(in), c)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("rejecting the malicious header allocated %d bytes; want memory proportional to input, not header claim", grew)
	}
}

func TestReadBinaryRejectsPayloadOverCap(t *testing.T) {
	// n and d individually plausible, but n*d*4 = 2^34 bytes.
	in := craftBinaryHeader(0, 0, 1<<26, 1<<6, nil)
	_, err := ReadBinary(bytes.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("payload over MaxBinaryPayloadBytes: err = %v, want cap error", err)
	}
}

func TestReadBinarySizedRejectsShortSource(t *testing.T) {
	c := &Community{Name: "sized", Users: []Vector{{1, 2}, {3, 4}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, c); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The true size round-trips.
	if _, err := ReadBinarySized(bytes.NewReader(full), int64(len(full))); err != nil {
		t.Fatalf("ReadBinarySized with exact hint: %v", err)
	}
	// A hint smaller than the header's claim fails up front with the
	// claim-vs-source message, not a payload read error.
	_, err := ReadBinarySized(bytes.NewReader(full), int64(len(full))-1)
	if err == nil || !strings.Contains(err.Error(), "source holds only") {
		t.Errorf("short size hint: err = %v, want claim-vs-source error", err)
	}
}

// TestReadCSVWideRow pins the scanner fix: one profile row wider than
// bufio.Scanner's old 4MiB token cap must parse (ReadCSV now streams
// lines through a bufio.Reader with no per-line limit). A row holds at
// most MaxDim counters, so each is padded with spaces, which the
// parser trims, to make the row that wide.
func TestReadCSVWideRow(t *testing.T) {
	const d = MaxDim
	var sb strings.Builder
	sb.Grow(65 * d)
	for i := 0; i < d; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%64d", i%10)
	}
	row := sb.String()
	if len(row) <= 1<<22 {
		t.Fatalf("test row is only %d bytes; must exceed the old 4MiB cap", len(row))
	}
	c, err := ReadCSV(strings.NewReader(row + "\n" + row + "\n"))
	if err != nil {
		t.Fatalf("ReadCSV wide row: %v", err)
	}
	if c.Size() != 2 || c.Dim() != d {
		t.Fatalf("parsed %d users x %d dims, want 2 x %d", c.Size(), c.Dim(), d)
	}
	if c.Users[1][d-1] != int32((d-1)%10) {
		t.Errorf("last counter = %d, want %d", c.Users[1][d-1], (d-1)%10)
	}
}

// TestReadCSVFinalLineWithoutNewline guards the bufio.Reader rewrite:
// the last row must parse even when the file has no trailing newline.
func TestReadCSVFinalLineWithoutNewline(t *testing.T) {
	c, err := ReadCSV(strings.NewReader("1,2,3\n4,5,6"))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if c.Size() != 2 || c.Users[1][2] != 6 {
		t.Errorf("parsed %+v, want 2 users ending in 6", c.Users)
	}
}

// TestIngestRejectsNegativeCounters pins that both ingest paths refuse
// negative counters (the scan loops assume non-negative profiles). The
// binary case crafts 0xFFFFFFFF, which decodes to int32(-1).
func TestIngestRejectsNegativeCounters(t *testing.T) {
	payload := make([]byte, 12)
	binary.LittleEndian.PutUint32(payload[0:], 1)
	binary.LittleEndian.PutUint32(payload[4:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(payload[8:], 3)
	in := craftBinaryHeader(0, 0, 1, 3, payload)
	if _, err := ReadBinary(bytes.NewReader(in)); !errors.Is(err, ErrNegativeCounter) {
		t.Errorf("binary negative counter: err = %v, want ErrNegativeCounter", err)
	}
	if _, err := ReadCSV(strings.NewReader("7,8\n1,-2\n")); !errors.Is(err, ErrNegativeCounter) {
		t.Errorf("csv negative counter: err = %v, want ErrNegativeCounter", err)
	}
}
