package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"testing"

	"github.com/opencsj/csj/internal/matching"
)

func TestPreparedEqualsDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		d := 1 + rng.Intn(8)
		eps := rng.Int31n(3)
		b := randCommunity(rng, "B", 10+rng.Intn(50), d, 10)
		a := randCommunity(rng, "A", 10+rng.Intn(50), d, 10)
		opts := Options{Eps: eps}
		pb, err := Prepare(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := Prepare(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		apDirect, _ := ApMinMax(b, a, opts)
		apPrep, err := ApMinMaxPrepared(pb, pa, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(apDirect.Pairs) != len(apPrep.Pairs) {
			t.Fatalf("Ap: direct %d pairs, prepared %d", len(apDirect.Pairs), len(apPrep.Pairs))
		}
		exDirect, _ := ExMinMax(b, a, opts)
		exPrep, err := ExMinMaxPrepared(pb, pa, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(exDirect.Pairs) != len(exPrep.Pairs) {
			t.Fatalf("Ex: direct %d pairs, prepared %d", len(exDirect.Pairs), len(exPrep.Pairs))
		}
	}
}

// Preparing once and playing both roles (B in one join, A in another)
// must give the same results as direct joins.
func TestPreparedPlaysBothRoles(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	opts := Options{Eps: 1}
	x := randCommunity(rng, "x", 40, 5, 8)
	y := randCommunity(rng, "y", 50, 5, 8)
	z := randCommunity(rng, "z", 45, 5, 8)
	px, _ := Prepare(x, opts)
	py, _ := Prepare(y, opts)
	pz, _ := Prepare(z, opts)

	// x as B against y, and as A against z.
	r1, err := ExMinMaxPrepared(px, py, opts)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := ExMinMax(x, y, opts)
	if len(r1.Pairs) != len(d1.Pairs) {
		t.Errorf("x-as-B: prepared %d, direct %d", len(r1.Pairs), len(d1.Pairs))
	}
	r2, err := ExMinMaxPrepared(pz, px, opts)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := ExMinMax(z, x, opts)
	if len(r2.Pairs) != len(d2.Pairs) {
		t.Errorf("x-as-A: prepared %d, direct %d", len(r2.Pairs), len(d2.Pairs))
	}
}

func TestPreparedCompatibilityChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	c5 := randCommunity(rng, "c5", 20, 5, 8)
	c6 := randCommunity(rng, "c6", 20, 6, 8)
	p5, _ := Prepare(c5, Options{Eps: 1})
	p6, _ := Prepare(c6, Options{Eps: 1})
	if _, err := ExMinMaxPrepared(p5, p6, Options{Eps: 1}); err == nil {
		t.Error("expected dimension mismatch error")
	}
	pEps2, _ := Prepare(c5, Options{Eps: 2})
	if _, err := ExMinMaxPrepared(p5, pEps2, Options{Eps: 1}); err == nil {
		t.Error("expected epsilon mismatch error")
	}
	pParts2, _ := Prepare(c5, Options{Eps: 1, Parts: 2})
	if _, err := ExMinMaxPrepared(p5, pParts2, Options{Eps: 1}); err == nil {
		t.Error("expected parts mismatch error")
	}
}

func TestPrepareValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	c := randCommunity(rng, "c", 5, 3, 5)
	if _, err := Prepare(c, Options{Eps: -1}); err == nil {
		t.Error("expected error for negative epsilon")
	}
	empty := randCommunity(rng, "e", 1, 3, 5)
	empty.Users = nil
	if _, err := Prepare(empty, Options{Eps: 1}); err == nil {
		t.Error("expected error for empty community")
	}
}

func TestPreparedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := randCommunity(rng, "roundtrip", 60, 7, 12)
	p, err := Prepare(c, Options{Eps: 2, Parts: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePrepared(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPrepared(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != p.Size() || !back.eps.Equal(p.eps) {
		t.Fatalf("metadata mismatch after round trip")
	}
	// Joins through the loaded form must equal joins through the
	// original.
	other := randCommunity(rng, "other", 70, 7, 12)
	po, _ := Prepare(other, Options{Eps: 2, Parts: 3})
	want, err := ExMinMaxPrepared(p, po, Options{Eps: 2, Matcher: matching.HopcroftKarp})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExMinMaxPrepared(back, po, Options{Eps: 2, Matcher: matching.HopcroftKarp})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("loaded prepared join found %d pairs, original %d", len(got.Pairs), len(want.Pairs))
	}
}

// TestPreparedGoldenFiles pins the on-disk bytes of both record
// versions. The files were written from one seeded community (with
// tied encoded IDs, so the Ref tie-break is on the wire): a read then
// write must reproduce each file byte for byte, and so must preparing
// that community afresh under the file's options.
func TestPreparedGoldenFiles(t *testing.T) {
	c := randCommunity(rand.New(rand.NewSource(2024)), "golden", 24, 6, 5)
	for _, g := range []struct {
		file string
		opts Options
	}{
		{"testdata/prepared_v1.csjp", Options{Eps: 2}},
		{"testdata/prepared_v2.csjp", Options{EpsVec: []int32{1, 0, 2, 3, 1, 2}, Parts: 3}},
	} {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ReadPrepared(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		var back bytes.Buffer
		if err := WritePrepared(&back, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), want) {
			t.Errorf("%s: read+write changed the bytes (%d vs %d)", g.file, back.Len(), len(want))
		}
		fresh, err := Prepare(c, g.opts)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := WritePrepared(&out, fresh); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: Prepare+WritePrepared does not reproduce the file", g.file)
		}
	}
}

// TestPreparedFootprint pins what a view is charged: its sorted columns
// (3×8 B a user), position maps (2×4 B), and SoA streams (12 B a
// dimension, 24 B a part) — and nothing for the community's vectors,
// which the store entry owns and evicting the view cannot free.
func TestPreparedFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, c := range []struct {
		n, d int
		max  int64
	}{
		{20, 6, 4_100},
		{1500, 27, 690_000},
	} {
		p, err := Prepare(randCommunity(rng, "f", c.n, c.d, 9), Options{Eps: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(c.n * (3*8 + 2*4 + 12*c.d + 24*p.layout.Parts()))
		if got := p.Footprint(); got != want || got > c.max {
			t.Errorf("%d×%d view: Footprint %d B, want %d (at most %d)", c.n, c.d, got, want, c.max)
		}
	}
}

func TestReadPreparedRejectsGarbage(t *testing.T) {
	if _, err := ReadPrepared(bytes.NewReader([]byte("NOTAPREPARED"))); err == nil {
		t.Error("expected error on bad magic")
	}
	rng := rand.New(rand.NewSource(101))
	c := randCommunity(rng, "c", 20, 4, 8)
	p, _ := Prepare(c, Options{Eps: 1})
	var buf bytes.Buffer
	if err := WritePrepared(&buf, p); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, len(full) / 3, len(full) - 2} {
		if _, err := ReadPrepared(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("expected error on truncation to %d bytes", cut)
		}
	}
}

// refOffsets returns the byte offsets of every B and A entry's Ref in a
// prepared record: the encoded buffers follow the community, behind
// their own "CSJE\x01" magic.
func refOffsets(t *testing.T, rec []byte) (bRefs, aRefs []int) {
	t.Helper()
	off := bytes.Index(rec, []byte("CSJE\x01"))
	if off < 0 {
		t.Fatal("no buffers section in the record")
	}
	u32 := func() int {
		v := int(binary.LittleEndian.Uint32(rec[off:]))
		off += 4
		return v
	}
	off += len("CSJE\x01")
	u32() // d
	parts := u32()
	for n := u32(); n > 0; n-- {
		off += 8 + 8*parts // ID, per-part sums
		bRefs = append(bRefs, off)
		off += 4
	}
	for n := u32(); n > 0; n-- {
		off += 16 + 16*parts // Min, Max, per-part range lows and highs
		aRefs = append(aRefs, off)
		off += 4
	}
	if off != len(rec) {
		t.Fatalf("buffers section ends at byte %d of %d", off, len(rec))
	}
	return bRefs, aRefs
}

// TestReadPreparedRejectsBadRefs corrupts one Ref of the golden v1
// record at a time. Each record is well formed — sorted, with parts
// summing to IDs — so only a check of every Ref catches it; an
// unchecked out-of-range Ref would index past the community's users
// while the view is built.
func TestReadPreparedRejectsBadRefs(t *testing.T) {
	golden, err := os.ReadFile("testdata/prepared_v1.csjp")
	if err != nil {
		t.Fatal(err)
	}
	bRefs, aRefs := refOffsets(t, golden)
	ref := func(off int) uint32 { return binary.LittleEndian.Uint32(golden[off:]) }
	for _, c := range []struct {
		name string
		off  int
		ref  uint32
	}{
		{"A ref out of range", aRefs[0], 1 << 20},
		{"negative B ref", bRefs[1], 0xFFFFFFFF},
		{"duplicated B ref", bRefs[1], ref(bRefs[2])},
		{"duplicated A ref", aRefs[5], ref(aRefs[4])},
	} {
		rec := bytes.Clone(golden)
		binary.LittleEndian.PutUint32(rec[c.off:], c.ref)
		if _, err := ReadPrepared(bytes.NewReader(rec)); err == nil {
			t.Errorf("%s: ReadPrepared accepted the record", c.name)
		}
	}
}

// TestReadPreparedRejectsBadBounds corrupts one encoded bound of the
// golden v1 record at a time. Each record stays well formed — sorted,
// with parts summing to IDs and every Ref naming one user per side —
// so only re-deriving every entry from the stored community catches
// it. A loaded view would trust the bound: the A entry whose Max falls
// below its Min drops a pair from the record's self-join.
func TestReadPreparedRejectsBadBounds(t *testing.T) {
	golden, err := os.ReadFile("testdata/prepared_v1.csjp")
	if err != nil {
		t.Fatal(err)
	}
	bRefs, aRefs := refOffsets(t, golden)
	parts := (bRefs[1] - bRefs[0] - 12) / 8 // an ID, the part sums, a Ref
	add := func(rec []byte, off int, delta int64) {
		binary.LittleEndian.PutUint64(rec[off:], binary.LittleEndian.Uint64(rec[off:])+uint64(delta))
	}
	for _, c := range []struct {
		name    string
		corrupt func(rec []byte)
	}{
		{"A Max below Min", func(rec []byte) {
			min := aRefs[3] - 16*parts - 16
			copy(rec[min+8:min+16], rec[min:min+8]) // Max = Min
			add(rec, min+8, -1)
		}},
		{"B part sum changed", func(rec []byte) {
			id := bRefs[len(bRefs)-1] - 8*parts - 8 // the last entry, so the order holds
			add(rec, id, 1)
			add(rec, id+8, 1) // its first part sum
		}},
	} {
		rec := bytes.Clone(golden)
		c.corrupt(rec)
		if _, err := ReadPrepared(bytes.NewReader(rec)); err == nil {
			t.Errorf("%s: ReadPrepared accepted the record", c.name)
		}
	}
}
