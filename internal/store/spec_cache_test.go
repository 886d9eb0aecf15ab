package store

import (
	"math/rand"
	"testing"

	csj "github.com/opencsj/csj"
)

// TestSpecKeyedCacheSharing pins the canonical-spec keying of the view
// cache: every spelling of the same predicate — scalar vs all-equal
// vector, parts 0 vs the explicit default, with or without a scorer —
// lands on one cached view and one build.
func TestSpecKeyedCacheSharing(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(20))
	e := mustCreate(t, st, testCommunity("c", rng, 16, 4))
	snap := st.Snapshot()

	v1, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	sameSpecs := []csj.MatchSpec{
		{EpsilonVec: []int32{2, 2, 2, 2}},
		{Epsilon: 2, Parts: csj.DefaultParts},
		{Epsilon: 2, Scorer: &csj.ScorerSpec{CSJWeight: 1, CosineWeight: 1}},
		{Epsilon: 2, Scorer: &csj.ScorerSpec{CSJWeight: 5}}, // no-op scorer
	}
	for _, spec := range sameSpecs {
		v, err := snap.PreparedSpec(e.ID, spec)
		if err != nil {
			t.Fatal(err)
		}
		if v != v1 {
			t.Errorf("spec %+v built a distinct view; want the canonical shared one", spec)
		}
	}
	if cs := st.CacheStats(); cs.Builds != 1 {
		t.Errorf("builds = %d, want 1 shared build across equivalent spellings", cs.Builds)
	}

	// A genuinely heterogeneous vector is a different view.
	v2, err := snap.PreparedSpec(e.ID, csj.MatchSpec{EpsilonVec: []int32{2, 2, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if v2 == v1 {
		t.Error("heterogeneous vector shared the scalar view")
	}
	if cs := st.CacheStats(); cs.Builds != 2 {
		t.Errorf("builds = %d, want 2 after a distinct vector spec", cs.Builds)
	}
}

// TestNegativePartsMissesDefaultView: a cached default view must not
// answer a lookup with a negative part count; the lookup builds under
// its own key and fails, as it does on a cold cache.
func TestNegativePartsMissesDefaultView(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(22))
	e := mustCreate(t, st, testCommunity("c", rng, 16, 6))
	snap := st.Snapshot()
	if _, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 2}); err != nil {
		t.Fatal(err)
	}
	if v, err := snap.PreparedSpec(e.ID, csj.MatchSpec{Epsilon: 2, Parts: -1}); err == nil {
		t.Fatalf("parts -1 returned view %p; want an error", v)
	}
}

// TestSpecKeyedCacheCollisionResistance: two specs whose naive string
// encodings collide (epsilon vectors [1, 23] and [12, 3] both print
// "123" when entries are concatenated) must map to distinct cache
// entries — the digest's length-prefixed fixed-width encoding is
// injective, so no two canonical specs can alias.
func TestSpecKeyedCacheCollisionResistance(t *testing.T) {
	st := New(Config{})
	rng := rand.New(rand.NewSource(21))
	e := mustCreate(t, st, testCommunity("c", rng, 12, 2))
	snap := st.Snapshot()

	va, err := snap.PreparedSpec(e.ID, csj.MatchSpec{EpsilonVec: []int32{1, 23}})
	if err != nil {
		t.Fatal(err)
	}
	vb, err := snap.PreparedSpec(e.ID, csj.MatchSpec{EpsilonVec: []int32{12, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if va == vb {
		t.Fatal("colliding naive encodings shared one cache entry")
	}
	if cs := st.CacheStats(); cs.Builds != 2 || cs.Entries != 2 {
		t.Errorf("builds=%d entries=%d, want 2 distinct views", cs.Builds, cs.Entries)
	}
}

// TestSpecDigestStability: the digest of a fixed spec must not drift
// between calls or store instances — a drifting digest would silently
// turn every warm request into a rebuild.
func TestSpecDigestStability(t *testing.T) {
	spec := csj.MatchSpec{EpsilonVec: []int32{0, 4, 1}, Parts: 2,
		Scorer: &csj.ScorerSpec{CSJWeight: 2, CategoryWeight: 1}}
	d1 := spec.Digest(3)
	for i := 0; i < 100; i++ {
		if spec.Digest(3) != d1 {
			t.Fatal("digest drifted between calls")
		}
	}
	if spec.Digest(4) == d1 {
		t.Fatal("digest ignores dimensionality")
	}
	if len(d1.String()) != 64 {
		t.Fatalf("digest hex is %d chars, want 64", len(d1.String()))
	}
}
