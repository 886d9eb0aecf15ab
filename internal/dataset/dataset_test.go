package dataset

import (
	"math"
	"math/rand"
	"testing"

	"github.com/opencsj/csj/internal/vector"
)

func TestCategoriesRegistry(t *testing.T) {
	if len(Categories) != Dim || Dim != 27 {
		t.Fatalf("got %d categories, want 27", len(Categories))
	}
	if len(VKTotalLikes) != Dim {
		t.Fatalf("got %d VK totals, want 27", len(VKTotalLikes))
	}
	// Table 1's VK column is sorted descending by total likes; the
	// registry preserves that order.
	for i := 1; i < Dim; i++ {
		if VKTotalLikes[i] > VKTotalLikes[i-1] {
			t.Errorf("VK totals not descending at %d: %d > %d", i, VKTotalLikes[i], VKTotalLikes[i-1])
		}
	}
	seen := map[string]bool{}
	for i, c := range Categories {
		if seen[c] {
			t.Errorf("duplicate category %q", c)
		}
		seen[c] = true
		if CategoryIndex(c) != i {
			t.Errorf("CategoryIndex(%q) = %d, want %d", c, CategoryIndex(c), i)
		}
	}
	if CategoryIndex("No_such_category") != -1 {
		t.Error("CategoryIndex should return -1 for unknown names")
	}
	// Spot-check the paper's extremes.
	if Categories[0] != "Entertainment" || VKTotalLikes[0] != 2111519450 {
		t.Error("rank 1 should be Entertainment with 2,111,519,450 likes")
	}
	if Categories[26] != "Communication_Services" || VKTotalLikes[26] != 474492 {
		t.Error("rank 27 should be Communication_Services with 474,492 likes")
	}
}

func TestVKGeneratorShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewVKGenerator(rng, cat("Sport"))
	if g.Name() != "vk" || g.Dim() != 27 {
		t.Fatalf("Name/Dim = %q/%d", g.Name(), g.Dim())
	}
	const n = 4000
	totals := make([]int64, Dim)
	var grand int64
	for i := 0; i < n; i++ {
		u := g.User()
		if len(u) != Dim {
			t.Fatalf("user has %d dims", len(u))
		}
		if err := vector.Validate(u); err != nil {
			t.Fatal(err)
		}
		for j, v := range u {
			totals[j] += int64(v)
		}
		grand += vector.Sum(u)
	}
	mean := float64(grand) / n
	if mean < 50 || mean > 1500 {
		t.Errorf("mean likes per user = %.1f, want a heavy-tailed value (50..1500)", mean)
	}
	// The home category must be boosted well above its global share, and
	// the most popular global category (Entertainment) must still be
	// large. The long tail (Communication_Services) must be tiny.
	sport, ent, comm := totals[cat("Sport")], totals[cat("Entertainment")], totals[cat("Communication_Services")]
	if sport < ent/2 {
		t.Errorf("home category Sport (%d) not boosted relative to Entertainment (%d)", sport, ent)
	}
	if comm*100 > ent {
		t.Errorf("tail category unexpectedly popular: Communication_Services=%d Entertainment=%d", comm, ent)
	}
}

func TestVKGeneratorSkewMatchesTable1Shape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewVKGenerator(rng, -1) // neutral population
	totals := make([]int64, Dim)
	for i := 0; i < 6000; i++ {
		for j, v := range g.User() {
			totals[j] += int64(v)
		}
	}
	// Without a home boost, the generated ranking should put
	// Entertainment on top (it holds ~30% of all VK likes) and keep the
	// bottom service categories near zero — the paper's Table 1 shape.
	top := 0
	for j := range totals {
		if totals[j] > totals[top] {
			top = j
		}
	}
	if Categories[top] != "Entertainment" {
		t.Errorf("top generated category = %s, want Entertainment", Categories[top])
	}
	if totals[cat("Communication_Services")] > totals[cat("Entertainment")]/50 {
		t.Error("generated tail is not skewed enough relative to Table 1")
	}
}

func TestSyntheticGeneratorUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewSyntheticGenerator(rng)
	if g.Name() != "synthetic" || g.Dim() != 27 {
		t.Fatalf("Name/Dim = %q/%d", g.Name(), g.Dim())
	}
	var sum float64
	var count int
	var mx int32
	for i := 0; i < 2000; i++ {
		u := g.User()
		for _, v := range u {
			if v < 0 || v > SyntheticMaxCounter {
				t.Fatalf("counter %d outside [0, %d]", v, SyntheticMaxCounter)
			}
			sum += float64(v)
			count++
			if v > mx {
				mx = v
			}
		}
	}
	mean := sum / float64(count)
	want := float64(SyntheticMaxCounter) / 2
	if math.Abs(mean-want) > want*0.02 {
		t.Errorf("mean counter = %.0f, want ~%.0f (uniform)", mean, want)
	}
	if float64(mx) < 0.99*SyntheticMaxCounter {
		t.Errorf("max counter = %d, expected the domain to be exercised near %d", mx, SyntheticMaxCounter)
	}
}

func TestPerturbIsWithinEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewSyntheticGenerator(rng)
	for trial := 0; trial < 200; trial++ {
		u := g.User()
		eps := rng.Int31n(20000)
		p := g.Perturb(u, eps)
		if !vector.MatchEpsilon(u, p, eps) {
			t.Fatalf("perturbation exceeded eps=%d", eps)
		}
		if err := vector.Validate(p); err != nil {
			t.Fatal(err)
		}
	}
	// eps = 0 must return an identical copy.
	u := g.User()
	p := g.Perturb(u, 0)
	if vector.ChebyshevDistance(u, p) != 0 {
		t.Error("eps=0 perturbation must be identical")
	}
}

// The VK-like perturbation keeps most planted copies exact (the same
// person on both pages) and bounds the rest by epsilon — that density
// of exactly-at-boundary pairs is what calibrates SuperEGO's accuracy
// loss to the paper's few-percent level.
func TestVKPerturbMostlyExactCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g := NewVKGenerator(rng, -1)
	const trials = 3000
	exact := 0
	for i := 0; i < trials; i++ {
		u := g.User()
		p := g.Perturb(u, 1)
		if !vector.MatchEpsilon(u, p, 1) {
			t.Fatal("perturbation exceeded epsilon")
		}
		if vector.ChebyshevDistance(u, p) == 0 {
			exact++
		}
	}
	frac := float64(exact) / trials
	if frac < 0.85 || frac > 0.99 {
		t.Errorf("exact-copy fraction = %.3f, want ~0.93", frac)
	}
	// eps=0 must always clone.
	u := g.User()
	if vector.ChebyshevDistance(u, g.Perturb(u, 0)) != 0 {
		t.Error("eps=0 perturbation must clone")
	}
}

func TestPairSpecValidate(t *testing.T) {
	good := PairSpec{CID: 1, SizeB: 60, SizeA: 100, Target: 0.2}
	if err := good.Validate(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	bad := []PairSpec{
		{SizeB: 0, SizeA: 10, Target: 0.2},
		{SizeB: 11, SizeA: 10, Target: 0.2},
		{SizeB: 4, SizeA: 10, Target: 0.2},  // below ceil(|A|/2)
		{SizeB: 10, SizeA: 10, Target: 1.5}, // bad target
		{SizeB: 10, SizeA: 10, Target: -0.1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should fail validation: %+v", i, s)
		}
	}
}

func TestPairSpecScaled(t *testing.T) {
	s := PairSpec{CID: 1, SizeB: 109176, SizeA: 116016, Target: 0.2}
	sc := s.Scaled(0.01, 50)
	if err := sc.Validate(); err != nil {
		t.Fatalf("scaled spec invalid: %v", err)
	}
	if sc.SizeB < 1000 || sc.SizeB > 1200 || sc.SizeA < 1100 || sc.SizeA > 1200 {
		t.Errorf("scaled sizes = %d|%d, want ~1092|1160", sc.SizeB, sc.SizeA)
	}
	// Tiny factors clamp at minSize and must still satisfy the
	// precondition.
	tiny := s.Scaled(1e-9, 25)
	if err := tiny.Validate(); err != nil {
		t.Fatalf("tiny scaled spec invalid: %v", err)
	}
	// A spec whose rounding breaks the ceil-half constraint is repaired.
	odd := PairSpec{CID: 2, SizeB: 501, SizeA: 1000, Target: 0.2}.Scaled(0.1, 1)
	if err := odd.Validate(); err != nil {
		t.Fatalf("repaired spec invalid: %v", err)
	}
}

func TestBuildPairPlantsTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, kind := range []Kind{VK, Synthetic} {
		genB := NewGenerator(kind, rng, cat("Sport"))
		genA := NewGenerator(kind, rng, cat("Music"))
		spec := PairSpec{CID: 99, NameB: "b", NameA: "a",
			CatB: cat("Sport"), CatA: cat("Music"),
			SizeB: 300, SizeA: 400, Target: 0.25}
		eps := kind.Epsilon()
		b, a, err := BuildPair(spec, genB, genA, eps, rng)
		if err != nil {
			t.Fatal(err)
		}
		if b.Size() != 300 || a.Size() != 400 {
			t.Fatalf("%v: sizes %d|%d, want 300|400", kind, b.Size(), a.Size())
		}
		if b.Name != "b" || a.Name != "a" || b.Category != cat("Sport") {
			t.Errorf("%v: metadata not propagated", kind)
		}
		// Count B users that match at least one A user: at least the
		// planted 25% must match.
		matched := 0
		for _, ub := range b.Users {
			for _, ua := range a.Users {
				if vector.MatchEpsilon(ub, ua, eps) {
					matched++
					break
				}
			}
		}
		if matched < 75 {
			t.Errorf("%v: only %d/300 B users have a match, planted 75", kind, matched)
		}
	}
}

func TestBuildPairRejectsInvalidSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := NewSyntheticGenerator(rng)
	if _, _, err := BuildPair(PairSpec{SizeB: 1, SizeA: 10, Target: 0.5}, g, g, 1, rng); err == nil {
		t.Error("expected validation error")
	}
}

func TestCouplesRegistry(t *testing.T) {
	if len(Couples) != 20 {
		t.Fatalf("got %d couples, want 20", len(Couples))
	}
	for i := range Couples {
		c := &Couples[i]
		if c.CID != i+1 {
			t.Errorf("couple %d has cID %d", i, c.CID)
		}
		spec := c.Spec(VK)
		if err := spec.Validate(); err != nil {
			t.Errorf("couple %d VK spec invalid: %v", c.CID, err)
		}
		if spec.Target <= 0 || spec.Target >= 1 {
			t.Errorf("couple %d VK target %.3f out of range", c.CID, spec.Target)
		}
		// cID 1-10 join different categories, 11-20 same categories.
		if c.CID <= 10 && c.SameCategory() {
			t.Errorf("couple %d should join different categories", c.CID)
		}
		if c.CID > 10 && !c.SameCategory() {
			t.Errorf("couple %d should join the same category", c.CID)
		}
		// Case-study floors: VK >= 15% (different) and >= 30% (same).
		if c.CID <= 10 && c.VK.ExMinMax < 15 {
			t.Errorf("couple %d VK similarity %.2f below the 15%% floor", c.CID, c.VK.ExMinMax)
		}
		if c.CID > 10 && c.VK.ExMinMax < 30 {
			t.Errorf("couple %d VK similarity %.2f below the 30%% floor", c.CID, c.VK.ExMinMax)
		}
		// Exact methods dominate approximate ones in the paper's tables.
		if c.VK.ExMinMax+1e-9 < c.VK.ApMinMax {
			t.Errorf("couple %d: VK Ex-MinMax (%.2f) below Ap-MinMax (%.2f)",
				c.CID, c.VK.ExMinMax, c.VK.ApMinMax)
		}
		// On Synthetic all exact methods agree (Tables 8 and 10).
		if c.Synthetic.ExMinMax != c.Synthetic.ExBaseline || c.Synthetic.ExMinMax != c.Synthetic.ExSuperEGO {
			t.Errorf("couple %d: Synthetic exact methods disagree", c.CID)
		}
	}
	if got := len(DifferentCategoryCouples()); got != 10 {
		t.Errorf("DifferentCategoryCouples = %d, want 10", got)
	}
	if got := len(SameCategoryCouples()); got != 10 {
		t.Errorf("SameCategoryCouples = %d, want 10", got)
	}
	if c := CoupleByID(13); c == nil || c.NameB != "FC Barcelona" {
		t.Error("CoupleByID(13) should be FC Barcelona")
	}
	if CoupleByID(42) != nil {
		t.Error("CoupleByID(42) should be nil")
	}
}

func TestScalabilityRows(t *testing.T) {
	if len(ScalabilityRows) != 20 {
		t.Fatalf("got %d scalability rows, want 20", len(ScalabilityRows))
	}
	for _, r := range ScalabilityRows {
		if CategoryIndex(r.Category) < 0 {
			t.Errorf("unknown category %q", r.Category)
		}
		for i := 1; i < 4; i++ {
			if r.Sizes[i] <= r.Sizes[i-1] {
				t.Errorf("%s sizes not increasing: %v", r.Category, r.Sizes)
			}
		}
	}
	// Spot-check the paper's largest point.
	if ScalabilityRows[8].Category != "Entertainment" || ScalabilityRows[8].Sizes[3] != 1110846 {
		t.Error("Entertainment size_4 should be 1,110,846")
	}
}

func TestKindHelpers(t *testing.T) {
	if VK.String() != "VK" || Synthetic.String() != "Synthetic" {
		t.Error("Kind.String mismatch")
	}
	if VK.Epsilon() != 1 || Synthetic.Epsilon() != 15000 {
		t.Error("Kind.Epsilon mismatch")
	}
	rng := rand.New(rand.NewSource(7))
	if NewGenerator(VK, rng, 0).Name() != "vk" {
		t.Error("NewGenerator(VK) should build the VK generator")
	}
	if NewGenerator(Synthetic, rng, 0).Name() != "synthetic" {
		t.Error("NewGenerator(Synthetic) should build the synthetic generator")
	}
}
