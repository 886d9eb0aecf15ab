package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/opencsj/csj/internal/matching"
)

// hashComparer produces deterministic pseudo-random outcomes for
// in-window pairs, so the scan loops can be tested against brute-force
// references on arbitrary window structures.
type hashComparer struct {
	salt int64
}

func (c *hashComparer) Compare(bPos, aPos int) Outcome {
	h := uint64(c.salt)*0x9e3779b97f4a7c15 + uint64(bPos)*0xbf58476d1ce4e5b9 + uint64(aPos)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0x7fb5d329728ea185
	h ^= h >> 27
	switch h % 10 {
	case 0, 1: // 20% match
		return OutcomeMatch
	case 2, 3, 4: // 30% no-overlap
		return OutcomeNoOverlap
	default:
		return OutcomeNoMatch
	}
}

// randomInput builds a random but well-formed scan input: BID ascending,
// A windows ascending by Min with Max >= Min, and windows wide enough
// that pruning, overlap, and matches all occur.
func randomInput(rng *rand.Rand, salt int64) *Input {
	nb, na := 1+rng.Intn(40), 1+rng.Intn(40)
	in := &Input{
		BID:  make([]int64, nb),
		AMin: make([]int64, na),
		AMax: make([]int64, na),
		Cmp:  &hashComparer{salt: salt},
	}
	for i := range in.BID {
		in.BID[i] = int64(rng.Intn(200))
	}
	sort.Slice(in.BID, func(x, y int) bool { return in.BID[x] < in.BID[y] })
	for i := range in.AMin {
		in.AMin[i] = int64(rng.Intn(200))
		in.AMax[i] = in.AMin[i] + int64(rng.Intn(60))
	}
	sort.Sort(byMin{in})
	return in
}

type byMin struct{ in *Input }

func (s byMin) Len() int { return len(s.in.AMin) }
func (s byMin) Less(x, y int) bool {
	if s.in.AMin[x] != s.in.AMin[y] {
		return s.in.AMin[x] < s.in.AMin[y]
	}
	return s.in.AMax[x] < s.in.AMax[y]
}
func (s byMin) Swap(x, y int) {
	s.in.AMin[x], s.in.AMin[y] = s.in.AMin[y], s.in.AMin[x]
	s.in.AMax[x], s.in.AMax[y] = s.in.AMax[y], s.in.AMax[x]
}

// referenceAp is the specification of the approximate scan: for each b
// in order, take the first unconsumed in-window a that the comparer
// matches. No pruning, no offset — just the semantics.
func referenceAp(in *Input) [][2]int {
	var pairs [][2]int
	used := make([]bool, len(in.AMin))
	for bi := range in.BID {
		for ai := range in.AMin {
			if used[ai] || in.BID[bi] < in.AMin[ai] || in.BID[bi] > in.AMax[ai] {
				continue
			}
			if in.Cmp.Compare(bi, ai) == OutcomeMatch {
				used[ai] = true
				pairs = append(pairs, [2]int{bi, ai})
				break
			}
		}
	}
	return pairs
}

// referenceExGraph collects every in-window matching pair.
func referenceExGraph(in *Input) *matching.Graph {
	g := matching.NewGraph()
	for bi := range in.BID {
		for ai := range in.AMin {
			if in.BID[bi] < in.AMin[ai] || in.BID[bi] > in.AMax[ai] {
				continue
			}
			if in.Cmp.Compare(bi, ai) == OutcomeMatch {
				g.AddEdge(int32(bi), int32(ai))
			}
		}
	}
	return g
}

// The approximate scan with all its pruning must produce exactly the
// pairs of the no-pruning reference.
func TestApScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 200; trial++ {
		in := randomInput(rng, int64(trial))
		var ev Events
		got, _ := apScan(in, &ev, nil)
		want := referenceAp(in)
		if len(got) != len(want) {
			t.Fatalf("trial %d: apScan found %d pairs, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pair %d = %v, reference %v", trial, i, got[i], want[i])
			}
		}
		// And again with skip/offset disabled.
		in.DisableSkipOffset = true
		var ev2 Events
		got2, _ := apScan(in, &ev2, nil)
		if len(got2) != len(want) {
			t.Fatalf("trial %d: apScan(no skip) found %d pairs, reference %d",
				trial, len(got2), len(want))
		}
	}
}

// The exact scan's segment flushing must lose nothing: with the
// Hopcroft–Karp matcher its pair count equals the maximum matching of
// the brute-force candidate graph, and its match events equal the
// graph's edge count.
func TestExScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(222))
	for trial := 0; trial < 200; trial++ {
		in := randomInput(rng, int64(1000+trial))
		var ev Events
		got, _ := exScan(in, matching.HopcroftKarp, &ev, nil)
		g := referenceExGraph(in)
		if want := matching.MaximumMatchingSize(g); len(got) != want {
			t.Fatalf("trial %d: exScan(HK) found %d pairs, global optimum %d",
				trial, len(got), want)
		}
		if ev.Matches != int64(g.Edges()) {
			t.Fatalf("trial %d: exScan saw %d match events, graph has %d edges",
				trial, ev.Matches, g.Edges())
		}
		// One-to-one validity.
		seenB := map[int]bool{}
		seenA := map[int]bool{}
		for _, p := range got {
			if seenB[p[0]] || seenA[p[1]] {
				t.Fatalf("trial %d: pairs not one-to-one", trial)
			}
			seenB[p[0]], seenA[p[1]] = true, true
		}
	}
}

// CSF-resolved exact scans stay within the optimum and above the
// half-optimum maximality bound on the same random inputs.
func TestExScanCSFBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(333))
	for trial := 0; trial < 100; trial++ {
		in := randomInput(rng, int64(2000+trial))
		var ev Events
		got, _ := exScan(in, matching.CSF, &ev, nil)
		opt := matching.MaximumMatchingSize(referenceExGraph(in))
		if len(got) > opt {
			t.Fatalf("trial %d: CSF exceeded the optimum (%d > %d)", trial, len(got), opt)
		}
		if 2*len(got) < opt {
			t.Fatalf("trial %d: CSF below half the optimum (%d vs %d)", trial, len(got), opt)
		}
	}
}

// Degenerate inputs must not trip the scan loops.
func TestScanDegenerateInputs(t *testing.T) {
	cmp := &hashComparer{salt: 7}
	var ev Events

	empty := &Input{Cmp: cmp}
	if got, _ := apScan(empty, &ev, nil); len(got) != 0 {
		t.Error("apScan on empty input should find nothing")
	}
	if got, _ := exScan(empty, matching.CSF, &ev, nil); len(got) != 0 {
		t.Error("exScan on empty input should find nothing")
	}

	bOnly := &Input{BID: []int64{1, 2, 3}, Cmp: cmp}
	if got, _ := apScan(bOnly, &ev, nil); len(got) != 0 {
		t.Error("apScan with empty A should find nothing")
	}
	aOnly := &Input{AMin: []int64{1}, AMax: []int64{5}, Cmp: cmp}
	if got, _ := exScan(aOnly, matching.CSF, &ev, nil); len(got) != 0 {
		t.Error("exScan with empty B should find nothing")
	}

	// All-identical windows and IDs: everything is in-window.
	n := 10
	flat := &Input{
		BID:  make([]int64, n),
		AMin: make([]int64, n),
		AMax: make([]int64, n),
		Cmp:  &alwaysMatch{},
	}
	got, _ := exScan(flat, matching.HopcroftKarp, &ev, nil)
	if len(got) != n {
		t.Errorf("flat input: %d pairs, want %d (perfect matching)", len(got), n)
	}
}

type alwaysMatch struct{}

func (alwaysMatch) Compare(int, int) Outcome { return OutcomeMatch }
