//go:build !race

// Skipped under -race because the detector's instrumentation inflates
// allocation counts.

package matching

import (
	"slices"
	"testing"
)

// TestGraphZeroAllocsWarm pins the point of the workspace: once a graph
// has matched a graph of some size, resetting, refilling and matching
// it again allocates nothing, for every matcher.
func TestGraphZeroAllocsWarm(t *testing.T) {
	g := NewGraph()
	diffGraph(7, g)
	edges := slices.Clone(g.edges)
	for _, m := range []struct {
		name string
		fn   Matcher
	}{{"CSF", CSF}, {"HopcroftKarp", HopcroftKarp}, {"Greedy", Greedy}} {
		allocs := testing.AllocsPerRun(100, func() {
			g.Reset()
			for _, e := range edges {
				g.AddEdge(e.B, e.A)
			}
			m.fn(g)
		})
		if allocs != 0 {
			t.Errorf("%s on a warm graph: %v allocs/op, want 0", m.name, allocs)
		}
	}
}
