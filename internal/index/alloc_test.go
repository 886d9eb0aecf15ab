//go:build !race

// The index-overhead guard (mirroring internal/store's guard):
// the bound-check fast path — one UpperBoundPairs call over two warm
// summaries — must allocate 0 bytes/op, so visiting 100k candidate
// bounds per query stays allocation-free. Skipped under -race because
// the detector's instrumentation inflates allocation counts (same
// convention as the metrics and store alloc guards).

package index

import (
	"math/rand"
	"testing"

	"github.com/opencsj/csj/internal/vector"
)

func TestUpperBoundZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x, err := NewSummary(randComm(rng, "x", 64, 8, 0, 5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	y, err := NewSummary(randComm(rng, "y", 80, 8, 100, 5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	var sink int
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += UpperBoundPairs(x, y, vector.UniformEps(50))
		}
	})
	if bytes := r.AllocedBytesPerOp(); bytes != 0 {
		t.Fatalf("UpperBoundPairs allocates %d bytes/op, want 0", bytes)
	}
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Fatalf("UpperBoundPairs performs %d allocs/op, want 0", allocs)
	}
	t.Logf("bound check: %s, %d B/op (sink %d)", r, r.AllocedBytesPerOp(), sink)
}
