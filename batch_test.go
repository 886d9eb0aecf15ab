package csj_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	csj "github.com/opencsj/csj"
)

// batchComms synthesizes n communities with mutual overlap and sizes
// within the CSJ precondition of one another.
func batchComms(rng *rand.Rand, n int) []*csj.Community {
	base := randComm(rng, "base", 60, 4, 7)
	comms := make([]*csj.Community, n)
	for i := range comms {
		size := 55 + rng.Intn(12)
		c := overlapped(rng, fmt.Sprintf("comm-%02d", i), size, base, 0.4)
		comms[i] = c
	}
	return comms
}

func stripElapsed(r *csj.Result) {
	if r != nil {
		r.Elapsed = 0
	}
}

// workerSweep is the worker counts the equivalence tests compare
// against the serial run.
func workerSweep() []int {
	return []int{2, 7, runtime.GOMAXPROCS(0)}
}

// TestSimilarityMatrixWorkerEquivalence checks the parallel matrix is
// byte-identical (excluding Elapsed) to the serial one: with
// MatcherHopcroftKarp and with the paper's CSF matcher alike, since
// every cell is an independent serial join.
func TestSimilarityMatrixWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	comms := batchComms(rng, 6)
	for _, matcher := range []csj.MatcherKind{csj.MatcherHopcroftKarp, csj.MatcherCSF} {
		run := func(workers int) []csj.MatrixEntry {
			out, err := csj.SimilarityMatrix(context.Background(), comms, csj.ExMinMax,
				&csj.Options{Epsilon: 1, Matcher: matcher, Workers: workers})
			if err != nil {
				t.Fatalf("matcher=%v workers=%d: %v", matcher, workers, err)
			}
			for i := range out {
				stripElapsed(out[i].Result)
			}
			return out
		}
		serial := run(1)
		if len(serial) != 15 { // C(6,2)
			t.Fatalf("matcher=%v: got %d entries, want 15", matcher, len(serial))
		}
		for _, w := range workerSweep() {
			if got := run(w); !reflect.DeepEqual(got, serial) {
				t.Errorf("matcher=%v: workers=%d matrix differs from serial", matcher, w)
			}
		}
	}
}

// TestRankWorkerEquivalence checks the candidate fan-out of Rank does
// not perturb the ranking.
func TestRankWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	comms := batchComms(rng, 8)
	pivot, cands := comms[0], comms[1:]
	run := func(workers int) []csj.Ranked {
		out, err := csj.Rank(context.Background(), pivot, cands, csj.ExMinMax,
			&csj.Options{Epsilon: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range out {
			stripElapsed(out[i].Result)
		}
		return out
	}
	serial := run(1)
	for _, w := range workerSweep() {
		if got := run(w); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d ranking differs from serial", w)
		}
	}
}

// TestParallelScanDeterministicCSF checks that an exact join asked for
// Workers yields the same pairs on repeated runs: a single join runs
// serially whatever Options.Workers says, so CSF's tie-breaking always
// sees the same graph in the same order.
func TestParallelScanDeterministicCSF(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	b := randComm(rng, "B", 90, 4, 6)
	a := randComm(rng, "A", 110, 4, 6)
	opts := &csj.Options{Epsilon: 1, Matcher: csj.MatcherCSF, Workers: 3}
	first, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Pairs) == 0 {
		t.Fatal("want a non-trivial match set")
	}
	for rep := 0; rep < 5; rep++ {
		got, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Pairs, first.Pairs) {
			t.Fatalf("rep %d: CSF pairs differ between runs", rep)
		}
	}
}

func benchComms(n, size int) []*csj.Community {
	rng := rand.New(rand.NewSource(61))
	base := randComm(rng, "base", size, 4, 9)
	comms := make([]*csj.Community, n)
	for i := range comms {
		sz := size - size/20 + rng.Intn(size/10+1)
		comms[i] = overlapped(rng, fmt.Sprintf("bench-%02d", i), sz, base, 0.3)
	}
	return comms
}

func BenchmarkSimilarityMatrix(b *testing.B) {
	comms := benchComms(8, 300)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := &csj.Options{Epsilon: 1, Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := csj.SimilarityMatrix(context.Background(), comms, csj.ExMinMax, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTopK(b *testing.B) {
	comms := benchComms(9, 300)
	pivot, cands := comms[0], comms[1:]
	opts := &csj.Options{Epsilon: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csj.TopK(context.Background(), pivot, cands, 3, opts); err != nil {
			b.Fatal(err)
		}
	}
}
