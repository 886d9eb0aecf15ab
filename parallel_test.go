package csj_test

import (
	"math/rand"
	"reflect"
	"testing"

	csj "github.com/opencsj/csj"
)

// Options.Workers sizes the batch engines' pool and nothing else: a
// one-shot join runs serially, so for every exact method, with the
// default CSF matcher, the pairs and the reported events are exactly
// those of a run without it.
func TestWorkersOptionPreservesExactResults(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		na := 60 + rng.Intn(60)
		nb := (na+1)/2 + rng.Intn(na-(na+1)/2+1)
		b := randComm(rng, "B", nb, 6, 10)
		a := randComm(rng, "A", na, 6, 10)
		for _, m := range csj.ExactMethods {
			want, err := csj.Similarity(b, a, m, &csj.Options{Epsilon: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 8} {
				got, err := csj.Similarity(b, a, m, &csj.Options{Epsilon: 1, Workers: workers})
				if err != nil {
					t.Fatalf("trial %d %v workers=%d: %v", trial, m, workers, err)
				}
				if !reflect.DeepEqual(got.Pairs, want.Pairs) {
					t.Errorf("trial %d %v workers=%d: pairs differ from the plain run", trial, m, workers)
				}
				if got.Events != want.Events {
					t.Errorf("trial %d %v workers=%d: events %+v, plain run %+v",
						trial, m, workers, got.Events, want.Events)
				}
			}
		}
	}
}

// Approximate methods ignore Workers: identical pair sequences and
// events.
func TestWorkersIgnoredByApproximateMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	b := randComm(rng, "B", 50, 4, 8)
	a := randComm(rng, "A", 60, 4, 8)
	for _, m := range csj.ApproximateMethods {
		want, err := csj.Similarity(b, a, m, &csj.Options{Epsilon: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := csj.Similarity(b, a, m, &csj.Options{Epsilon: 1, Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, workers, err)
			}
			if !reflect.DeepEqual(got.Pairs, want.Pairs) {
				t.Errorf("%v workers=%d: Workers changed the approximate pairs", m, workers)
			}
			if got.Events != want.Events {
				t.Errorf("%v workers=%d: events %+v, plain run %+v", m, workers, got.Events, want.Events)
			}
		}
	}
}
