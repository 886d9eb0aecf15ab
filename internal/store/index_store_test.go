package store

import (
	"math/rand"
	"sync"
	"testing"

	csj "github.com/opencsj/csj"
)

// Index-maintenance coverage (DESIGN.md §12): every live entry carries
// the pruning summary of exactly its community, through creates,
// deletes, and concurrent snapshot readers.

func TestEntrySummaryBuiltOnCreate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st := New(Config{})
	e := mustCreate(t, st, testCommunity("a", rng, 20, 4))
	if e.Summary == nil {
		t.Fatal("created entry has no summary")
	}
	want, err := csj.SummarizeCommunity(e.Comm, csj.DefaultIndexBuckets)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Summary.Equal(want) {
		t.Fatal("entry summary differs from a fresh summary of its community")
	}
	if e.Summary.Size() != 20 {
		t.Fatalf("summary size = %d, want 20", e.Summary.Size())
	}
}

// TestCandidatesSummaryErrorsWithoutSummary: an entry whose community
// cannot be summarized (here an empty one) carries no summary, and the
// candidate source reports it as an error rather than a nil summary.
func TestCandidatesSummaryErrorsWithoutSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	st := New(Config{})
	mustCreate(t, st, testCommunity("a", rng, 10, 3))
	empty := mustCreate(t, st, &csj.Community{Name: "empty", Category: -1})
	if empty.Summary != nil {
		t.Fatal("an empty community got a summary")
	}
	cands := st.Snapshot().Candidates(0)
	if sum, err := cands.Summary(0); err != nil || sum == nil {
		t.Fatalf("Summary(0) = %v, %v; want the stored summary", sum, err)
	}
	if _, err := cands.Summary(1); err == nil {
		t.Fatal("Summary of an entry without one returned no error")
	}
}

func TestSeedBootRebuildsSummaries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st := New(Config{})
	for i := 0; i < 5; i++ {
		mustCreate(t, st, testCommunity("s", rng, 10+i, 4))
	}
	// Reboot from the live image, the recovery path in miniature.
	st.mu.Lock()
	seed := st.seedLocked()
	st.mu.Unlock()
	st2 := New(Config{Seed: seed})
	list, list2 := st.Snapshot().List(), st2.Snapshot().List()
	if len(list2) != len(list) {
		t.Fatalf("rebooted store has %d entries, want %d", len(list2), len(list))
	}
	for i, e := range list {
		if list2[i].Summary == nil || !list2[i].Summary.Equal(e.Summary) {
			t.Fatalf("entry %d: rebooted summary differs from the original", e.ID)
		}
	}
}

// TestSummaryChurnUnderReaders runs create/delete churn against
// concurrent snapshot readers (run under -race via `make race`): every
// entry a reader observes must carry the summary of exactly its
// community, never a neighbor's or a stale one.
func TestSummaryChurnUnderReaders(t *testing.T) {
	st := New(Config{})
	const (
		writers = 4
		readers = 4
		rounds  = 120
	)
	var wgReaders, wgWriters sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wgReaders.Add(1)
		go func() {
			defer wgReaders.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range st.Snapshot().List() {
					if e.Summary == nil {
						t.Errorf("entry %d has no summary", e.ID)
						return
					}
					want, err := csj.SummarizeCommunity(e.Comm, 0)
					if err != nil {
						t.Errorf("entry %d: %v", e.ID, err)
						return
					}
					if !e.Summary.Equal(want) {
						t.Errorf("entry %d: summary does not match its community", e.ID)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var mine []int64
			for i := 0; i < rounds; i++ {
				if len(mine) > 0 && rng.Intn(3) == 0 {
					id := mine[rng.Intn(len(mine))]
					if _, err := st.Delete(id); err != nil {
						t.Errorf("Delete(%d): %v", id, err)
						return
					}
					continue
				}
				e, err := st.Create(testCommunity("churn", rng, 6+rng.Intn(10), 3))
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				mine = append(mine, e.ID)
			}
		}(w)
	}
	wgWriters.Wait()
	close(stop)
	wgReaders.Wait()
}
