package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The server must serve interleaved reads, writes, and joins safely
// (run under -race in CI).
func TestConcurrentRequests(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewSource(99))
	bID := uploadCommunity(t, ts, "B", randUsers(rng, 40, 4, 6))
	aID := uploadCommunity(t, ts, "A", randUsers(rng, 50, 4, 6))

	var info JoinInfo
	doJSON(t, "POST", ts.URL+"/joins", JoinRequest{Dim: 4, Epsilon: 1}, http.StatusCreated, &info)
	joinURL := fmt.Sprintf("%s/joins/%d", ts.URL, info.ID)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch (w + i) % 4 {
				case 0:
					resp, err := http.Post(ts.URL+"/similarity", "application/json",
						jsonBody(SimilarityRequest{B: bID, A: aID, Method: "ex-minmax",
							Options: OptionsPayload{Epsilon: 1}}))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				case 1:
					resp, err := http.Get(ts.URL + "/communities")
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				case 2:
					v := []int32{int32(w), int32(i), 0, 1}
					side := "B"
					if i%2 == 0 {
						side = "A"
					}
					resp, err := http.Post(joinURL+"/users", "application/json",
						jsonBody(JoinUserRequest{Side: side, Vector: v}))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				default:
					resp, err := http.Get(joinURL)
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The join must have absorbed all 20 user inserts (8 workers x 10
	// requests, 1/4 of which are inserts).
	var state JoinInfo
	doJSON(t, "GET", joinURL, nil, http.StatusOK, &state)
	if state.SizeB+state.SizeA != 20 {
		t.Errorf("join absorbed %d users, want 20", state.SizeB+state.SizeA)
	}
}

func jsonBody(v any) *bytes.Reader {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return bytes.NewReader(data)
}

// TestSnapshotIsolationUnderChurn (run under -race in CI): readers
// matrix a stable set of communities while writers churn scratch
// communities through create/delete. Every stable read must return
// exactly the same cells — a reader's snapshot is immune to concurrent
// mutation — and reads that include a churning id must either miss
// cleanly (404) or answer completely (200 with every cell present),
// never a torn in-between. Afterwards the server must not leak
// goroutines.
func TestSnapshotIsolationUnderChurn(t *testing.T) {
	// Four stable readers and one racing reader hold /matrix requests at
	// once. The default admission limit (2×GOMAXPROCS) is 4 on a 2-CPU
	// machine, which would shed a reader with 429; the limit sits above
	// the reader count so every read is admitted, and a 429 stays a
	// failure.
	const readers = 5
	ts := httptest.NewServer(NewWithConfig(nil, Config{MaxInFlight: 2 * readers}))
	t.Cleanup(ts.Close)
	rng := rand.New(rand.NewSource(7))
	stable := make([]int64, 4)
	for i := range stable {
		stable[i] = uploadCommunity(t, ts, fmt.Sprintf("stable-%d", i), randUsers(rng, 30, 4, 6))
	}
	churn := uploadCommunity(t, ts, "churn-seed", randUsers(rng, 30, 4, 6))

	matrixOnce := func() ([]MatrixCell, error) {
		var cells []MatrixCell
		err := tryJSON("POST", ts.URL+"/matrix",
			MatrixRequest{Communities: stable, Method: "exminmax",
				Options: OptionsPayload{Epsilon: 1}},
			http.StatusOK, &cells)
		for i := range cells {
			cells[i].ElapsedMS = 0 // wall-clock noise, not part of the answer
		}
		return cells, err
	}
	baseline, err := matrixOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 6 {
		t.Fatalf("baseline matrix has %d cells, want 6", len(baseline))
	}

	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	stop := make(chan struct{})

	// Writers: churn scratch communities as fast as the server admits.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			myRng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var info CommunityInfo
				if err := tryJSON("POST", ts.URL+"/communities",
					CommunityPayload{Name: fmt.Sprintf("scratch-%d-%d", w, i),
						Category: -1, Users: randUsers(myRng, 20, 4, 6)},
					http.StatusCreated, &info); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if err := tryJSON("DELETE", fmt.Sprintf("%s/communities/%d", ts.URL, info.ID),
					nil, http.StatusNoContent, nil); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	// Stable readers: the answer must never change under churn.
	for r := 0; r < readers-1; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, err := matrixOnce()
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if len(got) != len(baseline) {
					errs <- fmt.Errorf("reader %d: %d cells, want %d", r, len(got), len(baseline))
					return
				}
				for j := range got {
					if got[j] != baseline[j] {
						errs <- fmt.Errorf("reader %d: cell %d = %+v, want %+v", r, j, got[j], baseline[j])
						return
					}
				}
			}
		}(r)
	}

	// Racing reader: a matrix over an id another goroutine is deleting
	// must be all-or-nothing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ids := append(append([]int64{}, stable[:2]...), churn)
		for i := 0; i < 8; i++ {
			if i == 4 {
				if err := tryJSON("DELETE", fmt.Sprintf("%s/communities/%d", ts.URL, churn),
					nil, http.StatusNoContent, nil); err != nil {
					errs <- fmt.Errorf("racing reader: %w", err)
					return
				}
			}
			resp, err := http.Post(ts.URL+"/matrix", "application/json",
				jsonBody(MatrixRequest{Communities: ids, Method: "exminmax",
					Options: OptionsPayload{Epsilon: 1}}))
			if err != nil {
				errs <- err
				return
			}
			var cells []MatrixCell
			switch resp.StatusCode {
			case http.StatusOK:
				if err := json.NewDecoder(resp.Body).Decode(&cells); err != nil {
					errs <- fmt.Errorf("racing reader: decode: %v", err)
				} else if len(cells) != 3 {
					errs <- fmt.Errorf("racing reader: torn matrix with %d cells, want 3", len(cells))
				}
			case http.StatusNotFound:
				// The snapshot post-dated the delete; a clean miss.
			default:
				errs <- fmt.Errorf("racing reader: status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}()

	// Let the stable readers and racing reader run their course, then
	// stop the writers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		// Writers loop until stopped; give readers time to overlap them.
		time.Sleep(200 * time.Millisecond)
		close(stop)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		close(stop)
		t.Fatal("churn storm did not finish")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// No goroutine leaks: the pools and handlers must all have unwound.
	// Drop the client's idle keep-alive connections first — their
	// transport goroutines are ours, not the server's.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines not released after churn: %d before, %d after", before, after)
	}
}
