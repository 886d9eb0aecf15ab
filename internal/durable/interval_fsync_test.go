package durable

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The interval-fsync contract under concurrency: appends that returned
// nil are acknowledged, and a clean Close (which flushes) must leave
// every one of them recoverable no matter how the background flusher,
// the appenders, and Close interleave. Run under -race (make check
// does), this also pins the flushLoop/append/Close synchronization.
func TestIntervalFsyncConcurrentAppendVsClose(t *testing.T) {
	dir := t.TempDir()
	tick := time.NewTicker(time.Millisecond) // keep the flusher busy mid-test
	defer tick.Stop()
	l := openLog(t, dir, Options{Fsync: FsyncEveryInterval, flushTick: tick.C})

	const writers = 8
	var (
		mu    sync.Mutex
		acked []int64
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				id := int64(w*1_000_000 + i + 1)
				err := l.AppendPut(id, uint64(id), testComm(fmt.Sprintf("c%d", id), id, 4, 2))
				if errors.Is(err, ErrClosed) {
					return // never acknowledged; nothing promised
				}
				if err != nil {
					t.Errorf("append %d: %v", id, err)
					return
				}
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let appends race several flush ticks
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	// Close is idempotent: a second call is a nil no-op, not a double
	// close of the file or the flusher channel.
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	mu.Lock()
	n := len(acked)
	mu.Unlock()
	if n == 0 {
		t.Fatal("no appends were acknowledged before Close; test proved nothing")
	}

	// Every acknowledged frame must come back on recovery.
	l2 := openLog(t, dir, Options{Fsync: FsyncOff})
	defer l2.Close()
	if tr := l2.Recovery().TruncatedRecords; tr != 0 {
		t.Errorf("clean close left %d truncated records", tr)
	}
	got := make(map[int64]bool, n)
	for _, e := range l2.Seed().Entries {
		got[e.ID] = true
	}
	for _, id := range acked {
		if !got[id] {
			t.Errorf("acknowledged append %d missing after recovery", id)
		}
	}
}
