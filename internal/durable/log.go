// Package durable is the crash-safety layer under the community store
// (DESIGN.md §11): a write-ahead log of checksummed mutation records
// plus atomically installed checkpoints, stdlib-only. Every store
// mutation appends one CRC-32C-framed record and fsyncs per the
// configured policy before the caller acknowledges it; startup replays
// the log on top of the newest valid checkpoint, truncating the torn
// tail of a crashed append and refusing to start on mid-log corruption
// unless explicitly told to repair. The Log implements
// store.Persistence, so the in-memory store stays untouched (and
// zero-cost) when durability is off.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/faultfs"
	"github.com/opencsj/csj/internal/store"
)

// ErrClosed reports an append to a closed log. A request that hits it
// was never acknowledged, so nothing durable was promised.
var ErrClosed = errors.New("durable: log closed")

// ErrPoisoned reports an append to a log that has hit an unrecoverable
// I/O failure and permanently fail-stopped (DESIGN.md §16). The
// classic case is a failed fsync: POSIX lets the kernel drop the dirty
// pages on fsync error, so a later fsync that *succeeds* still does
// not make the earlier acknowledged appends durable — retrying would
// convert an I/O error into silent loss. A poisoned log refuses every
// subsequent mutation with an error wrapping this sentinel; reads of
// already-acknowledged state are unaffected (the in-memory store keeps
// serving), and the node degrades to read-only until an operator
// drains, repairs, and re-follows it.
var ErrPoisoned = errors.New("durable: log poisoned (unrecoverable I/O failure, node is read-only)")

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every append: an acknowledged mutation
	// survives even a kill -9 at any instant. The default.
	FsyncAlways FsyncPolicy = iota
	// FsyncEveryInterval fsyncs from a background flusher every
	// DefaultFsyncInterval: a crash can lose at most the last
	// interval's acknowledged mutations.
	FsyncEveryInterval
	// FsyncOff never fsyncs appends; the OS flushes on its own
	// schedule. Process crashes lose nothing (the page cache survives);
	// machine crashes can lose recent mutations.
	FsyncOff
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncEveryInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy resolves the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncEveryInterval, nil
	case "off", "never":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or off)", s)
	}
}

// DefaultFsyncInterval is the background flush cadence of
// FsyncEveryInterval.
const DefaultFsyncInterval = 100 * time.Millisecond

// DefaultCheckpointEvery is how many WAL appends accumulate before the
// store checkpoints and the old segment is collected.
const DefaultCheckpointEvery = 4096

// Options configures Open.
type Options struct {
	// Fsync is the append durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// CheckpointEvery is the append count between automatic checkpoints;
	// 0 selects DefaultCheckpointEvery, negative disables automatic
	// checkpoints (explicit store.Checkpoint calls still work).
	CheckpointEvery int64
	// Repair permits startup to truncate the log at mid-log corruption
	// (or fall back past an unreadable checkpoint), accepting the loss
	// of everything after the damage. Without it, corruption refuses to
	// start with ErrCorrupt.
	Repair bool
	// FS is the filesystem seam every mutating operation goes through;
	// nil selects faultfs.OS (the real disk). Tests and the faultguard
	// harness pass a *faultfs.Inject to fail specific operations.
	FS faultfs.FS

	// flushTick, when set, replaces the FsyncEveryInterval ticker so
	// same-package tests can drive the background flusher with a fake
	// clock (no wall-clock sleeps under -race).
	flushTick <-chan time.Time
}

func (o Options) withDefaults() Options {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	return o
}

// Observer receives durability lifecycle events; the server's metrics
// registry implements it. Callbacks fire from mutation goroutines and
// must be safe for concurrent use.
type Observer interface {
	// WALAppend fires once per appended record.
	WALAppend()
	// WALFsync fires once per WAL fsync with its duration.
	WALFsync(d time.Duration)
	// CheckpointWritten fires once per installed checkpoint with the
	// write+install duration.
	CheckpointWritten(d time.Duration)
	// RecoveryTruncated fires when recovery dropped records (torn tail
	// or repair), including replayed-at-SetObserver time.
	RecoveryTruncated(records int64)
	// WALPoisoned fires exactly once, when the log fail-stops on an
	// unrecoverable I/O failure. It runs under the log's mutation lock
	// and must not call back into the log.
	WALPoisoned()
}

// Status is a point-in-time read of the log for /healthz.
type Status struct {
	Enabled                  bool   `json:"enabled"`
	Dir                      string `json:"dir"`
	Fsync                    string `json:"fsync"`
	WALSegment               uint64 `json:"wal_segment"`
	WALAppends               int64  `json:"wal_appends"`
	AppendsSinceCheckpoint   int64  `json:"wal_appends_since_checkpoint"`
	Checkpoints              int64  `json:"checkpoints"`
	RecoveredCommunities     int    `json:"recovered_communities"`
	RecoveryTruncatedRecords int64  `json:"recovery_truncated_records"`
	RecoveryRepaired         bool   `json:"recovery_repaired,omitempty"`
	Poisoned                 bool   `json:"poisoned,omitempty"`
	PoisonCause              string `json:"poison_cause,omitempty"`
}

// Log is the write-ahead log plus checkpoint machinery of one store
// directory. Safe for concurrent use; implements store.Persistence.
type Log struct {
	dir  string
	opts Options
	fs   faultfs.FS

	appends   atomic.Int64
	sinceCkpt atomic.Int64
	ckpts     atomic.Int64
	poisoned  atomic.Bool

	mu          sync.Mutex
	f           faultfs.File
	seq         uint64
	size        int64
	dirty       bool
	closed      bool
	poisonCause error
	obs         Observer

	seed      *store.Seed
	recovered RecoveryStats

	flushStop chan struct{}
	flushDone chan struct{}
}

// Open recovers the store image in dir (creating it if absent) and
// returns a log ready for appends. On mid-log corruption it refuses
// with an error wrapping ErrCorrupt unless opts.Repair is set.
func Open(dir string, opts Options) (*Log, error) {
	l := &Log{dir: dir, opts: opts.withDefaults()}
	l.fs = l.opts.FS
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating %s: %w", dir, err)
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if l.opts.Fsync == FsyncEveryInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// Seed returns the store image recovery rebuilt: pass it to store.New.
// The communities are owned by the store from then on.
func (l *Log) Seed() *store.Seed { return l.seed }

// Recovery returns what Open found and did.
func (l *Log) Recovery() RecoveryStats { return l.recovered }

// SetObserver attaches the metrics observer. Recovery happened before
// any observer could exist, so its truncation count is replayed into
// the new observer here.
func (l *Log) SetObserver(obs Observer) {
	l.mu.Lock()
	l.obs = obs
	l.mu.Unlock()
	if obs != nil && l.recovered.TruncatedRecords > 0 {
		obs.RecoveryTruncated(l.recovered.TruncatedRecords)
	}
}

// Poisoned reports the log has fail-stopped on an unrecoverable I/O
// failure: every mutation returns an error wrapping ErrPoisoned, while
// reads of already-acknowledged state keep working.
func (l *Log) Poisoned() bool { return l.poisoned.Load() }

// PoisonCause returns the first unrecoverable failure, or nil.
func (l *Log) PoisonCause() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poisonCause
}

// poisonLocked permanently fail-stops the log. Caller holds l.mu.
func (l *Log) poisonLocked(cause error) {
	if l.poisoned.Load() {
		return
	}
	l.poisonCause = cause
	l.poisoned.Store(true)
	if l.obs != nil {
		l.obs.WALPoisoned()
	}
}

// poisonedErrLocked builds the pinned mutation error of a poisoned
// log. Caller holds l.mu.
func (l *Log) poisonedErrLocked() error {
	return fmt.Errorf("%w: %v", ErrPoisoned, l.poisonCause)
}

// Status snapshots the log state for /healthz.
func (l *Log) Status() Status {
	l.mu.Lock()
	seq := l.seq
	var cause string
	if l.poisonCause != nil {
		cause = l.poisonCause.Error()
	}
	l.mu.Unlock()
	return Status{
		Enabled:                  true,
		Dir:                      l.dir,
		Fsync:                    l.opts.Fsync.String(),
		WALSegment:               seq,
		WALAppends:               l.appends.Load(),
		AppendsSinceCheckpoint:   l.sinceCkpt.Load(),
		Checkpoints:              l.ckpts.Load(),
		RecoveredCommunities:     l.recovered.RecoveredEntries,
		RecoveryTruncatedRecords: l.recovered.TruncatedRecords,
		RecoveryRepaired:         l.recovered.Repaired,
		Poisoned:                 l.poisoned.Load(),
		PoisonCause:              cause,
	}
}

// AppendPut logs a community ingest. Part of store.Persistence; the
// store calls it before publishing (and before acknowledging) the
// mutation, so an error means the mutation never happened.
func (l *Log) AppendPut(id int64, version uint64, c *csj.Community) error {
	payload, err := putPayload(id, version, c)
	if err != nil {
		return err
	}
	return l.append(payload)
}

// AppendDelete logs a community removal. Part of store.Persistence.
func (l *Log) AppendDelete(id int64, version uint64) error {
	return l.append(deletePayload(id, version))
}

func (l *Log) append(payload []byte) error {
	frame := encodeFrame(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poisoned.Load() {
		return l.poisonedErrLocked()
	}
	if _, err := l.f.Write(frame); err != nil {
		// A partial frame on disk would read as mid-log corruption once
		// more records follow it; chop back to the last good boundary so
		// the failure stays a torn tail. Segments are opened O_APPEND, so
		// the next write lands at the truncated end — no zero-filled hole
		// from a stale file offset. The caller sees an error and never
		// acknowledges, so the rolled-back record was never promised.
		if terr := l.f.Truncate(l.size); terr != nil {
			// The partial frame is stuck on disk: any further append would
			// bury it mid-log, turning a clean failure into corruption that
			// recovery refuses to touch without -repair. Fail-stop instead.
			l.poisonLocked(fmt.Errorf("durable: rolling back failed append: %w (after write error: %v)", terr, err))
			return l.poisonedErrLocked()
		}
		return fmt.Errorf("durable: appending record: %w", err)
	}
	l.size += int64(len(frame))
	l.dirty = true
	l.appends.Add(1)
	l.sinceCkpt.Add(1)
	if l.obs != nil {
		l.obs.WALAppend()
	}
	if l.opts.Fsync == FsyncAlways {
		return l.syncLocked()
	}
	return nil
}

func (l *Log) syncLocked() error {
	if l.poisoned.Load() {
		return l.poisonedErrLocked()
	}
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		// fsyncgate: on fsync failure the kernel may drop the dirty pages
		// and clear the error, so a retry that *succeeds* still would not
		// make the acknowledged appends durable. Never retry — fail-stop.
		l.poisonLocked(fmt.Errorf("durable: fsyncing wal: %w", err))
		return l.poisonedErrLocked()
	}
	l.dirty = false
	if l.obs != nil {
		l.obs.WALFsync(time.Since(start))
	}
	return nil
}

// flushLoop is the FsyncEveryInterval background flusher.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	tick := l.opts.flushTick
	if tick == nil {
		t := time.NewTicker(DefaultFsyncInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			l.mu.Lock()
			if !l.closed {
				// A failed interval fsync poisons the log inside syncLocked
				// (no retry — see the fsyncgate note there); later ticks are
				// cheap no-ops on a poisoned log.
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		case <-l.flushStop:
			return
		}
	}
}

// CheckpointDue reports that enough appends accumulated for an
// automatic checkpoint. Part of store.Persistence; called by the store
// after each mutation.
func (l *Log) CheckpointDue() bool {
	// A poisoned log never checkpoints: the store's background
	// checkpoint goroutine would spin on BeginCheckpoint's pinned error.
	return !l.poisoned.Load() &&
		l.opts.CheckpointEvery > 0 && l.sinceCkpt.Load() >= l.opts.CheckpointEvery
}

// BeginCheckpoint rotates to a fresh WAL segment and returns a commit
// closure that durably installs seed as the new checkpoint and
// collects the superseded files. Part of store.Persistence.
//
// The store calls BeginCheckpoint under its mutation lock with seed
// equal to the exact current state, so every mutation is either inside
// seed (and safe once commit installs it) or appended after the
// rotation (and replayed from the new segment). commit runs outside
// the lock — checkpoint writes never stall mutations. If commit is
// never called (crash, error), nothing is lost: recovery replays the
// old segment and the new one on top of the previous checkpoint.
func (l *Log) BeginCheckpoint(seed *store.Seed) (commit func() error, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if l.poisoned.Load() {
		return nil, l.poisonedErrLocked()
	}
	// Records in the outgoing segment that only checkpoint seed now
	// carries must be durable before that segment can be collected.
	// Sync BEFORE creating the new segment: a failure here aborts the
	// rotation with zero state change — the old segment stays active and
	// no commit (and so no GC) can run against non-durable records.
	// Under FsyncAlways the segment is never dirty here, so this is a
	// no-op; when it does fail, syncLocked has already poisoned the log.
	if err := l.syncLocked(); err != nil {
		return nil, err
	}
	newSeq := l.seq + 1
	f, size, err := createSegment(l.fs, l.dir, newSeq)
	if err != nil {
		return nil, err
	}
	old := l.f
	if cerr := old.Close(); cerr != nil {
		// Close reports deferred write-back errors on some filesystems:
		// records the commit would collect may not actually be durable.
		// Abort the rotation — and because the old segment's descriptor is
		// now in an unknown state, fail-stop. Remove the half-adopted new
		// segment so recovery (and any future O_EXCL create) never sees it.
		l.poisonLocked(fmt.Errorf("durable: closing outgoing segment: %w", cerr))
		f.Close()
		l.fs.Remove(filepath.Join(l.dir, segName(newSeq))) // best effort
		return nil, l.poisonedErrLocked()
	}
	l.f, l.seq, l.size, l.dirty = f, newSeq, size, false
	l.sinceCkpt.Store(0)
	obs := l.obs

	fs, dir := l.fs, l.dir
	return func() error {
		start := time.Now()
		if err := writeCheckpoint(fs, dir, newSeq, seed); err != nil {
			return err
		}
		l.ckpts.Add(1)
		removeBelow(fs, dir, newSeq)
		if obs != nil {
			obs.CheckpointWritten(time.Since(start))
		}
		return nil
	}, nil
}

// Close flushes and closes the log. Part of store.Persistence. The
// caller must have stopped all mutation traffic first (drain the HTTP
// server, then close): appends after Close fail with ErrClosed, which
// is safe — those requests were never acknowledged — but rude.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	if l.poisoned.Load() {
		// A poisoned log already reported its failure to every writer and
		// promised nothing since; draining a degraded node for repair must
		// not fail shutdown over the same (already-surfaced) error.
		l.f.Close()
	} else {
		err = l.syncLocked()
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
	}
	l.closed = true
	l.mu.Unlock()
	if l.flushStop != nil {
		close(l.flushStop)
		<-l.flushDone
	}
	return err
}

// Log implements store.Persistence.
var _ store.Persistence = (*Log)(nil)
