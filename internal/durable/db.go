// Package durable is the crash-consistent persistence tier under the
// HICAMP memory stack: an append-only line log (group-committed,
// CRC-framed), periodic checkpoints of the segment-map roots plus a
// live-line manifest, and recovery that rebuilds the store, reference
// counts, and segment map from checkpoint + log tail.
//
// Content addressing makes the log genuinely append-only: a line, once
// written, is never rewritten, so the only events are line allocation,
// terminal reclamation, root publishes, deletes, and label bindings.
// Writers never block on I/O — journal appends are a buffer copy under
// a mutex, and a single flusher fsyncs bounded windows of records
// (group commit) while readers proceed untouched. See the durable layer
// in DESIGN.md for the formats and the crash-consistency argument.
package durable

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/segmap"
	"repro/internal/word"
)

// Options configures a DB.
type Options struct {
	// Dir is the data directory (created if absent).
	Dir string
	// FlushWindow bounds how long an append may sit unflushed. Larger
	// windows aggregate more records per fsync (higher throughput,
	// higher worst-case commit latency). 0 flushes as soon as the
	// flusher can run — one fsync per Sync for a lone writer, still
	// group-committed under concurrency. Default 2ms.
	FlushWindow time.Duration
	// SegmentBytes rolls the log to a new segment file past this size.
	// Default 64 MiB.
	SegmentBytes int64
	// CheckpointEvery, when positive, runs background checkpoints at
	// this interval. Checkpoints can always be taken manually.
	CheckpointEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.FlushWindow == 0 {
		o.FlushWindow = 2 * time.Millisecond
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// DurableStats is the persistence telemetry surfaced through
// HicampServer.DurableStats and hicampbench -exp durability.
type DurableStats struct {
	Appends         uint64        // records appended to the log
	LogBytes        uint64        // bytes written to log segments
	Fsyncs          uint64        // log fsyncs issued
	GroupCommits    uint64        // write+fsync batches (group commits)
	GroupedRecords  uint64        // records covered by those batches
	MaxGroupSize    uint64        // largest single group commit, records
	LogSegments     uint64        // segments opened over the DB's life
	DurableLSN      uint64        // highest LSN known stable
	AppendedLSN     uint64        // highest LSN assigned
	Checkpoints     uint64        // checkpoints completed
	CheckpointLast  time.Duration // duration of the most recent one
	CheckpointLines uint64        // manifest lines in the most recent one
	RecoveryTime    time.Duration // time spent in recovery at Open
	RecoveredLines  uint64        // live lines reinstalled at Open
	RecoveredRoots  uint64        // segment-map entries restored at Open
	ReplayedRecords uint64        // log records applied at Open
}

// DB is the write-ahead persistence layer attached beneath one machine +
// segment map pair. It implements store.Journal and segmap.Journal, which
// Open attaches; its owner gates write acknowledgements on Sync.
type DB struct {
	dir string
	m   *core.Machine
	sm  *segmap.Map
	geo geometry
	lw  *logWriter

	mu       sync.Mutex // guards bindings
	bindings map[string]word.VSID

	ckptMu sync.Mutex // serializes checkpoints
	gen    uint64     // current checkpoint generation (under ckptMu)

	stCheckpoints   atomic.Uint64
	stCkptLast      atomic.Int64 // nanoseconds
	stCkptLines     atomic.Uint64
	recoveryTime    time.Duration
	recoveredLines  uint64
	recoveredRoots  uint64
	replayedRecords uint64

	stopCkpt chan struct{}
	ckptDone chan struct{}
	closed   atomic.Bool
}

// Open recovers dir into m and sm (which must be freshly constructed
// and empty), attaches the journals, and starts the group-commit
// flusher. On return the machine serves the recovered state and every
// new mutation is logged; callers gate write acknowledgements on Sync.
func Open(opts Options, m *core.Machine, sm *segmap.Map) (*DB, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	rec, err := recoverState(opts.Dir, m, sm)
	if err != nil {
		return nil, err
	}
	lw, err := newLogWriter(opts.Dir, opts.FlushWindow, opts.SegmentBytes, rec.nextSeq, rec.nextLSN)
	if err != nil {
		return nil, err
	}
	d := &DB{
		dir:             opts.Dir,
		m:               m,
		sm:              sm,
		geo:             machineGeometry(m),
		lw:              lw,
		bindings:        rec.bindings,
		gen:             rec.gen,
		recoveryTime:    time.Since(t0),
		recoveredLines:  rec.lines,
		recoveredRoots:  rec.roots,
		replayedRecords: rec.replayed,
	}
	m.SetLineJournal(d)
	sm.SetJournal(d)
	if opts.CheckpointEvery > 0 {
		d.stopCkpt = make(chan struct{})
		d.ckptDone = make(chan struct{})
		go d.checkpointLoop(opts.CheckpointEvery)
	}
	return d, nil
}

// JournalAlloc implements store.Journal: called under the line's lock,
// it encodes one alloc frame into the log buffer and returns. The
// encode is allocation-free at steady state (the buffer is reused by
// the double-buffer swap), which keeps the hot write path pinned.
func (d *DB) JournalAlloc(p word.PLID, c word.Content) {
	lw := d.lw
	lw.mu.Lock()
	lsn := lw.reserve()
	lw.buf = appendAllocFrame(lw.buf, lsn, p, c)
	lw.noteAppended()
	lw.mu.Unlock()
}

// JournalFree implements store.Journal.
func (d *DB) JournalFree(p word.PLID) {
	lw := d.lw
	lw.mu.Lock()
	lsn := lw.reserve()
	lw.buf = appendFreeFrame(lw.buf, lsn, p)
	lw.noteAppended()
	lw.mu.Unlock()
}

// JournalPublish implements segmap.Journal: called under the segment
// map's mutex, so the log records publishes in the order readers could
// observe them.
func (d *DB) JournalPublish(v word.VSID, e segmap.Entry) {
	lw := d.lw
	lw.mu.Lock()
	lsn := lw.reserve()
	lw.buf = appendPublishFrame(lw.buf, lsn, v, e.Seg.Root, uint32(e.Seg.Height), uint8(e.Flags), e.Size)
	lw.noteAppended()
	lw.mu.Unlock()
}

// JournalDelete implements segmap.Journal.
func (d *DB) JournalDelete(v word.VSID) {
	lw := d.lw
	lw.mu.Lock()
	lsn := lw.reserve()
	lw.buf = appendDeleteFrame(lw.buf, lsn, v)
	lw.noteAppended()
	lw.mu.Unlock()
}

// Bind durably associates a label with a VSID, so a restarted process
// can find its root maps again (VSIDs, like PLIDs, are positional).
// Rebinding a label overwrites it.
func (d *DB) Bind(label string, v word.VSID) error {
	if len(label) > 1<<16-1 {
		return fmt.Errorf("durable: label longer than 64KiB")
	}
	d.mu.Lock()
	d.bindings[label] = v
	d.mu.Unlock()
	lw := d.lw
	lw.mu.Lock()
	lsn := lw.reserve()
	lw.buf = appendBindFrame(lw.buf, lsn, label, v)
	lw.noteAppended()
	lw.mu.Unlock()
	return lw.Sync()
}

// Binding returns the VSID bound to label, if any.
func (d *DB) Binding(label string) (word.VSID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.bindings[label]
	return v, ok
}

// Sync blocks until every mutation issued before the call is stable.
// After Close it returns at once, with the log's sticky error if any.
func (d *DB) Sync() error { return d.lw.Sync() }

// Enabled reports whether the DB is still attached (not yet closed).
func (d *DB) Enabled() bool { return !d.closed.Load() }

// Checkpoint writes a new checkpoint generation and truncates obsolete
// log segments and old generations. Safe to run concurrently with
// traffic (the snapshot is fuzzy; see checkpoint.go).
func (d *DB) Checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	t0 := time.Now()
	startLSN, err := d.lw.rollNow()
	if err != nil {
		return err
	}
	gen := d.gen + 1
	lines, err := d.writeCheckpoint(gen, startLSN)
	if err != nil {
		return err
	}
	d.gen = gen
	truncateObsolete(d.dir, gen, startLSN)
	d.stCheckpoints.Add(1)
	d.stCkptLast.Store(int64(time.Since(t0)))
	d.stCkptLines.Store(lines)
	return nil
}

func (d *DB) checkpointLoop(every time.Duration) {
	defer close(d.ckptDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.Checkpoint() // errors surface through the next Sync
		case <-d.stopCkpt:
			return
		}
	}
}

// Stats returns a snapshot of the persistence telemetry.
func (d *DB) Stats() DurableStats {
	lw := d.lw
	lw.mu.Lock()
	durable := lw.durableLSN
	appended := lw.nextLSN - 1
	lw.mu.Unlock()
	return DurableStats{
		Appends:         lw.stAppends.Load(),
		LogBytes:        lw.stLogBytes.Load(),
		Fsyncs:          lw.stFsyncs.Load(),
		GroupCommits:    lw.stFlushes.Load(),
		GroupedRecords:  lw.stFlushRec.Load(),
		MaxGroupSize:    lw.stMaxBatch.Load(),
		LogSegments:     lw.stRolls.Load(),
		DurableLSN:      durable,
		AppendedLSN:     appended,
		Checkpoints:     d.stCheckpoints.Load(),
		CheckpointLast:  time.Duration(d.stCkptLast.Load()),
		CheckpointLines: d.stCkptLines.Load(),
		RecoveryTime:    d.recoveryTime,
		RecoveredLines:  d.recoveredLines,
		RecoveredRoots:  d.recoveredRoots,
		ReplayedRecords: d.replayedRecords,
	}
}

// Close flushes the log, detaches the journals and stops background
// work. The machine keeps serving (now non-durably); a clean shutdown
// typically checkpoints first so the next Open recovers instantly.
func (d *DB) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	if d.stopCkpt != nil {
		close(d.stopCkpt)
		<-d.ckptDone
	}
	d.m.SetLineJournal(nil)
	d.sm.SetJournal(nil)
	return d.lw.Close()
}
