package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The append-only line log: segmented files of CRC-framed records,
// group-committed by a single flusher goroutine.
//
// Writers never block on I/O: a journal append encodes its frame into
// the active buffer under the log mutex (held for the memcpy only) and
// returns; the flusher swaps in the spare buffer, writes and fsyncs the
// batch, then advances the durable LSN and wakes Sync waiters. The flush
// window bounds how long an append can sit unflushed — mirroring the
// netfront aggregation shape: one fsync absorbs every record that
// arrived during the window, which is what makes group commit beat
// per-write fsync by an order of magnitude at high concurrency.
//
// Segment files are named wal-<seq>.log with a fixed header carrying the
// LSN of their first record; recovery orders segments by that and a
// checkpoint retires every segment whose records all predate it, as a
// spare file a later segment is written over (spare.go).

const (
	walMagic   uint64 = 0x314C4157504D4348 // "HCMPWAL1" little-endian
	walVersion uint32 = 1
	// walHeaderLen is magic + version + reserved + seq + startLSN.
	walHeaderLen = 8 + 4 + 4 + 8 + 8
)

// logWriter is the group-committed segmented log. One per DB.
type logWriter struct {
	dir      string
	window   time.Duration
	segBytes int64

	mu   sync.Mutex
	cond *sync.Cond
	// buf holds encoded-but-unflushed frames; spare is the double
	// buffer the flusher swaps in so appends proceed during a flush.
	buf, spare  []byte
	recsPending uint64
	nextLSN     uint64 // next LSN to assign
	durableLSN  uint64 // highest LSN known stable
	err         error  // sticky first I/O error
	closed      bool

	// Checkpoint-requested roll: records below rollLSN (the first
	// rollBoundary buffered bytes) finish the current segment; the rest
	// open the next one. rolledLSN acknowledges completion.
	rollPending  bool
	rollLSN      uint64
	rollBoundary int
	rolledLSN    uint64

	// discard, set by allocation-pin tests, drops appended frames at
	// encode time so the measured steady-state path is the encode alone.
	discard bool

	// File state below is touched only by the flusher (and by open/close
	// at quiescence).
	f       *os.File
	seq     uint64
	written int64

	done chan struct{}
	// kick cuts the flusher's window short once a Sync waiter is parked:
	// the window exists to let appends pile up, and a parked waiter means
	// the writer it would wait for is already waiting on it. One buffered
	// token; a stale one costs a single early flush.
	kick chan struct{}

	// stats, all atomic
	stAppends  atomic.Uint64
	stLogBytes atomic.Uint64
	stFsyncs   atomic.Uint64
	stFlushes  atomic.Uint64 // group commits (write+fsync batches)
	stFlushRec atomic.Uint64 // records covered by those batches
	stMaxBatch atomic.Uint64
	stRolls    atomic.Uint64
}

func walName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

// parseWALName extracts the sequence number from a wal file name.
func parseWALName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	return seq, err == nil
}

// newLogWriter opens a fresh segment at (seq, startLSN) and starts the
// flusher. startLSN is the next LSN to assign; everything below it is
// already durable (recovery replayed it).
func newLogWriter(dir string, window time.Duration, segBytes int64, seq, startLSN uint64) (*logWriter, error) {
	lw := &logWriter{
		dir:        dir,
		window:     window,
		segBytes:   segBytes,
		nextLSN:    startLSN,
		durableLSN: startLSN - 1,
		rolledLSN:  startLSN - 1,
		seq:        seq,
		done:       make(chan struct{}),
		kick:       make(chan struct{}, 1),
	}
	lw.cond = sync.NewCond(&lw.mu)
	if err := lw.openSegment(seq, startLSN); err != nil {
		return nil, err
	}
	go lw.run()
	return lw, nil
}

// openSegment creates wal-<seq>.log with its header and makes it the
// active segment. Called by the flusher (rolls) and by newLogWriter.
// A spare file, when there is one, is overwritten from offset 0 and
// renamed into place once its new header is stable; its old records
// past the new ones are told apart by their LSNs (see recover.go).
func (lw *logWriter) openSegment(seq, startLSN uint64) error {
	faultPoint()
	path := filepath.Join(lw.dir, walName(seq))
	f, spare := takeSpare(lw.dir, ".log")
	if f == nil {
		var err error
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err != nil {
			return err
		}
	}
	var hdr []byte
	hdr = appendU64(hdr, walMagic)
	hdr = appendU32(hdr, walVersion)
	hdr = appendU32(hdr, 0)
	hdr = appendU64(hdr, seq)
	hdr = appendU64(hdr, startLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	faultPoint()
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if spare != "" {
		faultPoint()
		if err := os.Rename(spare, path); err != nil {
			f.Close()
			return err
		}
	}
	if err := syncDir(lw.dir); err != nil {
		f.Close()
		return err
	}
	faultPoint()
	if lw.f != nil {
		lw.f.Close()
	}
	lw.f = f
	lw.seq = seq
	lw.written = int64(walHeaderLen)
	lw.stRolls.Add(1)
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// append encodes one frame under the mutex and wakes the flusher. enc
// runs with the lock held and must only append to the buffer.
// The exported journal methods specialize this shape without a closure
// so the hot path stays allocation-free; see db.go.

// reserve assigns the next LSN. Caller holds lw.mu.
func (lw *logWriter) reserve() uint64 {
	lsn := lw.nextLSN
	lw.nextLSN++
	lw.recsPending++
	lw.stAppends.Add(1)
	return lsn
}

// noteAppended finishes an append: in discard mode the encoded frame is
// dropped and counted durable; otherwise the flusher is prodded.
// Caller holds lw.mu.
func (lw *logWriter) noteAppended() {
	if lw.discard {
		lw.buf = lw.buf[:0]
		lw.recsPending = 0
		lw.durableLSN = lw.nextLSN - 1
		return
	}
	lw.cond.Broadcast()
}

// Sync blocks until every record appended before the call is stable.
func (lw *logWriter) Sync() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	target := lw.nextLSN - 1
	lw.cond.Broadcast()
	if len(lw.buf) > 0 {
		// Records not yet handed to the flusher: don't sit out its window.
		select {
		case lw.kick <- struct{}{}:
		default:
		}
	}
	for lw.durableLSN < target && lw.err == nil && !lw.closed {
		lw.cond.Wait()
	}
	return lw.err
}

// rollNow seals the current segment at the current LSN frontier and
// opens the next one, returning the first LSN of the new segment. On
// return every record below that LSN is durable in sealed segments —
// the checkpoint's anchor point.
func (lw *logWriter) rollNow() (uint64, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	start := lw.nextLSN
	lw.rollPending = true
	lw.rollLSN = start
	lw.rollBoundary = len(lw.buf)
	lw.cond.Broadcast()
	for lw.rolledLSN < start && lw.err == nil && !lw.closed {
		lw.cond.Wait()
	}
	if lw.err != nil {
		return 0, lw.err
	}
	if lw.closed && lw.rolledLSN < start {
		return 0, fmt.Errorf("durable: log closed during roll")
	}
	return start, nil
}

// run is the flusher goroutine.
func (lw *logWriter) run() {
	defer close(lw.done)
	for {
		lw.mu.Lock()
		for len(lw.buf) == 0 && !lw.rollPending && !lw.closed {
			lw.cond.Wait()
		}
		if len(lw.buf) == 0 && !lw.rollPending && lw.closed {
			lw.mu.Unlock()
			return
		}
		lw.mu.Unlock()
		if lw.window > 0 {
			// The bounded flush window: let concurrent appends pile into
			// the buffer so one fsync commits them all — until somebody
			// waits in Sync. Concurrent writers still group: whatever
			// arrives during one fsync shares the next.
			timer := time.NewTimer(lw.window)
			select {
			case <-timer.C:
			case <-lw.kick:
				timer.Stop()
			}
		}
		lw.flushOnce()
		lw.mu.Lock()
		finished := lw.closed && len(lw.buf) == 0 && !lw.rollPending
		lw.mu.Unlock()
		if finished {
			return
		}
	}
}

// flushOnce swaps out the pending batch, writes and fsyncs it (splitting
// around a requested roll boundary), then publishes the new durable LSN.
func (lw *logWriter) flushOnce() {
	lw.mu.Lock()
	batch := lw.buf
	lw.buf = lw.spare[:0]
	lw.spare = batch
	recs := lw.recsPending
	lw.recsPending = 0
	end := lw.nextLSN - 1
	roll := lw.rollPending
	boundary := lw.rollBoundary
	rollLSN := lw.rollLSN
	lw.rollPending = false
	lw.rollBoundary = 0
	lw.mu.Unlock()

	var err error
	if roll {
		err = lw.writeBatch(batch[:boundary], 0)
		if err == nil {
			err = lw.openSegment(lw.seq+1, rollLSN)
		}
		if err == nil {
			err = lw.writeBatch(batch[boundary:], recs)
		}
	} else {
		err = lw.writeBatch(batch, recs)
		if err == nil && lw.written > lw.segBytes {
			err = lw.openSegment(lw.seq+1, end+1)
		}
	}

	lw.mu.Lock()
	if err != nil {
		if lw.err == nil {
			lw.err = err
		}
	} else {
		lw.durableLSN = end
		if roll {
			lw.rolledLSN = rollLSN
		}
	}
	lw.cond.Broadcast()
	lw.mu.Unlock()
}

// writeBatch writes one batch to the active segment and fsyncs it. A
// batch of zero bytes still fsyncs nothing and returns nil.
func (lw *logWriter) writeBatch(b []byte, recs uint64) error {
	if len(b) == 0 {
		return nil
	}
	faultPoint()
	if _, err := lw.f.Write(b); err != nil {
		return err
	}
	faultPoint()
	if err := lw.f.Sync(); err != nil {
		return err
	}
	faultPoint()
	lw.written += int64(len(b))
	lw.stLogBytes.Add(uint64(len(b)))
	lw.stFsyncs.Add(1)
	lw.stFlushes.Add(1)
	lw.stFlushRec.Add(recs)
	for {
		cur := lw.stMaxBatch.Load()
		if recs <= cur || lw.stMaxBatch.CompareAndSwap(cur, recs) {
			break
		}
	}
	return nil
}

// Close flushes everything pending and stops the flusher.
func (lw *logWriter) Close() error {
	lw.mu.Lock()
	if lw.closed {
		lw.mu.Unlock()
		return lw.err
	}
	lw.closed = true
	lw.cond.Broadcast()
	lw.mu.Unlock()
	<-lw.done
	lw.mu.Lock()
	err := lw.err
	lw.mu.Unlock()
	if lw.f != nil {
		if cerr := lw.f.Close(); err == nil {
			err = cerr
		}
		lw.f = nil
	}
	return err
}

// walSegment describes one on-disk log segment.
type walSegment struct {
	path     string
	seq      uint64
	startLSN uint64
}

// listSegments parses the headers of every wal file in dir, sorted by
// sequence number, validating that start LSNs are monotone.
func listSegments(dir string) ([]walSegment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, e := range ents {
		seq, ok := parseWALName(e.Name())
		if !ok {
			continue
		}
		path := filepath.Join(dir, e.Name())
		hdr := make([]byte, walHeaderLen)
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		n, _ := f.Read(hdr)
		f.Close()
		if n < walHeaderLen || getU64(hdr) != walMagic || getU32(hdr[8:]) != walVersion {
			return nil, fmt.Errorf("durable: %s: bad segment header", path)
		}
		if got := getU64(hdr[16:]); got != seq {
			return nil, fmt.Errorf("durable: %s: header seq %d", path, got)
		}
		segs = append(segs, walSegment{path: path, seq: seq, startLSN: getU64(hdr[24:])})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i := 1; i < len(segs); i++ {
		if segs[i].startLSN < segs[i-1].startLSN {
			return nil, fmt.Errorf("durable: segment %d starts at lsn %d before segment %d's %d",
				segs[i].seq, segs[i].startLSN, segs[i-1].seq, segs[i-1].startLSN)
		}
	}
	return segs, nil
}
