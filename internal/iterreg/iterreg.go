// Package iterreg implements HICAMP iterator registers (paper §3.3,
// Figure 5): the architectural register that holds a segment reference
// plus the cached path of DAG lines to its current position. Sequential
// and nearby accesses reuse the cached path and load only the lines below
// the divergence point; stores buffer in the register's update overlay
// and convert to content-unique lines in one wave commit
// (segment.WriteBatch), published with CAS or merge-update on the
// virtual segment map.
package iterreg

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/merge"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// Stats counts iterator register activity.
type Stats struct {
	Seeks       uint64 // positioning operations
	LineLoads   uint64 // DAG lines loaded into the register
	PathReuses  uint64 // levels reused from the cached path
	Commits     uint64 // publishes (and detached conversions) that succeeded
	CommitFails uint64 // publishes whose CAS/merge lost or conflicted
	Aborts      uint64
	Wave        segment.WriteStats // accumulated wave-commit counters
}

// Iterator is one iterator register. It is not safe for concurrent use —
// a register belongs to one hardware thread; spawn one per goroutine.
type Iterator struct {
	m       word.Mem
	sm      *segmap.Map // nil for detached (segment-only) iterators
	vsid    word.VSID
	entry   segmap.Entry // snapshot; root reference owned when sm != nil
	writes  []segment.Update
	writeAt map[uint64]int   // idx -> position in writes (last-wins overlay)
	sorted  []segment.Update // sortedWrites scratch, reused across overlay reads
	stack   []level
	pows    []uint64 // memoized arity powers: pows[d] = arity^d
	Stats   Stats
}

// level caches one step of the path: the expanded children of the node at
// this depth and which child the path descends into.
type level struct {
	kids  []segment.Edge
	child int
}

// NewSegmentIterator returns a detached iterator over seg. The caller
// must keep seg alive for the iterator's lifetime; commits return the new
// segment instead of publishing it.
func NewSegmentIterator(m word.Mem, seg segment.Seg) *Iterator {
	return &Iterator{m: m, entry: segmap.Entry{Seg: seg}}
}

// Open loads an iterator register with the segment named by vsid,
// snapshotting its current version (§3.3 "upon initialization ... loads
// and caches the path"). Close releases the snapshot.
func Open(m word.Mem, sm *segmap.Map, vsid word.VSID) (*Iterator, error) {
	e, err := sm.Load(vsid)
	if err != nil {
		return nil, err
	}
	return &Iterator{m: m, sm: sm, vsid: vsid, entry: e}, nil
}

// Seg returns the snapshot the iterator reads (pending writes excluded).
func (it *Iterator) Seg() segment.Seg { return it.entry.Seg }

// Size returns the snapshotted logical byte size.
func (it *Iterator) Size() uint64 { return it.entry.Size }

// Close releases the snapshot and discards any pending writes.
func (it *Iterator) Close() {
	it.discardWrites()
	if it.sm != nil {
		segment.ReleaseSeg(it.m, it.entry.Seg)
	}
	it.stack = nil
}

// Load returns the tagged word at idx, reading through pending writes.
// The write buffer overlays the snapshot, so unwritten indexes still go
// through the cached path — buffering a store does not invalidate it.
func (it *Iterator) Load(idx uint64) (uint64, word.Tag) {
	if j, ok := it.writeAt[idx]; ok {
		return it.writes[j].W, it.writes[j].T
	}
	return it.seek(idx)
}

// seek positions the cached path at idx and returns the word there.
func (it *Iterator) seek(idx uint64) (uint64, word.Tag) {
	it.Stats.Seeks++
	arity := it.m.LineWords()
	seg := it.entry.Seg
	if idx >= seg.Capacity(arity) {
		return 0, word.TagRaw
	}
	// Child index at each depth, top first; the final entry is the word
	// index within the leaf. Shallow DAGs (every real workload) decode
	// into a stack-resident buffer.
	h := seg.Height
	var idxBuf [24]int
	var idxs []int
	if h+1 <= len(idxBuf) {
		idxs = idxBuf[:h+1]
	} else {
		idxs = make([]int, h+1)
	}
	pows := it.powers(h)
	rem := idx
	for d := 0; d <= h; d++ {
		sub := pows[h-d]
		idxs[d] = int(rem / sub)
		rem %= sub
	}
	if len(it.stack) == 0 {
		root := segment.PLIDEdge(seg.Root)
		it.pushLevel(root, h)
	}
	// Reuse the longest valid prefix of the cached path: entry d+1 stays
	// valid while descent d still takes the same child.
	keep := 0
	for keep < len(it.stack)-1 && keep < h && it.stack[keep].child == idxs[keep] {
		keep++
	}
	it.Stats.PathReuses += uint64(keep)
	it.stack = it.stack[:keep+1]
	for d := keep; d < h; d++ {
		it.stack[d].child = idxs[d]
		childEdge := it.stack[d].kids[idxs[d]]
		it.pushLevel(childEdge, h-d-1)
	}
	leaf := &it.stack[h]
	leaf.child = idxs[h]
	e := leaf.kids[idxs[h]]
	return e.W, e.T
}

// pushLevel expands e one step and pushes it onto the cached path,
// reusing the kids buffer of the popped level that previously occupied
// the slot — seeks churn the lower path constantly, and reallocating an
// arity-sized slice per step dominates the register's cost.
func (it *Iterator) pushLevel(e segment.Edge, lvl int) {
	if e.T == word.TagPLID && e.W != 0 {
		it.Stats.LineLoads++
	}
	if len(it.stack) < cap(it.stack) {
		it.stack = it.stack[:len(it.stack)+1]
	} else {
		it.stack = append(it.stack, level{})
	}
	top := &it.stack[len(it.stack)-1]
	top.kids = segment.ChildrenInto(it.m, e, lvl, top.kids)
	top.child = 0
}

// NextNonZero returns the first index at or after from holding a non-zero
// word (value or tag), skipping elided zero subtrees — the §3.3 register
// increment that "moves to the next non-null element". ok is false at the
// end of the segment.
func (it *Iterator) NextNonZero(from uint64) (uint64, bool) {
	if len(it.writes) == 0 {
		return segment.NextNonZero(it.m, it.entry.Seg, from)
	}
	// Merge the snapshot's next hit with the buffered overlay: the first
	// non-zero buffered update at or after from competes with the first
	// snapshot hit the overlay does not zero out.
	over := it.sortedWrites()
	pos := sort.Search(len(over), func(i int) bool { return over[i].Idx >= from })
	oIdx, oOK := uint64(0), false
	for i := pos; i < len(over); i++ {
		if over[i].W != 0 || over[i].T != word.TagRaw {
			oIdx, oOK = over[i].Idx, true
			break
		}
	}
	n, ok := segment.NextNonZero(it.m, it.entry.Seg, from)
	for ok {
		if j, hit := it.writeAt[n]; hit && it.writes[j].W == 0 && it.writes[j].T == word.TagRaw {
			n, ok = segment.NextNonZero(it.m, it.entry.Seg, n+1)
			continue
		}
		break
	}
	switch {
	case ok && (!oOK || n < oIdx):
		return n, true
	case oOK:
		return oIdx, true
	}
	return 0, false
}

// Store buffers a write at idx (§3.3: updates go to transient state).
// Writes accumulate in the register's update buffer — last write to an
// index wins — and convert to content-unique lines in one wave at
// commit (segment.WriteBatch).
func (it *Iterator) Store(idx uint64, v uint64, tag word.Tag) {
	if j, ok := it.writeAt[idx]; ok {
		it.writes[j] = segment.Update{Idx: idx, W: v, T: tag}
		return
	}
	if it.writeAt == nil {
		it.writeAt = make(map[uint64]int)
	}
	it.writeAt[idx] = len(it.writes)
	it.writes = append(it.writes, segment.Update{Idx: idx, W: v, T: tag})
}

// sortedWrites returns the buffered updates in ascending index order.
// The buffer itself stays in store order; the overlay readers need index
// order, and the buffer is deduplicated so each index appears once. The
// returned slice is the register's reused scratch — valid only until the
// next sortedWrites call, which every overlay reader respects (the
// register is single-threaded by contract).
func (it *Iterator) sortedWrites() []segment.Update {
	over := append(it.sorted[:0], it.writes...)
	slices.SortFunc(over, func(a, b segment.Update) int { return cmp.Compare(a.Idx, b.Idx) })
	it.sorted = over
	return over
}

// discardWrites drops the buffered updates without committing them.
func (it *Iterator) discardWrites() {
	if len(it.writes) == 0 {
		return
	}
	it.writes = it.writes[:0]
	clear(it.writeAt)
	it.Stats.Aborts++
}

// flush converts the buffered updates into a committed segment via one
// wave commit and clears the buffer. The caller owns the returned root.
func (it *Iterator) flush() segment.Seg {
	next, wst := segment.WriteBatch(it.m, it.entry.Seg, it.writes)
	it.Stats.Wave.Add(wst)
	it.writes = it.writes[:0]
	clear(it.writeAt)
	return next
}

// CommitSegment converts pending writes and returns the new segment
// without publishing it; the caller owns the returned root. Only valid
// on detached iterators.
func (it *Iterator) CommitSegment() segment.Seg {
	if it.sm != nil {
		panic("iterreg: CommitSegment on an attached iterator; use TryCommit")
	}
	it.Stats.Commits++
	if len(it.writes) == 0 {
		seg := it.entry.Seg
		segment.RetainSeg(it.m, seg)
		return seg
	}
	return it.flush()
}

// TryCommit converts pending writes and publishes the new root with a CAS
// against the snapshotted root (§2.2). On success the iterator's snapshot
// advances to the committed version and the result is true. On failure
// (another thread committed first) all pending writes are discarded, the
// snapshot is reloaded, and the application retries its operation.
func (it *Iterator) TryCommit(size uint64) (bool, error) {
	return it.commit(size, false)
}

func (it *Iterator) commit(size uint64, useMerge bool) (bool, error) {
	if it.sm == nil {
		return false, fmt.Errorf("iterreg: commit on detached iterator")
	}
	if len(it.writes) == 0 {
		return true, nil // nothing to publish
	}
	next := it.flush()
	it.stack = nil

	var ok bool
	var err error
	if useMerge {
		ok, err = merge.MCAS(it.m, it.sm, it.vsid, it.entry.Seg, next, size, nil)
	} else {
		ok = it.sm.CAS(it.vsid, it.entry.Seg, next, size)
		if !ok {
			segment.ReleaseSeg(it.m, next)
		}
	}
	// Count after the outcome is known: a contended or conflicted publish
	// is a failure, not a commit.
	if ok {
		it.Stats.Commits++
	} else {
		it.Stats.CommitFails++
	}
	// Whatever happened, resynchronize the snapshot with the published
	// version (after a merge the committed root differs from next).
	if rerr := it.Reload(); rerr != nil && err == nil {
		err = rerr
	}
	return ok, err
}

// Reload abandons the current snapshot (and pending writes) and
// re-snapshots the segment's current version.
func (it *Iterator) Reload() error {
	if it.sm == nil {
		return fmt.Errorf("iterreg: reload on detached iterator")
	}
	it.discardWrites()
	e, err := it.sm.Load(it.vsid)
	if err != nil {
		return err
	}
	segment.ReleaseSeg(it.m, it.entry.Seg)
	it.entry = e
	it.stack = nil
	return nil
}

// powers returns the memoized arity-power table covering depths [0, h]:
// powers(h)[d] = arity^d, the words one child slot covers d levels above
// the leaves. Extending (never shrinking) on demand keeps the table valid
// across Reload/commit height changes, so every seek indexes instead of
// recomputing the power per level.
func (it *Iterator) powers(h int) []uint64 {
	if len(it.pows) > h {
		return it.pows
	}
	arity := uint64(it.m.LineWords())
	if len(it.pows) == 0 {
		it.pows = append(it.pows, 1)
	}
	for len(it.pows) <= h {
		it.pows = append(it.pows, it.pows[len(it.pows)-1]*arity)
	}
	return it.pows
}
