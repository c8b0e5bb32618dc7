package hds

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/iterreg"
	"repro/internal/merge"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// The other §4 structures as test fixtures; no binary uses them. The
// array publishes through the iterator register (iterreg.Open, Store,
// then TryCommit under retryCAS), the ordered collection through
// segment.WriteBatch and merge.MCAS, as the map does;
// the counters and the queue live in map bindings and publish through
// CompareApply, as a served cas does. Their tests pin those commit paths
// under contention: identical concurrent deltas under plain CAS,
// merge-update of disjoint inserts, snapshot iteration under writes.

// Array is a growable array of tagged words backed by one segment-map
// entry (§4.1).
type Array struct {
	h    *Heap
	vsid word.VSID
}

func NewArray(h *Heap) *Array {
	return &Array{h: h, vsid: h.SM.Create(segmap.Entry{Seg: segment.NewSparse(0)})}
}

// Len returns the logical element count (highest committed Set + 1).
func (a *Array) Len() uint64 {
	e, err := a.h.SM.Load(a.vsid)
	if err != nil {
		return 0
	}
	defer segment.ReleaseSeg(a.h.M, e.Seg)
	return e.Size
}

func (a *Array) At(i uint64) uint64 { return loadWord(a.h, a.vsid, i) }

// Set writes element i, growing the array past i.
func (a *Array) Set(i, v uint64) error {
	return retryCAS(func() (bool, error) {
		it, err := iterreg.Open(a.h.M, a.h.SM, a.vsid)
		if err != nil {
			return false, err
		}
		it.Store(i, v, word.TagRaw)
		ok, err := it.TryCommit(max(it.Size(), i+1))
		it.Close()
		return ok, err
	})
}

// Append adds v at the end, returning its index.
func (a *Array) Append(v uint64) (uint64, error) {
	var idx uint64
	err := retryCAS(func() (bool, error) {
		it, err := iterreg.Open(a.h.M, a.h.SM, a.vsid)
		if err != nil {
			return false, err
		}
		idx = it.Size()
		it.Store(idx, v, word.TagRaw)
		ok, err := it.TryCommit(idx + 1)
		it.Close()
		return ok, err
	})
	return idx, err
}

// Snapshot returns a pinned point-in-time view; callers release it.
func (a *Array) Snapshot() (segment.Seg, uint64, error) {
	e, err := a.h.SM.Load(a.vsid)
	return e.Seg, e.Size, err
}

// loadWord reads word i of the entry's current version.
func loadWord(h *Heap, v word.VSID, i uint64) uint64 {
	e, err := h.SM.Load(v)
	if err != nil {
		return 0
	}
	defer segment.ReleaseSeg(h.M, e.Seg)
	w, _ := segment.ReadWord(h.M, e.Seg, i)
	return w
}

// Counter is §4.3's counter array, held in map bindings (key "c<i>", an
// 8-byte little-endian value) and updated the way a served cas is: read
// under a pinned snapshot, then CompareApply with NoMerge. Merge-update
// would be wrong here: two identical concurrent deltas build the same
// modified version, which a three-way merge takes for one change already
// merged (see package merge).
type Counter struct{ mp *Map }

func NewCounter(h *Heap) *Counter { return &Counter{mp: NewMap(h)} }

func counterKey(i uint64) []byte { return fmt.Appendf(nil, "c%d", i) }

// Add atomically adds delta to counter i.
func (c *Counter) Add(i, delta uint64) (uint64, error) {
	var sum uint64
	err := casUpdate(c.mp, func(seg segment.Seg) []Pair {
		sum = u64(getAt(c.mp, seg, counterKey(i))[0]) + delta
		return []Pair{{Key: counterKey(i), Value: u64Bytes(sum)}}
	})
	return sum, err
}

func (c *Counter) Value(i uint64) uint64 {
	var v uint64
	readAt(c.mp, func(seg segment.Seg) { v = u64(getAt(c.mp, seg, counterKey(i))[0]) })
	return v
}

// Queue is §4.3's multi-producer multi-consumer queue of strings, held in
// map bindings: "head" and "tail" counters and one "q/<n>" binding per
// element. Both ends publish like Counter, for the reason Counter does:
// two producers of equal strings at one tail write identical changes.
type Queue struct{ mp *Map }

var qHead, qTail = []byte("head"), []byte("tail")

func qElem(n uint64) []byte { return fmt.Appendf(nil, "q/%d", n) }

func NewQueue(h *Heap) *Queue { return &Queue{mp: NewMap(h)} }

// Enqueue appends a copy of s's bytes.
func (q *Queue) Enqueue(s String) error {
	b := s.Bytes(q.mp.h)
	return casUpdate(q.mp, func(seg segment.Seg) []Pair {
		tail := u64(getAt(q.mp, seg, qTail)[0])
		return []Pair{{Key: qElem(tail), Value: b}, {Key: qTail, Value: u64Bytes(tail + 1)}}
	})
}

// Dequeue removes and returns the oldest element; ok is false when the
// queue is empty. The caller owns the returned string.
func (q *Queue) Dequeue() (String, bool, error) {
	var got []byte
	var ok bool
	err := casUpdate(q.mp, func(seg segment.Seg) []Pair {
		ends := getAt(q.mp, seg, qHead, qTail)
		head, tail := u64(ends[0]), u64(ends[1])
		if ok = head != tail; !ok {
			return nil
		}
		got = getAt(q.mp, seg, qElem(head))[0]
		return []Pair{{Key: qElem(head), Delete: true}, {Key: qHead, Value: u64Bytes(head + 1)}}
	})
	if err != nil || !ok {
		return String{}, false, err
	}
	return NewString(q.mp.h, got), true, nil
}

func (q *Queue) Len() uint64 {
	var n uint64
	readAt(q.mp, func(seg segment.Seg) {
		ends := getAt(q.mp, seg, qHead, qTail)
		n = u64(ends[1]) - u64(ends[0])
	})
	return n
}

func (q *Queue) Release() error { return q.mp.Release() }

// casUpdate runs one read-modify-write: fn reads what it needs under a
// pinned snapshot and returns the pairs to publish; CompareApply with
// NoMerge publishes them only if no commit landed since, and a lost race
// re-runs fn against the new version.
func casUpdate(mp *Map, fn func(seg segment.Seg) []Pair) error {
	return retryCAS(func() (bool, error) {
		seg, size, err := mp.SnapshotEntry()
		if err != nil {
			return false, err
		}
		defer segment.ReleaseSeg(mp.h.M, seg)
		pairs := fn(seg)
		if len(pairs) == 0 {
			return true, nil
		}
		if err := mp.CompareApply(seg, size, pairs, ApplyOptions{NoMerge: true}); err != ErrStale {
			return true, err
		}
		return false, nil
	})
}

// readAt runs fn against a pinned snapshot of mp.
func readAt(mp *Map, fn func(seg segment.Seg)) {
	seg, _, err := mp.SnapshotEntry()
	if err != nil {
		return
	}
	defer segment.ReleaseSeg(mp.h.M, seg)
	fn(seg)
}

// getAt returns copies of the values bound to keys in seg, nil when
// unbound.
func getAt(mp *Map, seg segment.Seg, keys ...[]byte) [][]byte {
	var r ReadBuf
	mp.GetBytesAtInto(seg, keys, &r)
	out := make([][]byte, len(keys))
	for i, ok := range r.Found {
		if ok {
			out[i] = bytes.Clone(r.Vals[i])
		}
	}
	return out
}

func u64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func u64Bytes(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// Ordered is the §4.1 ordered collection: values indexed by a 64-bit key,
// stored in a sparse merge-update segment with the value root at 2*key
// and its length+1 at 2*key+1. Ordering is the address space itself and
// in-order iteration is the iterator register's next-non-zero walk.
type Ordered struct {
	h    *Heap
	vsid word.VSID
}

// Item is one binding for Ordered.Apply.
type Item struct {
	Key   uint64
	Value []byte
}

func NewOrdered(h *Heap) *Ordered {
	v := h.SM.Create(segmap.Entry{Seg: segment.NewSparse(0), Flags: segmap.FlagMergeUpdate})
	return &Ordered{h: h, vsid: v}
}

// update runs one merge-update commit of the slot words fn returns for
// the current version, which it reads through it (none: nothing to
// publish).
func (o *Ordered) update(m word.Mem, fn func(it *iterreg.Iterator) []segment.Update) error {
	return retryCAS(func() (bool, error) {
		e, err := o.h.SM.Load(o.vsid)
		if err != nil {
			return false, err
		}
		defer segment.ReleaseSeg(m, e.Seg)
		it := iterreg.NewSegmentIterator(m, e.Seg)
		ups := fn(it)
		it.Close()
		if len(ups) == 0 {
			return true, nil
		}
		next, _ := segment.WriteBatch(m, e.Seg, ups)
		ok, err := merge.MCAS(m, o.h.SM, o.vsid, e.Seg, next, e.Size, nil)
		if err == merge.ErrConflict {
			return false, nil
		}
		return ok, err
	})
}

func elemUpdates(ups []segment.Update, key uint64, v String) []segment.Update {
	w, tag := uint64(v.Seg.Root), word.TagPLID
	if v.Seg.Root == word.Zero {
		w, tag = 0, word.TagRaw
	}
	return append(ups, segment.Update{Idx: 2 * key, W: w, T: tag}, segment.Update{Idx: 2*key + 1, W: v.Len + 1})
}

// Put binds key to value; concurrent puts at different keys merge.
func (o *Ordered) Put(key uint64, value String) error {
	return o.update(o.h.M, func(*iterreg.Iterator) []segment.Update { return elemUpdates(nil, key, value) })
}

func (o *Ordered) Delete(key uint64) error {
	return o.update(o.h.M, func(it *iterreg.Iterator) []segment.Update {
		if present, _ := it.Load(2*key + 1); present == 0 {
			return nil
		}
		return []segment.Update{{Idx: 2 * key}, {Idx: 2*key + 1}}
	})
}

// Apply binds every item in one committed update, with Map.Apply's
// ErrorOnDup semantics, building the values in one netting scope.
func (o *Ordered) Apply(items []Item, opts ApplyOptions) error {
	if len(items) == 0 {
		return nil
	}
	if opts.ErrorOnDup {
		seen := make(map[uint64]bool, len(items))
		for _, item := range items {
			if seen[item.Key] {
				return ErrDuplicateKey
			}
			seen[item.Key] = true
		}
	}
	sc := o.h.M.Scope()
	defer sc.Close()
	vals := make([]String, len(items))
	for i, item := range items {
		vals[i] = String{Seg: segment.BuildBytes(sc, item.Value), Len: uint64(len(item.Value))}
	}
	err := o.update(sc, func(*iterreg.Iterator) []segment.Update {
		var ups []segment.Update
		for i, item := range items {
			ups = elemUpdates(ups, item.Key, vals[i])
		}
		return ups
	})
	for _, v := range vals {
		segment.ReleaseSeg(sc, v.Seg)
	}
	return err
}

// Get returns the value at key; the caller receives a retained reference.
func (o *Ordered) Get(key uint64) (String, bool) {
	it, err := iterreg.Open(o.h.M, o.h.SM, segmap.ReadOnlyRef(o.vsid))
	if err != nil {
		return String{}, false
	}
	defer it.Close()
	return o.loadAt(it, key)
}

func (o *Ordered) loadAt(it *iterreg.Iterator, key uint64) (String, bool) {
	lenPlus, _ := it.Load(2*key + 1)
	if lenPlus == 0 {
		return String{}, false
	}
	n := lenPlus - 1
	v, _ := it.Load(2 * key)
	val := String{Seg: segment.Seg{Root: word.PLID(v), Height: heightForBytes(o.h, n)}, Len: n}
	val.Retain(o.h)
	return val, true
}

// Range calls fn in ascending key order for every element of one
// snapshot, starting at from (the §2.2 long-running read-only
// transaction). fn's reference is released after it returns; returning
// false stops the walk.
func (o *Ordered) Range(from uint64, fn func(key uint64, val String) bool) error {
	it, err := iterreg.Open(o.h.M, o.h.SM, segmap.ReadOnlyRef(o.vsid))
	if err != nil {
		return err
	}
	defer it.Close()
	for idx, ok := it.NextNonZero(2 * from); ok; idx, ok = it.NextNonZero(idx - idx%2 + 2) {
		val, _ := o.loadAt(it, idx/2)
		cont := fn(idx/2, val)
		val.Release(o.h)
		if !cont {
			break
		}
	}
	return nil
}

// First returns the smallest key at or above from.
func (o *Ordered) First(from uint64) (uint64, bool) {
	it, err := iterreg.Open(o.h.M, o.h.SM, segmap.ReadOnlyRef(o.vsid))
	if err != nil {
		return 0, false
	}
	defer it.Close()
	idx, ok := it.NextNonZero(2 * from)
	return idx / 2, ok
}
