package hds

import (
	"repro/internal/iterreg"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// Streaming map walks. A whole-map traversal through Get-style point
// reads re-descends the DAG once per slot word; the walks here take one
// snapshot and stream it with the segment scanner (level-order waves,
// per-wave line dedup), reassembling 4-word slots from the emission
// stream. Diffing rides DiffWords: between two map snapshots only the
// slots on changed paths are ever fetched, so computing "what changed"
// costs O(changed keys), not O(map size).

// slotEmitter accumulates ascending scan emissions into map slots and
// flushes each completed, present slot to fn.
type slotEmitter struct {
	h    *Heap
	fn   func(key, val String) bool
	cur  uint64
	ws   [slotWords]uint64
	have bool
}

// word feeds one scan emission; returns false when fn stopped the walk.
func (se *slotEmitter) word(idx uint64, w uint64) bool {
	slot := idx / slotWords
	if se.have && slot != se.cur {
		if !se.flush() {
			return false
		}
	}
	se.cur, se.have = slot, true
	se.ws[idx%slotWords] = w
	return true
}

// flush emits the pending slot if it holds a binding. The strings are
// NOT retained: the walk's open snapshot pins them for the duration of
// fn, and skipping the per-binding RC bumps keeps a full-store scan free
// of refcount DRAM traffic the serial walk never paid. fn retains them
// to keep them past its return.
func (se *slotEmitter) flush() bool {
	if !se.have {
		return true
	}
	ws := se.ws
	se.ws = [slotWords]uint64{}
	se.have = false
	lenPlus := ws[slotValLen]
	if lenPlus == 0 {
		return true
	}
	n := lenPlus - 1
	key := String{Seg: segment.Seg{Root: word.PLID(ws[slotKey]), Height: heightForBytes(se.h, ws[slotKeyLen])}, Len: ws[slotKeyLen]}
	val := String{Seg: segment.Seg{Root: word.PLID(ws[slotValue]), Height: heightForBytes(se.h, n)}, Len: n}
	return se.fn(key, val)
}

// ForEach calls fn for every binding of a snapshot taken at the start of
// the walk, in ascending slot (key-PLID) order, through one streamed
// scan. fn's string references are pinned by the walk's snapshot and
// valid only until the walk ends — retain them to keep them longer;
// returning false stops the walk.
func (mp *Map) ForEach(fn func(key, val String) bool) error {
	it, err := iterreg.Open(mp.h.M, mp.h.SM, segmap.ReadOnlyRef(mp.vsid))
	if err != nil {
		return err
	}
	defer it.Close()
	se := &slotEmitter{h: mp.h, fn: fn}
	stopped := false
	it.Scan(0, func(idx uint64, w uint64, t word.Tag) bool {
		if !se.word(idx, w) {
			stopped = true
			return false
		}
		return true
	})
	if !stopped {
		se.flush()
	}
	return nil
}

// bytesScanBatch is how many bindings BytesScan materializes per bulk
// gather; larger batches dedup more shared value lines per wave (the
// gather's per-wave PLID dedup only sees sharing within one batch), at
// the cost of latency to the first callback.
const bytesScanBatch = 4096

// BytesScan streams every binding of one snapshot as materialized bytes:
// the slot walk runs through the scanner and the key/value contents of
// each batch resolve through one shared level-order gather, so value
// lines deduplicated across entries are fetched once per wave. fn owns
// the byte slices; returning false stops the walk.
func (mp *Map) BytesScan(fn func(key, val []byte) bool) error {
	it, err := iterreg.Open(mp.h.M, mp.h.SM, segmap.ReadOnlyRef(mp.vsid))
	if err != nil {
		return err
	}
	defer it.Close()
	// Strings collected per batch are pinned by the open snapshot, so the
	// deferred materialization needs no extra references.
	batch := make([]String, 0, 2*bytesScanBatch)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		bs := BytesMany(mp.h, batch)
		for i := 0; i < len(bs); i += 2 {
			if !fn(bs[i], bs[i+1]) {
				return false
			}
		}
		batch = batch[:0]
		return true
	}
	se := &slotEmitter{h: mp.h, fn: func(key, val String) bool {
		batch = append(batch, key, val)
		if len(batch) >= 2*bytesScanBatch {
			return flush()
		}
		return true
	}}
	stopped := false
	it.Scan(0, func(idx uint64, w uint64, t word.Tag) bool {
		if !se.word(idx, w) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return nil
	}
	if !se.flush() {
		return nil
	}
	flush()
	return nil
}

// Snapshot returns a stable point-in-time view of the map segment for
// later diffing; the caller owns the returned root (release it with
// segment.ReleaseSeg when done).
func (mp *Map) Snapshot() (segment.Seg, error) {
	e, err := mp.h.SM.Load(segmap.ReadOnlyRef(mp.vsid))
	if err != nil {
		return segment.Seg{}, err
	}
	return e.Seg, nil
}

// SnapshotEntry is Snapshot plus the version's registered logical size —
// the pair CompareApply needs to publish against the pinned version. The
// caller owns the returned root.
func (mp *Map) SnapshotEntry() (segment.Seg, uint64, error) {
	e, err := mp.h.SM.Load(segmap.ReadOnlyRef(mp.vsid))
	if err != nil {
		return segment.Seg{}, 0, err
	}
	return e.Seg, e.Size, nil
}

// MapDelta describes one changed binding between two map snapshots.
type MapDelta struct {
	Key       String // from the after side when present there, else before
	Before    String // valid when HasBefore
	After     String // valid when HasAfter
	HasBefore bool
	HasAfter  bool
}

// DiffSnapshots invokes fn for every key whose binding differs between
// map snapshots a (before) and b (after), in ascending slot order.
// Identical sub-DAGs are skipped by PLID equality (segment.DiffWords), so
// the walk reads lines proportional to the changed paths, not the map
// size. The delta's strings are pinned by the snapshots — they stay valid
// while the caller holds a and b; retain them to keep them longer. fn
// returning false stops the delta emission (the word-level diff itself
// has already completed).
func DiffSnapshots(h *Heap, a, b segment.Seg, fn func(d MapDelta) bool) segment.DiffStats {
	var slots []uint64
	st := segment.DiffWords(h.M, a, b, func(idx uint64, av, bv uint64, at, bt word.Tag) bool {
		slot := idx - idx%slotWords
		if len(slots) == 0 || slots[len(slots)-1] != slot {
			slots = append(slots, slot)
		}
		return true
	})
	if len(slots) == 0 {
		return st
	}
	// Materialize the changed slots from both sides in two gathers —
	// memory stays proportional to the changes.
	idxs := make([]uint64, 0, len(slots)*slotWords)
	for _, s := range slots {
		for i := uint64(0); i < slotWords; i++ {
			idxs = append(idxs, s+i)
		}
	}
	aw, _ := segment.GatherWords(h.M, a, idxs)
	bw, _ := segment.GatherWords(h.M, b, idxs)
	side := func(ws []uint64, o int) (String, String, bool) {
		lp := ws[o+slotValLen]
		if lp == 0 {
			return String{}, String{}, false
		}
		key := String{Seg: segment.Seg{Root: word.PLID(ws[o+slotKey]), Height: heightForBytes(h, ws[o+slotKeyLen])}, Len: ws[o+slotKeyLen]}
		val := String{Seg: segment.Seg{Root: word.PLID(ws[o+slotValue]), Height: heightForBytes(h, lp-1)}, Len: lp - 1}
		return key, val, true
	}
	for i := range slots {
		o := i * slotWords
		var d MapDelta
		var ka, kb String
		ka, d.Before, d.HasBefore = side(aw, o)
		kb, d.After, d.HasAfter = side(bw, o)
		if !d.HasBefore && !d.HasAfter {
			continue // changed words but no binding on either side
		}
		if d.HasAfter {
			d.Key = kb
		} else {
			d.Key = ka
		}
		if !fn(d) {
			break
		}
	}
	return st
}

// Diff invokes fn for every key whose binding differs between old (a
// prior Snapshot) and the map's current version — see DiffSnapshots.
func (mp *Map) Diff(old segment.Seg, fn func(d MapDelta) bool) (segment.DiffStats, error) {
	cur, err := mp.Snapshot()
	if err != nil {
		return segment.DiffStats{}, err
	}
	defer segment.ReleaseSeg(mp.h.M, cur)
	return DiffSnapshots(mp.h, old, cur, fn), nil
}
