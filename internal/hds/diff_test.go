package hds

import (
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// Map diff, a test fixture over segment.DiffWords: between two map
// snapshots only the slots on changed paths are fetched, so computing
// "what changed" costs O(changed keys), not O(map size). No binary diffs
// maps.

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
