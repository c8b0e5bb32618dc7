package segmap

import (
	"fmt"

	"repro/internal/segment"
	"repro/internal/word"
)

// The paper allows the map itself to live in a HICAMP segment, so that
// several entries commit atomically. Batch models that as a test
// fixture (every served publish is a single-entry CAS): a group of entry
// updates that commits all-or-nothing with write-write conflict
// detection, serialized against the map's own lock, slot generations and
// telemetry.

// Batch is an atomic multi-entry update: the semantics of a segment map
// that is itself a HICAMP segment, where revised entries become visible
// only when the revised map commits (paper §2.3). Conflict detection is
// per-entry: the batch fails if any written entry changed since the
// batch snapshotted it. A Batch belongs to one thread (it models one
// core's pending map revision); Commit and Abort serialize against the
// map itself.
type Batch struct {
	sm      *Map
	reads   map[word.VSID]word.PLID // root observed at first access
	writes  map[word.VSID]Entry
	aborted []word.VSID // entries whose buffered stores Abort dropped
}

// Begin opens a batch.
func (sm *Map) Begin() *Batch {
	return &Batch{
		sm:     sm,
		reads:  make(map[word.VSID]word.PLID),
		writes: make(map[word.VSID]Entry),
	}
}

// Load reads an entry within the batch, recording its root for conflict
// detection. The returned segment is retained like Map.Load.
func (b *Batch) Load(v word.VSID) (Entry, error) {
	if e, ok := b.writes[baseID(v)]; ok {
		segment.RetainSeg(b.sm.mem, e.Seg)
		return e, nil
	}
	e, err := b.sm.Load(v)
	if err != nil {
		return Entry{}, err
	}
	if _, seen := b.reads[baseID(v)]; !seen {
		b.reads[baseID(v)] = e.Seg.Root
	}
	return e, nil
}

// Store buffers an entry update. Ownership of the caller's reference on
// e.Seg.Root transfers to the batch (released if the batch fails). Like
// Map.CAS, storing through a read-only capability is rejected.
func (b *Batch) Store(v word.VSID, e Entry) error {
	if IsReadOnly(v) {
		b.noteDenied(v)
		return fmt.Errorf("segmap: batch store through read-only VSID %#x", uint64(v))
	}
	id := baseID(v)
	if prev, ok := b.writes[id]; ok {
		segment.ReleaseSeg(b.sm.mem, prev.Seg)
	}
	b.writes[id] = e
	return nil
}

func (b *Batch) noteDenied(v word.VSID) {
	sm := b.sm
	sm.mu.Lock()
	if s := sm.liveSlot(v); s != nil {
		s.stats.Denied++
	}
	sm.mu.Unlock()
}

// Commit applies every buffered store atomically if no written entry has
// changed since the batch read it. On failure all buffered references are
// released and no entry changes. It reports success.
func (b *Batch) Commit() bool {
	sm := b.sm
	sm.mu.Lock()
	for v := range b.writes {
		s, err := sm.slotFor(v)
		if err != nil {
			drop := b.takeWrites()
			sm.mu.Unlock()
			releaseAll(sm.mem, drop)
			return false
		}
		if seen, ok := b.reads[v]; ok && s.e.Seg.Root != seen {
			sm.casFail++
			if st := sm.liveSlot(v); st != nil {
				st.stats.Conflicts++
			}
			drop := b.takeWrites()
			sm.mu.Unlock()
			releaseAll(sm.mem, drop)
			return false
		}
	}
	// The read-only screen ran in Store, and slotFor above resolved live
	// slots only, so every write lands on the entry it named.
	var displaced []segment.Seg
	for v, e := range b.writes {
		s, _ := sm.slotFor(v)
		displaced = append(displaced, s.e.Seg)
		s.e = e
		sm.casOK++
		s.stats.Commits++
		if sm.journal != nil {
			sm.journal.JournalPublish(v, e)
		}
	}
	b.writes = nil
	sm.mu.Unlock()
	releaseAll(sm.mem, displaced)
	return true
}

// Abort releases all buffered references without applying anything,
// recording the entries it dropped stores for in b.aborted.
func (b *Batch) Abort() {
	for v := range b.writes {
		b.aborted = append(b.aborted, v)
	}
	releaseAll(b.sm.mem, b.takeWrites())
}

// takeWrites detaches the buffered segments for release outside the lock.
func (b *Batch) takeWrites() []segment.Seg {
	segs := make([]segment.Seg, 0, len(b.writes))
	for _, e := range b.writes {
		segs = append(segs, e.Seg)
	}
	b.writes = nil
	return segs
}

func releaseAll(mem word.Mem, segs []segment.Seg) {
	for _, s := range segs {
		segment.ReleaseSeg(mem, s)
	}
}
