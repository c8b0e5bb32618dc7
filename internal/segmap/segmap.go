// Package segmap implements the HICAMP virtual segment map (paper §2.3):
// the mapping from virtual segment IDs to [root PLID, height, flags]
// entries. The map is the only mutable state in the architecture; every
// segment update is published by atomically replacing a root PLID here,
// which is what gives HICAMP its snapshot isolation and single-CAS atomic
// update.
//
// Read-only references are modelled as a capability bit inside the VSID
// value itself: a thread handed a read-only VSID can load snapshots but
// its CAS attempts fail, matching the paper's "a reference can be passed
// as read-only, restricting the process from updating the root PLID".
//
// The map keeps per-VSID conflict telemetry — commit, conflict,
// capability-denial and abort counts — exposed by Snapshot, the
// observability surface the §5.1.1 contention experiments read.
package segmap

import (
	"fmt"
	"sync"

	"repro/internal/segment"
	"repro/internal/word"
)

// Flags annotate a segment map entry.
type Flags uint8

const (
	// FlagMergeUpdate marks the segment as eligible for merge-update
	// (paper §3.4): conflicting CAS attempts try a three-way merge
	// instead of failing back to the application.
	FlagMergeUpdate Flags = 1 << iota
)

// roBit marks a VSID value as a read-only capability.
const roBit word.VSID = 1 << 62

// ReadOnlyRef derives the read-only capability for a VSID.
func ReadOnlyRef(v word.VSID) word.VSID { return v | roBit }

// IsReadOnly reports whether a VSID is a read-only capability.
func IsReadOnly(v word.VSID) bool { return v&roBit != 0 }

func baseID(v word.VSID) word.VSID { return v &^ roBit }

// Entry is one segment map record. Size is the segment's logical byte
// length — software metadata kept alongside the architectural
// [rootPLID, height, flags] triple (see DESIGN.md deviations).
type Entry struct {
	Seg   segment.Seg
	Flags Flags
	Size  uint64
}

// VSIDStats counts the update outcomes observed through one VSID — the
// per-entry conflict telemetry of the §5.1.1 analysis.
type VSIDStats struct {
	Commits   uint64 // successful publishes
	Conflicts uint64 // publishes lost to a concurrent committer (stale root)
	Denied    uint64 // attempts rejected by the read-only capability check
}

func (s VSIDStats) add(o VSIDStats) VSIDStats {
	return VSIDStats{
		Commits:   s.Commits + o.Commits,
		Conflicts: s.Conflicts + o.Conflicts,
		Denied:    s.Denied + o.Denied,
	}
}

type slot struct {
	used  bool
	e     Entry
	stats VSIDStats
}

// Map is a virtual segment map. All methods are safe for concurrent use.
// The map itself stays a single serialization point — it models the one
// architecturally-atomic CAS on an entry — but it never holds its lock
// across reference-count traffic into the memory system: retains happen
// under the lock (they must be atomic with reading the root), releases of
// displaced roots happen after it is dropped.
type Map struct {
	mu    sync.Mutex
	mem   word.Mem
	slots []slot
	free  []word.VSID
	// Aggregate stats. casOK/casFail keep the legacy CAS success/failure
	// split; reclaimed accumulates the per-VSID counters of deleted slots
	// so Snapshot totals are stable across slot reuse.
	casOK     uint64
	casFail   uint64
	reclaimed VSIDStats

	// journal, when non-nil, observes publishes and deletes for the
	// write-ahead log (see durable.go). Called under sm.mu.
	journal Journal
}

// New creates an empty map over the given memory.
func New(mem word.Mem) *Map { return &Map{mem: mem} }

// Create installs a new entry and returns its VSID. Ownership of the
// caller's reference on e.Seg.Root transfers to the map.
func (sm *Map) Create(e Entry) word.VSID {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	v := sm.install(slot{used: true, e: e})
	if sm.journal != nil {
		sm.journal.JournalPublish(v, e)
	}
	return v
}

func (sm *Map) install(s slot) word.VSID {
	if n := len(sm.free); n > 0 {
		v := sm.free[n-1]
		sm.free = sm.free[:n-1]
		sm.slots[v-1] = s
		return v
	}
	sm.slots = append(sm.slots, s)
	return word.VSID(len(sm.slots))
}

// liveSlot returns the live slot v names, or nil when it names none.
func (sm *Map) liveSlot(v word.VSID) *slot {
	id := baseID(v)
	if id == 0 || uint64(id) > uint64(len(sm.slots)) || !sm.slots[id-1].used {
		return nil
	}
	return &sm.slots[id-1]
}

// slotFor is liveSlot reporting a VSID that names no live slot as an
// error.
func (sm *Map) slotFor(v word.VSID) (*slot, error) {
	if s := sm.liveSlot(v); s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("segmap: invalid VSID %#x", uint64(v))
}

// Load returns a stable snapshot of the segment: the root reference count
// is bumped so concurrent commits cannot reclaim the DAG under the
// reader. Callers release it with segment.ReleaseSeg when done.
func (sm *Map) Load(v word.VSID) (Entry, error) {
	sm.mu.Lock()
	s, err := sm.slotFor(v)
	if err != nil {
		sm.mu.Unlock()
		return Entry{}, err
	}
	e := s.e
	touch := retainUnder(sm.mem, e.Seg)
	sm.mu.Unlock()
	if touch != nil {
		touch()
	}
	return e, nil
}

// deferredRetainer is implemented by memories (core.Machine) that can
// split a retain into the atomic count bump and the traffic accounting.
type deferredRetainer interface {
	RetainDeferred(p word.PLID) func()
}

// retainUnder takes the lock-atomic half of a segment retain: the count
// is bumped before sm.mu drops — so a concurrent commit cannot reclaim
// the DAG between the root read and the retain — while the
// reference-count traffic accounting, which re-enters the cache layer, is
// returned as a closure for the caller to run after unlocking. Memories
// without the split fall back to a full retain under the lock.
func retainUnder(mem word.Mem, s segment.Seg) func() {
	if s.Root == word.Zero {
		return nil
	}
	if dr, ok := mem.(deferredRetainer); ok {
		return dr.RetainDeferred(s.Root)
	}
	segment.RetainSeg(mem, s)
	return nil
}

// Flags returns the entry's flags.
func (sm *Map) Flags(v word.VSID) (Flags, error) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	s, err := sm.slotFor(v)
	if err != nil {
		return 0, err
	}
	return s.e.Flags, nil
}

// CAS atomically replaces the entry's segment with next if its current
// root still equals old's root — the non-blocking atomic update of §2.2.
// On success the map takes ownership of the caller's reference on
// next.Root and releases its reference on the old root; on failure the
// caller keeps ownership of next. CAS through a read-only reference
// always fails.
func (sm *Map) CAS(v word.VSID, old segment.Seg, next segment.Seg, size uint64) bool {
	sm.mu.Lock()
	if IsReadOnly(v) {
		sm.casFail++
		if s := sm.liveSlot(v); s != nil {
			s.stats.Denied++
		}
		sm.mu.Unlock()
		return false
	}
	s, err := sm.slotFor(v)
	if err != nil {
		sm.casFail++
		sm.mu.Unlock()
		return false
	}
	if s.e.Seg.Root != old.Root {
		sm.casFail++
		s.stats.Conflicts++
		sm.mu.Unlock()
		return false
	}
	prev := s.e.Seg
	s.e.Seg = next
	s.e.Size = size
	sm.casOK++
	s.stats.Commits++
	if sm.journal != nil {
		sm.journal.JournalPublish(baseID(v), s.e)
	}
	sm.mu.Unlock()
	// The displaced root is released outside the lock: the new root is
	// already published, and holding the map across the recursive
	// de-allocation would serialize unrelated commits behind it.
	segment.ReleaseSeg(sm.mem, prev)
	return true
}

// Delete removes the entry, releasing its reference on the root.
// Deleting through a read-only reference fails.
func (sm *Map) Delete(v word.VSID) error {
	sm.mu.Lock()
	if IsReadOnly(v) {
		if s := sm.liveSlot(v); s != nil {
			s.stats.Denied++
		}
		sm.mu.Unlock()
		return fmt.Errorf("segmap: delete through read-only VSID %#x", uint64(v))
	}
	s, err := sm.slotFor(v)
	if err != nil {
		sm.mu.Unlock()
		return err
	}
	id := baseID(v)
	release := s.e.Seg
	sm.reclaimed = sm.reclaimed.add(s.stats)
	*s = slot{}
	sm.free = append(sm.free, id)
	if sm.journal != nil {
		sm.journal.JournalDelete(id)
	}
	sm.mu.Unlock()
	segment.ReleaseSeg(sm.mem, release)
	return nil
}

// CASStats returns (successes, failures) of CAS attempts.
func (sm *Map) CASStats() (uint64, uint64) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.casOK, sm.casFail
}

// Snapshot is a point-in-time view of the map's conflict telemetry.
type Snapshot struct {
	Entries int // live entries
	CASOK   uint64
	CASFail uint64
	// PerVSID holds the counters of live slots with any recorded
	// activity, keyed by base VSID.
	PerVSID map[word.VSID]VSIDStats
	// Total aggregates every slot's counters, including slots since
	// deleted, so it is monotone across entry churn.
	Total VSIDStats
}

// Snapshot captures the current conflict/retry/abort counters.
func (sm *Map) Snapshot() Snapshot {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	snap := Snapshot{
		CASOK:   sm.casOK,
		CASFail: sm.casFail,
		PerVSID: make(map[word.VSID]VSIDStats),
		Total:   sm.reclaimed,
	}
	for i := range sm.slots {
		s := &sm.slots[i]
		if !s.used {
			continue
		}
		snap.Entries++
		snap.Total = snap.Total.add(s.stats)
		if s.stats != (VSIDStats{}) {
			snap.PerVSID[word.VSID(i+1)] = s.stats
		}
	}
	return snap
}
