package segmap

import (
	"fmt"

	"repro/internal/word"
)

// Durability hooks and restore paths. The segment map is the only
// mutable state in the architecture, so root publishes observed here —
// together with the store's line liveness journal — are everything the
// write-ahead layer (internal/durable) needs to reconstruct the machine.
// Weak aliases are deliberately not journaled: they are non-owning
// ephemeral references whose zeroing semantics would require persisting
// slot generations; a restarted process re-creates any aliases it needs
// (documented limitation, see DESIGN.md).

// Journal observes entry publishes and deletes for the write-ahead log.
// Both methods are called with sm.mu held — that lock is the publish
// order, and the log must record publishes in the order readers could
// observe them. Implementations must not call back into the map and must
// not block beyond a buffer append.
type Journal interface {
	// JournalPublish records that v now maps to e (creation or root
	// replacement; e.Seg.Root may be Zero for an empty segment).
	JournalPublish(v word.VSID, e Entry)
	// JournalDelete records that v's entry was removed.
	JournalDelete(v word.VSID)
}

// SetJournal attaches the publish journal; passing nil detaches it. The
// journal is read under sm.mu, so either is safe while the map serves
// traffic: a publish is journaled to whichever journal held the lock.
func (sm *Map) SetJournal(j Journal) {
	sm.mu.Lock()
	sm.journal = j
	sm.mu.Unlock()
}

// DumpEntry pairs a VSID with its entry for checkpointing.
type DumpEntry struct {
	V word.VSID
	E Entry
}

// Dump returns every live non-weak entry under one lock acquisition —
// the checkpoint snapshot. The returned roots are NOT retained: the
// caller must pair the dump with log positioning (see internal/durable)
// rather than holding the segments.
func (sm *Map) Dump() []DumpEntry {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	out := make([]DumpEntry, 0, len(sm.slots))
	for i := range sm.slots {
		s := &sm.slots[i]
		if !s.used || s.weak {
			continue
		}
		out = append(out, DumpEntry{V: word.VSID(i + 1), E: s.e})
	}
	return out
}

// Restore installs entries at their exact VSIDs into an empty map — the
// recovery path. VSIDs are positional (slot index + 1) and embedded in
// client state (kvstore namespaces, hds handles), so a restored map must
// reproduce them exactly. Gaps between the installed VSIDs become free
// slots, preserving the allocator's reuse behaviour. Ownership of one
// reference per non-zero root transfers to the map (recovery installed
// those references when it rebuilt the store's counts). No journal
// callbacks fire: recovery replays the log, it does not extend it.
func (sm *Map) Restore(entries []DumpEntry) error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if len(sm.slots) != 0 {
		return fmt.Errorf("segmap: restore into non-empty map (%d slots)", len(sm.slots))
	}
	var max word.VSID
	for _, de := range entries {
		if de.V == 0 || de.V&(roBit|weakBit) != 0 {
			return fmt.Errorf("segmap: restore of invalid VSID %#x", uint64(de.V))
		}
		if de.V > max {
			max = de.V
		}
	}
	sm.slots = make([]slot, max)
	for _, de := range entries {
		s := &sm.slots[de.V-1]
		if s.used {
			return fmt.Errorf("segmap: duplicate VSID %#x in restore", uint64(de.V))
		}
		*s = slot{used: true, e: de.E}
	}
	for i := range sm.slots {
		if !sm.slots[i].used {
			sm.free = append(sm.free, word.VSID(i+1))
		}
	}
	return nil
}
