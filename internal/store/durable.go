package store

import (
	"fmt"
	"sync/atomic"

	"repro/internal/word"
)

// Durability hooks and restore paths. The store is the authoritative
// line state, so the write-ahead layer (internal/durable) observes line
// liveness transitions here: one JournalAlloc per line allocation and
// one JournalFree per reclamation, both invoked while the line's lock
// (its bucket stripe, or the overflow lock) is still held. That lock is
// what orders a PLID's free against its re-allocation — the same slot
// can be recycled for different content, and the log must record the
// transitions in the order the store applied them. Intermediate
// reference-count changes are deliberately not journaled: lines are
// immutable and content-addressed, so recovery derives every count
// structurally (DAG in-degree plus segment-map root references), which
// is also the only correct answer — transient references held by
// in-flight operations at crash time must not survive restart.

// Journal observes line liveness transitions for the write-ahead log.
// Both methods are called with the line's lock held; implementations
// must not call back into the store and must not block on I/O beyond a
// buffer append (group commit does the writing elsewhere).
type Journal interface {
	// JournalAlloc records that p was allocated holding c.
	JournalAlloc(p word.PLID, c word.Content)
	// JournalFree records that p's count reached zero and the line was
	// reclaimed (the terminal reference-count delta).
	JournalFree(p word.PLID)
}

// SetJournal attaches the liveness journal. Attach before the store
// serves traffic (it is read without synchronization on the hot paths);
// passing nil detaches.
func (s *Store) SetJournal(j Journal) { s.journal = j }

// ForEachLive visits every live line with its current content and
// reference count, one lock stripe at a time under shared locks — the
// fuzzy checkpoint iterator. Lines allocated or freed while the walk is
// in flight may or may not be visited; the write-ahead layer pairs the
// walk with a log position taken beforehand, so the log tail replays
// any transition the walk raced with. fn must not call back into the
// store (it runs under a stripe's shared lock). Returning false stops
// the walk.
func (s *Store) ForEachLive(fn func(p word.PLID, c word.Content, rc uint64) bool) {
	for st := 0; st < numStripes; st++ {
		mu := &s.stripes[st].mu
		mu.RLock()
		for b := uint64(st); b <= s.bucketMask; b += numStripes {
			row, ok := s.bucketRow(b)
			if !ok {
				continue
			}
			for w := 0; w < s.cfg.DataWays; w++ {
				ln := row.line(w)
				if !ln.used() {
					continue
				}
				if !fn(s.plidFor(b, w), ln.load(), atomic.LoadUint64(ln.rc())) {
					mu.RUnlock()
					return
				}
			}
		}
		mu.RUnlock()
	}
	s.ovMu.Lock()
	defer s.ovMu.Unlock()
	for i := uint32(0); i < s.ovSlots; i++ {
		ln := s.overflowLine(i)
		if !ln.used() {
			continue
		}
		if !fn(s.overflowPLID(i), ln.load(), *ln.rc()) {
			return
		}
	}
}

// InstallLine places content at an exact PLID with an exact reference
// count — the recovery path. PLIDs are positional (bucket and way are
// baked into the value), so a restored store must reproduce them
// exactly: hds.Map slots are indexed by key-root PLIDs, and a rebuild
// into a different PLID space would orphan every binding. The content
// must hash to the PLID's bucket (i.e. the store geometry must match
// the one that produced the log); violations return an error rather
// than corrupting the bucket index. No DRAM traffic is charged: restore
// is not simulated memory activity. Call only on a quiesced store
// (recovery runs before the machine serves traffic) and finish with
// FinishRestore.
func (s *Store) InstallLine(p word.PLID, c word.Content, rc uint64) error {
	if p == word.Zero || c.IsZero() {
		return fmt.Errorf("store: install of zero PLID or zero content")
	}
	if int(c.N) != s.arity {
		return fmt.Errorf("store: install content width %d, line width %d", c.N, s.arity)
	}
	h := c.Hash()
	sig := word.SignatureOf(h)
	if s.isOverflow(p) {
		// The overflow area grows on demand; the only hard bound on an
		// overflow PLID is the PLID width compaction relies on.
		if uint64(p) >= 1<<uint(s.PLIDBits()) {
			return fmt.Errorf("store: install overflow PLID %#x out of range", uint64(p))
		}
		slot := uint64(p) - s.ovBase
		s.ovMu.Lock()
		defer s.ovMu.Unlock()
		s.growOverflow(uint32(slot) + 1)
		ln := s.overflowLine(uint32(slot))
		if ln.used() {
			return fmt.Errorf("store: install into occupied overflow slot %d", slot)
		}
		ln.store(&c, sig, rc, true)
		if s.ovIndex == nil {
			s.ovIndex = make(map[word.Content]uint32)
		}
		s.ovIndex[c] = uint32(slot)
		s.liveLines.Add(1)
		return nil
	}
	bkt := uint64(p) & s.bucketMask
	way := int(uint64(p)>>s.cfg.BucketBits) - 2
	if way < 0 || way >= s.cfg.DataWays {
		return fmt.Errorf("store: install PLID %#x names way %d", uint64(p), way)
	}
	if h&s.bucketMask != bkt {
		return fmt.Errorf("store: install PLID %#x bucket %d, content hashes to %d (geometry mismatch)",
			uint64(p), bkt, h&s.bucketMask)
	}
	mu := &s.stripes[stripeOf(bkt)].mu
	mu.Lock()
	defer mu.Unlock()
	row := s.bucketRowAlloc(bkt)
	if way >= row.g.ways() {
		row = s.grow(bkt, row)
	}
	ln := row.line(way)
	if ln.used() {
		return fmt.Errorf("store: install into occupied PLID %#x", uint64(p))
	}
	ln.store(&c, sig, rc, true)
	s.liveLines.Add(1)
	return nil
}

// FinishRestore rebuilds the overflow free list after a sequence of
// InstallLine calls left holes in the overflow area (slots whose lines
// were dead at checkpoint time stay reusable).
func (s *Store) FinishRestore() {
	s.ovMu.Lock()
	defer s.ovMu.Unlock()
	s.freeOv = s.freeOv[:0]
	for i := uint32(0); i < s.ovSlots; i++ {
		if !s.overflowLine(i).used() {
			s.freeOv = append(s.freeOv, i)
		}
	}
}
