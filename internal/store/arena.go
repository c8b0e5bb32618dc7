package store

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
)

// Where the bucket records live. Records are fixed-size and pointer-free,
// and no bucket ever holds more than one small and one full record, so
// the table needs no allocator — only zeroed address space, a bump
// cursor and, for small records vacated by growth, a free list per lock
// stripe (rows.go). Storage is a run of fixed-size chunks of words;
// records are carved from them in first-touch order, on 64-byte host
// line boundaries, and never straddle two chunks. A directory entry holds
// the record's handle: its offset in 64-byte units plus one, shifted left
// by one, with the width in the low bit (0 means never touched). Both
// builds address records this way; they differ only in where a chunk's
// words come from.
//
// On linux (race detector off) New reserves the worst case once through
// newArena (arena_mmap.go) — buckets × (small + full) records — and a
// chunk is a window into that reservation: the kernel faults zero pages
// in as they are written, and the garbage collector neither scans the
// table nor budgets GOGC headroom for it (a heap-resident table costs its
// size again in collector headroom). Records go out in first-touch order,
// not at an offset fixed by the bucket, so buckets touched together share
// host pages and a sparsely used table costs no more pages than its
// records fill. Every other build gets no reservation (arena_heap.go) and
// makes each chunk on the heap when the cursor first enters it. The
// choice is the build's, never a caller's.

// maxChunkUnits bounds a chunk at 256 KB; a table smaller than that is one
// chunk of its own size.
const maxChunkUnits = 1 << 12

// initTable sizes the directory and the chunk run for cfg's geometry and
// reserves the table where the build keeps it outside the heap.
func (s *Store) initTable(buckets int) {
	s.dir = make([]uint32, buckets)
	fullUnits := uint64(s.geos[full].units())
	worst := uint64(buckets) * (uint64(s.geos[small].units()) + fullUnits)
	chunk, n := uint64(maxChunkUnits), uint64(1)
	if worst <= chunk {
		chunk = 1 << bits.Len64(worst-1)
	} else {
		// A record that would straddle a chunk boundary starts the next
		// chunk instead, so each chunk carries less than one full record
		// of slack.
		fit := chunk - fullUnits
		n = (worst + fit - 1) / fit
	}
	s.chunkShift = uint(bits.TrailingZeros64(chunk))
	if n<<s.chunkShift >= 1<<31 {
		panic(fmt.Sprintf("store: %d buckets of %d-byte lines exceed the record handle range", buckets, s.cfg.LineBytes))
	}
	s.chunks = make([][]uint64, n)
	s.table = reserveTable(int(n<<s.chunkShift) * 64)
}

// carve hands out a fresh, zeroed record of the given width and returns
// its handle. The caller holds some stripe lock exclusively; carveMu is
// only ever taken inside one.
func (s *Store) carve(width int) uint32 {
	n := s.geos[width].units()
	mask := uint32(1)<<s.chunkShift - 1
	s.carveMu.Lock()
	u := s.cursor
	if u&mask+n > mask+1 {
		u = (u | mask) + 1
	}
	s.cursor = u + n
	if ci := u >> s.chunkShift; s.chunks[ci] == nil {
		words := 8 << s.chunkShift
		if s.table != nil {
			s.chunks[ci] = s.table.words[int(ci)*words : int(ci+1)*words : int(ci+1)*words]
		} else {
			s.chunks[ci] = make([]uint64, words)
		}
	}
	s.carveMu.Unlock()
	s.carved.Add(uint64(n) * 64)
	return (u+1)<<1 | uint32(width)
}

// record returns the view of the record a handle names. The caller holds
// the owning bucket's stripe lock (shared or exclusive).
func (s *Store) record(h uint32) rowRef {
	u := h>>1 - 1
	g := s.geos[h&1]
	off := int(u&(1<<s.chunkShift-1)) * 8
	n := g.recWords()
	return rowRef{rec: s.chunks[u>>s.chunkShift][off : off+n : off+n], g: g}
}

// arena is the handle on one store's reservation. It is an object of its
// own, referenced only by its Store and referencing nothing, because the
// reservation is released by the handle's finalizer: a Store's OnRCTouch
// sink may close over the Store's owner, and a finalizer set on a member
// of a cycle never runs.
//
// Every table access happens under a stripe lock, and the locks live in
// the Store, so the Store — and through it the handle — is reachable for
// as long as any view into the reservation is in use.
type arena struct {
	words []uint64
}

// liveArenas counts reservations made and not yet released.
var liveArenas atomic.Int64

// reserveTable reserves a table of the given size, or returns nil on a
// build (or a host) that keeps the table on the heap.
func reserveTable(bytes int) *arena {
	words, release := newArena(bytes)
	if words == nil {
		return nil
	}
	a := &arena{words: words}
	liveArenas.Add(1)
	runtime.SetFinalizer(a, func(*arena) {
		release()
		liveArenas.Add(-1)
	})
	return a
}
