package store

import (
	"runtime"
	"sync/atomic"
)

// Where the bucket table lives. The table is a fixed number of fixed-size,
// pointer-free records that are never freed, so it needs no allocator —
// only zeroed address space and a bump pointer. On linux (race detector
// off) New reserves the whole table once through newArena (arena_mmap.go)
// and a group's first touch merely points the directory entry at the next
// unused slice of the reservation: the kernel faults zero pages in as they
// are written, and the garbage collector neither scans the table nor
// budgets GOGC headroom for it (a heap-resident table costs its size again
// in collector headroom). Slices go out in first-touch order, not at an
// offset fixed by the group's index: groups touched together share host
// pages, as they did when the heap packed them, whereas fixed offsets cost
// a sparsely used table one page fault — and 4 KB resident — per 1.3 KB
// group. Every other build gets no reservation (arena_heap.go) and makes
// each group on the heap at first touch. The choice is the build's, never
// a caller's; the directory, the nil-group rule and the record layout are
// the same on both.

// arena is the handle on one store's reservation. It is an object of its
// own, referenced only by its Store and referencing nothing, because the
// reservation is released by the handle's finalizer: a Store and its
// core.Machine point at each other through OnRCTouch, and a finalizer set
// on a member of a cycle never runs.
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
