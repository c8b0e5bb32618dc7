//go:build linux && !race

package store

import (
	"syscall"
	"unsafe"
)

// newArena reserves bytes of zeroed, lazily faulted memory outside the Go
// heap: anonymous and private, so the kernel supplies a zero page the
// first time each page is touched and an untouched page costs nothing;
// MAP_NORESERVE, so a sparse paper-scale table is not charged against
// overcommit; MADV_HUGEPAGE, so the records' host lines sit behind 2 MB
// TLB entries. Records are carved in first-touch order (arena.go), so
// the touched part of the reservation is a dense prefix and huge pages
// waste at most the unfilled tail of the last one. release unmaps it. A host that refuses the mapping gets (nil, nil),
// which is what every arena_heap.go build gets.
func newArena(bytes int) (words []uint64, release func()) {
	mem, err := syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, nil
	}
	// Advice only: without it the table is still correct, just behind
	// more TLB entries.
	_ = syscall.Madvise(mem, syscall.MADV_HUGEPAGE)
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(mem))), bytes/8),
		func() { _ = syscall.Munmap(mem) } // cannot fail on a mapping we made and unmap once
}
