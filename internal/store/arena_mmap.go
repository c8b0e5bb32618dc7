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
// overcommit; MADV_NOHUGEPAGE, so one touched bucket faults 4 KB in and
// not 2 MB on hosts whose transparent-hugepage policy is "always".
// release unmaps it. A host that refuses the mapping gets (nil, nil),
// which is what every arena_heap.go build gets.
func newArena(bytes int) (words []uint64, release func()) {
	mem, err := syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, nil
	}
	// Advice only: without it the table is still correct, just less sparse.
	_ = syscall.Madvise(mem, syscall.MADV_NOHUGEPAGE)
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(mem))), bytes/8),
		func() { _ = syscall.Munmap(mem) } // cannot fail on a mapping we made and unmap once
}
