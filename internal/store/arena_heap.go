//go:build !linux || race

package store

// newArena reserves nothing: record chunks are made on the Go heap one by
// one as the carve cursor first enters them. Under the race detector that
// is the point — it cannot see a foreign mapping, and the table words are
// what the store's concurrency tests exist to watch.
func newArena(int) (words []uint64, release func()) { return nil, nil }
