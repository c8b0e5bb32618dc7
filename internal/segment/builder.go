package segment

import "repro/internal/word"

// Builder is a shim kept only for the bench module, which calls
// NewBuilder(m, 1), BuildBytes, Close and Stats; the benchmark-only change
// that moves those callers to the package-level BuildBytes deletes it.
// Every build routes through BuildWords, so the shim remembers nothing.
type Builder struct{ m word.Mem }

// BuilderStats stays zero: no build consults a content memo.
type BuilderStats struct{ MemoLookups, MemoHits uint64 }

// NewBuilder ignores workers; builds are serial.
func NewBuilder(m word.Mem, workers int) *Builder { return &Builder{m} }

// BuildBytes is the package-level BuildBytes over the Builder's memory.
func (b *Builder) BuildBytes(bs []byte) Seg { return BuildBytes(b.m, bs) }

// Close releases nothing: the Builder holds no state.
func (b *Builder) Close() {}

// Stats returns zero counters.
func (b *Builder) Stats() BuilderStats { return BuilderStats{} }
