package chunker

import (
	"repro/internal/pool"
	"repro/internal/word"
)

// Package-level scratch pools for the ingest path.
// Everything borrowed here is released before the call returns (via a
// per-call pool.Scratch); results handed to callers are plain make and
// never alias pooled storage — the same ownership discipline as the
// segment wave engines (see internal/pool and DESIGN.md "Scratch
// pooling").
var (
	poolU64  = pool.NewSlice[uint64]("chunker.u64")
	poolTags = pool.NewSlice[word.Tag]("chunker.tag")
)
