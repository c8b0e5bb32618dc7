package segment

import (
	"repro/internal/pool"
	"repro/internal/word"
)

// Package-level scratch pools for the wave engines. Everything a wave
// borrows from these is released before the engine returns (via a
// per-call pool.Scratch, or an explicit Put in the engine's teardown
// walk); results handed to callers are always built with plain make and
// never alias pooled storage. See internal/pool for the ownership rules
// and DESIGN.md "Scratch pooling".
var (
	poolU64       = pool.NewSlice[uint64]("segment.u64")
	poolTags      = pool.NewSlice[word.Tag]("segment.tag")
	poolBytes     = pool.NewSlice[byte]("segment.byte")
	poolEdges     = pool.NewSlice[Edge]("segment.edge")
	poolBools     = pool.NewSlice[bool]("segment.bool")
	poolInts      = pool.NewSlice[int]("segment.int")
	poolReqs      = pool.NewSlice[bulkReq]("segment.bulkreq")
	poolBulkNodes = pool.NewSlice[bulkNode]("segment.bulknode")
	poolPLIDs     = pool.NewSlice[word.PLID]("segment.plid")
	poolContents  = pool.NewSlice[word.Content]("segment.content")
	poolUpdates   = pool.NewSlice[Update]("segment.update")
	poolWLevels   = pool.NewSlice[[]*wnode]("segment.wlevels", pool.WithClearOnPut())
	poolWNodes    = pool.NewSlice[*wnode]("segment.wnodes", pool.WithClearOnPut())
	poolPlidAt    = pool.NewMap[word.PLID, int]("segment.dedup.plid")
	poolIdxAt     = pool.NewMap[uint64, int]("segment.dedup.idx")
)
