package segment

import (
	"encoding/binary"

	"repro/internal/word"
)

// BuildWords builds the canonical segment holding the given tagged words.
// The segment's height is the minimum covering len(ws); trailing capacity
// reads as zero. The returned segment owns one reference on its root.
// Passing nil tags treats every word as raw data.
//
// Every build, one word or a million, routes through one pooled
// CanonBatch: one batched store lookup per level, within-level duplicate
// lines deduplicated by the batch (the duplicate retains its twin's line
// instead of looking it up again), and each level's children released
// once their parents hold their own references. The batch carries no
// memo: a one-shot build cannot amortize the memo's per-line table
// inserts. Bulk producers that build many segments should hold their own
// Builder so its memo persists across calls.
func BuildWords(m word.Mem, ws []uint64, ts []word.Tag) Seg {
	cb := AcquireCanonBatch(m)
	defer cb.Close()
	return buildLevels(cb, ws, ts)
}

// BuildBytes builds the canonical segment holding the byte string b,
// packed little-endian into raw words.
func BuildBytes(m word.Mem, b []byte) Seg {
	return BuildWords(m, packWordsLE(b), nil)
}

// packWordsLE packs a byte string little-endian into 64-bit words,
// zero-padding the final partial word. Full words decode with
// binary.LittleEndian; only the tail (< 8 bytes) takes the shift loop.
func packWordsLE(b []byte) []uint64 {
	n := (len(b) + 7) / 8
	ws := make([]uint64, n)
	full := len(b) / 8
	for i := 0; i < full; i++ {
		ws[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	if full < n {
		var v uint64
		for k := full * 8; k < len(b); k++ {
			v |= uint64(b[k]) << (8 * (k - full*8))
		}
		ws[full] = v
	}
	return ws
}

// NewSparse returns an empty segment of the given height, ready for sparse
// writes through a transaction or iterator register.
func NewSparse(height int) Seg { return Seg{Root: word.Zero, Height: height} }

// materializeRoot converts an arbitrary edge into a root PLID: the segment
// map can only store PLIDs, so a compacted or inlined top edge is expanded
// into a real line. Ownership of the input edge transfers to the result.
func materializeRoot(m word.Mem, e Edge) word.PLID {
	switch e.T {
	case word.TagRaw:
		if e.W == 0 {
			return word.Zero
		}
	case word.TagPLID:
		return word.PLID(e.W)
	case word.TagInline:
		// Expand the inlined leaf back into a real leaf line.
		c := word.NewContent(m.LineWords())
		word.UnpackInlineInto(e.W, m.LineWords(), c.W[:m.LineWords()])
		return m.LookupLine(c)
	case word.TagCompact:
		// Materialize the top node of the compacted chain: a line with a
		// single non-zero entry holding the rest of the chain.
		arity := m.LineWords()
		var pbuf [word.MaxCompactPath]int
		p, path := word.DecodeCompactInto(e.W, arity, m.PLIDBits(), pbuf[:])
		var inner Edge
		if len(path) == 1 {
			inner = PLIDEdge(p) // owns the ref e owned
		} else {
			w, ok := word.EncodeCompact(p, path[1:], arity, m.PLIDBits())
			if !ok {
				panic("segment: shrinking a compact path cannot fail")
			}
			inner = Edge{W: w, T: word.TagCompact}
		}
		c := word.NewContent(arity)
		c.W[path[0]], c.T[path[0]] = inner.W, inner.T
		root := m.LookupLine(c)
		inner.Release(m) // line owns its own child ref now
		return root
	}
	panic("segment: cannot materialize edge " + e.T.String())
}

// ReleaseSeg drops the reference a segment owns on its root.
func ReleaseSeg(m word.Mem, s Seg) {
	if s.Root != word.Zero {
		m.Release(s.Root)
	}
}

// RetainSeg acquires an extra reference on the segment root (e.g. when a
// snapshot is handed to another thread).
func RetainSeg(m word.Mem, s Seg) {
	if s.Root != word.Zero {
		m.Retain(s.Root)
	}
}
