package segment

import (
	"encoding/binary"

	"repro/internal/pool"
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
// once their parents hold their own references. Lookup-by-content is the
// only canonicalization (§3.1): nothing is remembered between builds, so
// what a build charges depends on its input and the memory's state
// alone, and one serialized schedule keeps it independent of GOMAXPROCS.
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

// CanonLeaves canonicalizes many raw-word leaf lines at once: ws is the
// flat concatenation of the leaves' words, arity per leaf (a short tail is
// zero-padded). Each returned edge owns one reference when it carries a
// PLID — the batch equivalent of one CanonLeaf call per leaf.
func CanonLeaves(m word.Mem, ws []uint64) []Edge {
	cb := AcquireCanonBatch(m)
	defer cb.Close()
	edges := make([]Edge, (len(ws)+cb.arity-1)/cb.arity)
	resolveLeaves(cb, ws, nil, edges)
	return edges
}

// CanonNodes canonicalizes many independent interior nodes at once:
// children is the flat concatenation of the nodes' child edges, arity per
// node (a short tail reads as zero subtrees). Ownership follows CanonNode:
// child edges are borrowed (release them after the call if you own them)
// and each returned edge owns one reference when it carries a PLID.
func CanonNodes(m word.Mem, children []Edge) []Edge {
	cb := AcquireCanonBatch(m)
	defer cb.Close()
	parents := make([]Edge, (len(children)+cb.arity-1)/cb.arity)
	resolveNodes(cb, children, parents)
	return parents
}

// buildLevels builds the segment holding ws bottom-up through cb, one
// Resolve per level. Children are released only after their parents
// resolved: fresh parent lines take their own references on them during
// the batch lookup, which requires the builder's references to still be
// live.
func buildLevels(cb *CanonBatch, ws []uint64, ts []word.Tag) Seg {
	if len(ws) == 0 {
		return Seg{Root: word.Zero, Height: 0}
	}
	arity := cb.arity
	height := HeightFor(arity, uint64(len(ws)))
	// The per-level edge buffers are wave scratch: every slot is written
	// before it is read, and the only value that outlives the loop is the
	// materialized root.
	var sc pool.Scratch
	defer sc.Release()
	edges := poolEdges.Get(&sc, (len(ws)+arity-1)/arity)
	resolveLeaves(cb, ws, ts, edges)
	for level := 1; level <= height; level++ {
		next := poolEdges.Get(&sc, (len(edges)+arity-1)/arity)
		resolveNodes(cb, edges, next)
		releaseAll(cb.m, edges)
		edges = next
	}
	return Seg{Root: materializeRoot(cb.m, edges[0]), Height: height}
}

// resolveLeaves canonicalizes one leaf level: out[l] covers words
// ws[l*arity : (l+1)*arity], missing tail words reading as zero raw data.
// Nil tags treat every word as raw.
func resolveLeaves(cb *CanonBatch, ws []uint64, ts []word.Tag, out []Edge) {
	var kids [word.MaxWords]Edge
	for l := range out {
		for i := range kids[:cb.arity] {
			kids[i] = ZeroEdge
			if j := l*cb.arity + i; j < len(ws) {
				kids[i].W = ws[j]
				if ts != nil {
					kids[i].T = ts[j]
				}
			}
		}
		cb.Leaf(kids[:cb.arity], &out[l])
	}
	cb.Resolve()
}

// resolveNodes canonicalizes one interior level: out[p] covers child
// edges children[p*arity : (p+1)*arity], missing tail children reading as
// zero subtrees. Child edges are borrowed.
func resolveNodes(cb *CanonBatch, children, out []Edge) {
	var kids [word.MaxWords]Edge
	for p := range out {
		lo := p * cb.arity
		if hi := lo + cb.arity; hi <= len(children) {
			cb.Node(children[lo:hi], &out[p])
			continue
		}
		n := copy(kids[:cb.arity], children[lo:])
		clear(kids[n:cb.arity])
		cb.Node(kids[:cb.arity], &out[p])
	}
	cb.Resolve()
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
