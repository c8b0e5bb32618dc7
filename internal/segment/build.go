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
// Every build is the one-string case of a build wave (buildWave).
// Lookup-by-content is the only canonicalization (§3.1): nothing is
// remembered between builds, so what a build charges depends on its input
// and the memory's state alone, and one serialized schedule keeps it
// independent of GOMAXPROCS.
func BuildWords(m word.Mem, ws []uint64, ts []word.Tag) Seg {
	strs := [1]waveString{{n: len(ws)}}
	var out [1]Seg
	buildWave(m, ws, ts, strs[:], out[:])
	return out[0]
}

// BuildBytes builds the canonical segment holding the byte string b,
// packed little-endian into raw words.
func BuildBytes(m word.Mem, b []byte) Seg {
	var out [1]Seg
	BuildBytesMany(m, [][]byte{b}, out[:])
	return out[0]
}

// BuildBytesMany builds out[i] as BuildBytes(m, bss[i]) would, in build
// waves of about waveLeaves leaves: a window of strings costs one lookup
// batch per level of its tallest string, not a few per string.
func BuildBytesMany(m word.Mem, bss [][]byte, out []Seg) {
	var sc pool.Scratch
	defer sc.Release()
	strs := poolWaveStrs.Get(&sc, len(bss))
	for lo, hi := 0, 0; lo < len(bss); lo = hi {
		words := 0
		for hi = lo; hi < len(bss) && words < waveLeaves*m.LineWords(); hi++ {
			strs[hi] = waveString{n: (len(bss[hi]) + 7) / 8}
			words += strs[hi].n
		}
		ws, at := poolU64.Get(&sc, words), 0
		for i := lo; i < hi; i++ {
			packWordsLE(ws[at:at+strs[i].n], bss[i])
			at += strs[i].n
		}
		buildWave(m, ws, nil, strs[lo:hi], out[lo:hi])
	}
}

// waveLeaves is the leaf count past which a build wave takes no further
// string. Every layer pools its batch scratch at the size of the largest
// batch it served, so the bound, not the largest window, sets what a
// server keeps.
const waveLeaves = 1024

// waveString is one string of a build wave: its word count, then its edge
// count and offset at the current level, its height and its top edge.
type waveString struct {
	n, at, height int
	top           Edge
}

// buildWave builds the segment of every string in strs, whose words are
// ws (and ts, nil for raw data) concatenated in order, into out, through
// one CanonBatch: one Resolve for all leaves, then one per level, equal
// contents deduplicated within it; a string drops out above its height.
// Children are released only after their parents resolved (fresh parent
// lines take their own references on them in the batch lookup), and the
// roots are materialized at the end, in string order.
func buildWave(m word.Mem, ws []uint64, ts []word.Tag, strs []waveString, out []Seg) {
	cb := AcquireCanonBatch(m)
	defer cb.Close()
	var sc pool.Scratch
	defer sc.Release()
	arity := cb.arity
	// A level of n edges has at most n/arity + 1 parents per string.
	edges := poolEdges.Get(&sc, len(ws)/arity+len(strs))
	w, n := 0, 0 // words submitted, edges in use
	for i := range strs {
		s := &strs[i]
		var st []word.Tag
		if ts != nil {
			st = ts[w : w+s.n]
		}
		nl := (s.n + arity - 1) / arity
		submitLeaves(cb, ws[w:w+s.n], st, edges[n:n+nl])
		w += s.n
		*s = waveString{n: nl, at: n, height: HeightFor(arity, uint64(s.n))}
		n += nl
	}
	cb.Resolve()
	for level := 0; n > 0; level++ {
		next := poolEdges.Get(&sc, n/arity+len(strs))
		at := 0
		for i := range strs {
			switch s := &strs[i]; {
			case s.height == level && s.n > 0:
				s.top, edges[s.at] = edges[s.at], ZeroEdge // the root's reference leaves the level
			case s.height > level:
				np := (s.n + arity - 1) / arity
				submitNodes(cb, edges[s.at:s.at+s.n], next[at:at+np])
				s.n, s.at = np, at
				at += np
			}
		}
		cb.Resolve()
		releaseAll(m, edges[:n])
		edges, n = next, at
	}
	for i, s := range strs {
		out[i] = Seg{Root: materializeRoot(m, s.top), Height: s.height}
	}
}

// CanonLeaves canonicalizes many raw-word leaf lines at once: ws is the
// flat concatenation of the leaves' words, arity per leaf (a short tail is
// zero-padded). Each returned edge owns one reference when it carries a
// PLID — the batch equivalent of one CanonLeaf call per leaf.
func CanonLeaves(m word.Mem, ws []uint64) []Edge {
	cb := AcquireCanonBatch(m)
	defer cb.Close()
	edges := make([]Edge, (len(ws)+cb.arity-1)/cb.arity)
	submitLeaves(cb, ws, nil, edges)
	cb.Resolve()
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
	submitNodes(cb, children, parents)
	cb.Resolve()
	return parents
}

// submitLeaves submits one string's leaves to cb: out[l] covers words
// ws[l*arity : (l+1)*arity], missing tail words reading as zero raw data.
// Nil tags treat every word as raw. The edges are final after cb.Resolve.
func submitLeaves(cb *CanonBatch, ws []uint64, ts []word.Tag, out []Edge) {
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
}

// submitNodes submits one string's interior nodes to cb: out[p] covers
// child edges children[p*arity : (p+1)*arity], missing tail children
// reading as zero subtrees. Child edges are borrowed. The edges are final
// after cb.Resolve.
func submitNodes(cb *CanonBatch, children, out []Edge) {
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
}

// packWordsLE packs a byte string little-endian into dst, its
// (len(b)+7)/8 words, zero-padding the final partial word.
func packWordsLE(dst []uint64, b []byte) {
	full := len(b) / 8
	for i := range full {
		dst[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	if full < len(dst) {
		var tail [8]byte
		copy(tail[:], b[full*8:])
		dst[full] = binary.LittleEndian.Uint64(tail[:])
	}
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
