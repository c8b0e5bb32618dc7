// Package segment implements HICAMP memory segments (paper §2.2): variable
// sized, logically contiguous regions represented as canonical DAGs of
// content-unique lines, with the path and data compaction of §3.2. The
// canonical representation — leaves filled left to right, zero subtrees
// elided, single-child interior nodes path-compacted, small-value leaves
// inlined, all applied deterministically — extends the content-uniqueness
// property from lines to whole segments: equal contents at equal logical
// heights always produce equal root PLIDs, so segments compare in O(1).
package segment

import (
	"fmt"

	"repro/internal/word"
)

// Seg names a segment: the root line of its DAG and its logical height.
// Height 0 means the root is a single leaf line; a segment of height h
// covers arity^(h+1) words. The zero-root segment of any height is the
// all-zero segment. The paper stores the height in the virtual segment map
// entry; package segmap does the same.
type Seg struct {
	Root   word.PLID
	Height int
}

// Equal reports whether two segments have identical content. Because the
// representation is canonical, this is a comparison of root PLIDs — the
// single-instruction segment compare of §2.2 — valid at equal heights.
func (s Seg) Equal(o Seg) bool { return s.Root == o.Root && s.Height == o.Height }

// Capacity returns the number of 64-bit words the segment can address.
func (s Seg) Capacity(arity int) uint64 { return capacity(arity, s.Height) }

func capacity(arity, height int) uint64 {
	c := uint64(arity)
	for i := 0; i < height; i++ {
		c *= uint64(arity)
	}
	return c
}

// HeightFor returns the minimal height whose capacity covers n words.
func HeightFor(arity int, n uint64) int {
	h := 0
	for capacity(arity, h) < n {
		h++
	}
	return h
}

// Edge is one parent-line entry describing a subtree: a PLID, a
// path-compacted PLID, an inlined leaf, or the zero subtree. An Edge is
// exactly one tagged word of an interior line.
type Edge struct {
	W uint64
	T word.Tag
}

// ZeroEdge is the canonical empty subtree.
var ZeroEdge = Edge{}

// IsZero reports whether the edge denotes an all-zero subtree.
func (e Edge) IsZero() bool {
	return e.W == 0 && e.T == word.TagRaw || e.T == word.TagPLID && e.W == 0
}

// PLIDEdge wraps a PLID; the zero PLID yields the canonical zero edge.
func PLIDEdge(p word.PLID) Edge {
	if p == word.Zero {
		return ZeroEdge
	}
	return Edge{W: uint64(p), T: word.TagPLID}
}

// Target returns the PLID an edge points at, if any (plain or compacted).
func (e Edge) Target(m word.Mem) (word.PLID, bool) {
	switch e.T {
	case word.TagPLID:
		return word.PLID(e.W), e.W != 0
	case word.TagCompact:
		return word.CompactPLID(e.W, m.PLIDBits()), true
	}
	return word.Zero, false
}

// Retain acquires a reference on the edge's target, if it has one.
func (e Edge) Retain(m word.Mem) {
	if p, ok := e.Target(m); ok {
		m.Retain(p)
	}
}

// Release drops the reference the edge owns on its target, if any.
func (e Edge) Release(m word.Mem) {
	if p, ok := e.Target(m); ok {
		m.Release(p)
	}
}

// CanonLeaf returns the canonical edge for a leaf of exactly arity tagged
// words: the zero edge for all-zero content, an inline edge when every
// word is raw and fits the packed field width (data compaction, Figure
// 4b), otherwise a freshly looked-up leaf line. The returned edge owns one
// reference when it carries a PLID.
func CanonLeaf(m word.Mem, ws []uint64, ts []word.Tag) Edge {
	arity := m.LineWords()
	if len(ws) != arity || len(ts) != arity {
		panic(fmt.Sprintf("segment: leaf of %d/%d words, arity %d", len(ws), len(ts), arity))
	}
	c := word.NewContent(arity)
	copy(c.W[:arity], ws)
	copy(c.T[:arity], ts)
	if e, ok := compactLeaf(&c); ok {
		return e
	}
	return PLIDEdge(m.LookupLine(c))
}

// CanonNode returns the canonical edge for an interior node whose children
// are the given arity edges: the zero edge when all children are zero, a
// path-compacted edge when exactly one child is non-zero and the encoding
// fits (path compaction, Figure 4a), otherwise a materialized interior
// line. The returned edge owns one reference when it carries a PLID;
// ownership of the child edges is untouched (release them after the call
// if you own them).
func CanonNode(m word.Mem, children []Edge) Edge {
	if len(children) != m.LineWords() {
		panic(fmt.Sprintf("segment: node of %d children, arity %d", len(children), m.LineWords()))
	}
	c := edgeContent(children)
	if e, ok := compactNode(m, &c); ok {
		return e
	}
	return PLIDEdge(m.LookupLine(c))
}

// edgeContent is the line content whose words are the given edges.
func edgeContent(es []Edge) word.Content {
	c := word.NewContent(len(es))
	for i, e := range es {
		c.W[i], c.T[i] = e.W, e.T
	}
	return c
}

// compactLeaf is the edge of a leaf holding c when that needs no line: the
// zero edge, or the inline encoding of small raw words.
func compactLeaf(c *word.Content) (Edge, bool) {
	if c.IsZero() {
		return ZeroEdge, true
	}
	for i := 0; i < int(c.N); i++ {
		if c.T[i] != word.TagRaw {
			return Edge{}, false
		}
	}
	if w, ok := word.PackInline(c.W[:c.N], int(c.N)); ok {
		return Edge{W: w, T: word.TagInline}, true
	}
	return Edge{}, false
}

// compactNode is the edge of an interior node holding c when that needs no
// line: the zero edge, or the path-compacted encoding of a lone PLID or
// compacted child, which retains the compacted target.
func compactNode(m word.Mem, c *word.Content) (Edge, bool) {
	arity, idx := int(c.N), -1
	for i := 0; i < arity; i++ {
		if !(Edge{W: c.W[i], T: c.T[i]}).IsZero() {
			if idx >= 0 {
				return Edge{}, false // two children: a real line
			}
			idx = i
		}
	}
	if idx < 0 {
		return ZeroEdge, true
	}
	// The path is built on the stack: a compacted child's decoded path
	// lands in path[1:], behind the new step.
	path := [word.MaxCompactPath + 1]int{idx}
	p, tail := word.PLID(c.W[idx]), path[1:1]
	switch c.T[idx] {
	case word.TagCompact:
		p, tail = word.DecodeCompactInto(c.W[idx], arity, m.PLIDBits(), path[1:])
	case word.TagPLID:
	default:
		return Edge{}, false
	}
	w, ok := word.EncodeCompact(p, path[:1+len(tail)], arity, m.PLIDBits())
	if !ok {
		return Edge{}, false
	}
	m.Retain(p)
	return Edge{W: w, T: word.TagCompact}, true
}

// releaseAll drops ownership of every edge in es.
func releaseAll(m word.Mem, es []Edge) {
	for _, e := range es {
		e.Release(m)
	}
}

// Children returns the arity child edges of the subtree edge at the given
// level: for level >= 1 the entries of the (possibly elided) interior
// node, for level 0 the leaf's tagged words as word-level edges. The
// returned edges are borrowed — they own no references.
func Children(m word.Mem, e Edge, level int) []Edge {
	return ChildrenInto(m, e, level, nil)
}

// ChildrenInto is Children writing into buf when it has the arity's
// capacity, allocating only otherwise — for per-node walkers (the
// iterator register) that expand millions of nodes through one scratch
// buffer.
func ChildrenInto(m word.Mem, e Edge, level int, buf []Edge) []Edge {
	arity := m.LineWords()
	var out []Edge
	if cap(buf) >= arity {
		out = buf[:arity]
		for i := range out {
			out[i] = Edge{}
		}
	} else {
		out = make([]Edge, arity)
	}
	switch {
	case e.IsZero():
	case e.T == word.TagInline:
		if level != 0 {
			panic("segment: inline edge above leaf level")
		}
		for i := 0; i < arity; i++ {
			out[i] = Edge{W: word.InlineAt(e.W, i, arity), T: word.TagRaw}
		}
	case e.T == word.TagCompact:
		if level == 0 {
			panic("segment: compact edge at leaf level")
		}
		head, w, isPLID := word.CompactDrop(e.W, arity, m.PLIDBits())
		if isPLID {
			out[head] = PLIDEdge(word.PLID(w))
		} else {
			out[head] = Edge{W: w, T: word.TagCompact}
		}
	case e.T == word.TagPLID:
		c := m.ReadLine(word.PLID(e.W))
		for i := 0; i < arity; i++ {
			out[i] = Edge{W: c.W[i], T: c.T[i]}
		}
	default:
		panic(fmt.Sprintf("segment: cannot expand edge %v", e.T))
	}
	return out
}

// SegFromEdge materializes an edge (whose reference the caller owns) into
// a rooted segment of the given height; ownership transfers to the result.
func SegFromEdge(m word.Mem, e Edge, height int) Seg {
	return Seg{Root: materializeRoot(m, e), Height: height}
}
