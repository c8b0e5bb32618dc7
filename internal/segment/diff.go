package segment

import (
	"fmt"
	"slices"

	"repro/internal/word"
)

// Snapshot diffing. Content-uniqueness makes identical sub-DAGs
// detectable by a single word comparison (§2.2/§3.4): two edges with
// equal tagged words at equal levels are the same subtree, so a
// co-walk of two segments only ever descends along paths where they
// differ. Between snapshots that differ in a handful of keys the
// frontier stays proportional to the changed paths — O(changes · height)
// line reads — however large the segments are. The write side (package
// merge) has exploited this since PR 1; DiffWords is its read-path
// counterpart.

// DiffStats describes one diff co-walk.
type DiffStats struct {
	SubDAGSkips  uint64 // identical sub-DAGs pruned by PLID equality
	SkippedWords uint64 // logical words those prunes covered
	Waves        uint64 // batched fetch rounds issued
	LineReads    uint64 // lines fetched across both segments
	DiffWords    uint64 // differing indices reported to fn
}

// DiffWords co-walks segments a and b and invokes fn for every logical
// word index whose tagged word differs between them, in ascending index
// order, with the values and tags from both sides. Identical sub-DAGs —
// detected by edge equality, never by fetching — are skipped whole and
// counted in SubDAGSkips/SkippedWords. The segments may have different
// heights: the shorter one is compared as if zero-extended to the taller
// capacity. fn returning false stops the walk. Both segments must live in
// the same memory system m; lines shared across the two snapshots are
// fetched once per wave.
func DiffWords(m word.Mem, a, b Seg, fn func(idx uint64, av, bv uint64, at, bt word.Tag) bool) DiffStats {
	var st DiffStats
	arity := m.LineWords()
	view := a.Height
	if b.Height > view {
		view = b.Height
	}
	root := diffNode{
		ea: PLIDEdge(a.Root), la: a.Height,
		eb: PLIDEdge(b.Root), lb: b.Height,
		view: view,
	}
	if root.ea == root.eb && root.la == root.lb {
		if !root.ea.IsZero() {
			st.SubDAGSkips++
			st.SkippedWords += capacity(arity, view)
		}
		return st
	}

	frontier := []diffNode{root}
	var plids []word.PLID
	at := make(map[word.PLID]int)
	var contents []word.Content
	fetched := func(e Edge) word.Content { return contents[at[word.PLID(e.W)]] }

	for len(frontier) > 0 {
		// The wave's fetch set: every PLID edge sitting exactly at the
		// view level (interior nodes to expand, or leaves to compare),
		// deduplicated across nodes and across the two sides.
		plids = plids[:0]
		clear(at)
		add := func(e Edge, l, v int) {
			if l == v && e.T == word.TagPLID && e.W != 0 {
				p := word.PLID(e.W)
				if _, ok := at[p]; !ok {
					at[p] = len(plids)
					plids = append(plids, p)
				}
			}
		}
		for _, nd := range frontier {
			add(nd.ea, nd.la, nd.view)
			add(nd.eb, nd.lb, nd.view)
		}
		if len(plids) > 0 {
			contents = slices.Grow(contents[:0], len(plids))[:len(plids)]
			m.ReadLineBatchInto(plids, contents)
			st.Waves++
			st.LineReads += uint64(len(plids))
		}

		var next []diffNode
		for _, nd := range frontier {
			if nd.view == 0 {
				ca := leafWords(arity, nd.ea, fetched)
				cb := leafWords(arity, nd.eb, fetched)
				for i := 0; i < arity; i++ {
					if ca.W[i] == cb.W[i] && ca.T[i] == cb.T[i] {
						continue
					}
					st.DiffWords++
					if !fn(nd.base+uint64(i), ca.W[i], cb.W[i], ca.T[i], cb.T[i]) {
						return st
					}
				}
				continue
			}
			var ka, kb [word.MaxWords]Edge
			var lva, lvb [word.MaxWords]int
			sideChildren(m, arity, nd.ea, nd.la, nd.view, &ka, &lva, fetched)
			sideChildren(m, arity, nd.eb, nd.lb, nd.view, &kb, &lvb, fetched)
			sub := capacity(arity, nd.view-1)
			for i := 0; i < arity; i++ {
				if ka[i] == kb[i] && lva[i] == lvb[i] {
					if !ka[i].IsZero() {
						st.SubDAGSkips++
						st.SkippedWords += sub
					}
					continue
				}
				next = append(next, diffNode{
					ea: ka[i], la: lva[i],
					eb: kb[i], lb: lvb[i],
					view: nd.view - 1,
					base: nd.base + uint64(i)*sub,
				})
			}
		}
		frontier = next
	}
	return st
}

// diffNode is one co-walk frontier entry: each side's edge and its own
// level, the common view level the comparison happens at (>= both side
// levels; a side below the view is implicitly zero-extended), and the
// first logical word index the node covers.
type diffNode struct {
	ea, eb Edge
	la, lb int
	view   int
	base   uint64
}

// sideChildren writes one side's children at view-1 into kids/lvls. A
// side sitting below the view occupies child 0 (its words are the low
// words of the wider capacity); its siblings are zero. Zero children are
// normalized to ZeroEdge at level 0 so the pruning equality check never
// misses an all-zero pair.
func sideChildren(m word.Mem, arity int, e Edge, l, view int, kids *[word.MaxWords]Edge, lvls *[word.MaxWords]int, fetched func(Edge) word.Content) {
	for i := 0; i < arity; i++ {
		kids[i], lvls[i] = ZeroEdge, 0
	}
	switch {
	case e.IsZero():
	case l < view:
		kids[0], lvls[0] = e, l
	case e.T == word.TagCompact:
		// Peel one compacted step per view level to stay in lockstep with
		// the other side; no fetch.
		head, w, isPLID := word.CompactDrop(e.W, arity, m.PLIDBits())
		if isPLID {
			kids[head] = PLIDEdge(word.PLID(w))
		} else {
			kids[head] = Edge{W: w, T: word.TagCompact}
		}
		lvls[head] = l - 1
	case e.T == word.TagPLID:
		c := fetched(e)
		for i := 0; i < arity; i++ {
			k := Edge{W: c.W[i], T: c.T[i]}
			if k.IsZero() {
				continue
			}
			kids[i], lvls[i] = k, l-1
		}
	default:
		panic(fmt.Sprintf("segment: unexpected edge tag %v in diff", e.T))
	}
}

// leafWords materializes one side's leaf content at view level 0.
func leafWords(arity int, e Edge, fetched func(Edge) word.Content) word.Content {
	switch {
	case e.IsZero():
		return word.NewContent(arity)
	case e.T == word.TagInline:
		c := word.NewContent(arity)
		copy(c.W[:arity], word.UnpackInline(e.W, arity))
		return c
	case e.T == word.TagPLID:
		return fetched(e)
	default:
		panic(fmt.Sprintf("segment: unexpected leaf edge tag %v in diff", e.T))
	}
}
