package segment

import (
	"cmp"
	"slices"

	"repro/internal/pool"
	"repro/internal/word"
)

// Wave-ordered bulk writes. A Txn commits one root-to-leaf path walk per
// transient node, depth-first; k independent Set-style updates therefore
// cost k path rebuilds even when they land in sibling slots of the same
// lines. WriteBatch applies a whole update set against one root in two
// level-order sweeps instead: a top-down descent that expands only the
// touched sub-DAG (every distinct line fetched once per level through the
// batch read path) and a bottom-up canonicalization that resolves each
// level's fresh lines in a single batch lookup. Untouched sub-DAGs pass
// through by PLID — zero reads, zero reference-count traffic — which is
// the write-side half of the paper's claim that segment updates cost
// O(changed paths), not O(size) (§3.3–3.4).
//
// The result is bit-identical to buffering the same writes in a Txn and
// committing: same canonical rules (zero elision, inlining, path
// compaction), same growth re-rooting, same reference-count ownership —
// so the root PLID, and with an ample LLC the simulated-DRAM accounting,
// match the serial path-by-path commit exactly when no two updates share
// line content (and come out strictly cheaper when they do).

// Update is one word write for WriteBatch: set the tagged word at Idx.
// Later updates to the same index win, like sequential WriteWord calls.
type Update struct {
	Idx uint64
	W   uint64
	T   word.Tag
}

// WriteStats describes one WriteBatch wave commit.
type WriteStats struct {
	Updates          uint64 // updates submitted (before last-wins collapse)
	WaveLevels       uint64 // DAG levels canonicalized, one batch pass each
	SiblingCoalesced uint64 // updates beyond the first landing in an already-touched leaf (exact-index duplicates included)
	PathsRebuilt     uint64 // distinct leaf lines (root-to-leaf paths) rebuilt
	PassThrough      uint64 // untouched non-zero child edges passed through by PLID
	LineReads        uint64 // distinct lines fetched during the descent
	Lookups          uint64 // lookup-by-content operations issued at canonicalization
}

// Add accumulates o into s.
func (s *WriteStats) Add(o WriteStats) {
	s.Updates += o.Updates
	s.WaveLevels += o.WaveLevels
	s.SiblingCoalesced += o.SiblingCoalesced
	s.PathsRebuilt += o.PathsRebuilt
	s.PassThrough += o.PassThrough
	s.LineReads += o.LineReads
	s.Lookups += o.Lookups
}

// wnode is one touched node of the write wave: the original subtree edge
// it replaces, its expanded child edges (borrowed from the immutable DAG,
// overlaid by owned fresh edges as lower levels canonicalize), and the
// updates that land inside it (indices relative to the subtree base).
// Growth spine nodes are synthetic — they replace no edge and arrive with
// their child edges prefilled.
type wnode struct {
	level int
	e     Edge // original edge; meaningful only when !pre
	pre   bool // edges prefilled (growth spine); skip expansion
	edges []Edge
	owned []bool // edges[i] is a fresh canonicalized child we must release
	ups   []Update
	slots []int // child slots rebuilt below, parallel to kids
	kids  []*wnode
	out   Edge // canonical replacement edge (owns its PLID reference)
}

// wnodePool recycles wave nodes across WriteBatch calls, keeping the
// edges/owned/slots/kids capacities a node accumulated. The reset drops
// the *wnode links and the borrowed ups subslice so a parked node
// retains nothing from the wave it served.
var wnodePool = pool.NewItems[wnode]("segment.wnode", func(n *wnode) {
	clear(n.kids)
	*n = wnode{
		edges: n.edges[:0],
		owned: n.owned[:0],
		slots: n.slots[:0],
		kids:  n.kids[:0],
	}
})

// getWnode borrows a wave node with its child-edge arrays sized and
// zeroed for arity children.
func getWnode(level, arity int) *wnode {
	n := wnodePool.Get()
	n.level = level
	if cap(n.edges) < arity {
		n.edges = make([]Edge, arity)
		n.owned = make([]bool, arity)
	} else {
		n.edges = n.edges[:arity]
		n.owned = n.owned[:arity]
		clear(n.edges)
		clear(n.owned)
	}
	return n
}

// WriteBatch applies ups to s as one wave-ordered bulk commit and returns
// the new segment; the caller owns one reference on its root and keeps
// ownership of s (exactly the Txn.Commit contract). The segment grows to
// fit out-of-capacity indices the way Txn.grow re-roots. An empty update
// set retains and returns s unchanged.
func WriteBatch(m word.Mem, s Seg, ups []Update) (Seg, WriteStats) {
	var st WriteStats
	st.Updates = uint64(len(ups))
	if len(ups) == 0 {
		RetainSeg(m, s)
		return s, st
	}
	arity := m.LineWords()
	var sc pool.Scratch
	defer sc.Release()

	// Last-wins collapse to one update per index, then index order.
	at := poolIdxAt.Get(&sc)
	uniq := poolUpdates.GetCap(&sc, len(ups))
	for _, u := range ups {
		if j, ok := at[u.Idx]; ok {
			uniq[j] = u
		} else {
			at[u.Idx] = len(uniq)
			uniq = append(uniq, u)
		}
	}
	slices.SortFunc(uniq, func(a, b Update) int { return cmp.Compare(a.Idx, b.Idx) })
	// Exact-index duplicates coalesced by the collapse above; the leaf
	// overlay adds the sibling-sharing remainder, so the invariant
	// PathsRebuilt + SiblingCoalesced == Updates always holds.
	st.SiblingCoalesced = uint64(len(ups) - len(uniq))

	// Grow the logical height until every index fits (Txn.grow).
	height := s.Height
	for uniq[len(uniq)-1].Idx >= capacity(arity, height) {
		height++
	}

	// A level can hold at most one node per distinct updated index, plus
	// one synthetic growth-spine node — so every level's node buffer (and
	// the per-level fetch buffers below) is sized once, up front.
	maxNodes := len(uniq) + 1
	levels := poolWLevels.Get(&sc, height+1)
	for i := range levels {
		levels[i] = poolWNodes.GetCap(&sc, maxNodes)
	}
	add := func(n *wnode) { levels[n.level] = append(levels[n.level], n) }

	var root *wnode
	if height == s.Height {
		root = getWnode(height, arity)
		root.e, root.ups = PLIDEdge(s.Root), uniq
		add(root)
	} else {
		// Growth re-rooting: a spine of synthetic nodes whose child 0
		// carries the zero-extended original segment, mirroring the
		// transient parents Txn.grow stacks above the old root.
		root = getWnode(height, arity)
		root.pre, root.ups = true, uniq
		add(root)
		cur := root
		for lvl := height - 1; lvl > s.Height; lvl-- {
			kid := getWnode(lvl, arity)
			kid.pre = true
			cur.slots = append(cur.slots, 0)
			cur.kids = append(cur.kids, kid)
			add(kid)
			cur = kid
		}
		cur.edges[0] = PLIDEdge(s.Root)
	}

	// Top-down descent: expand each level's touched nodes (one deduped
	// batch read per level), then partition their updates over children.
	plids := poolPLIDs.GetCap(&sc, maxNodes)
	contentsBuf := poolContents.Get(&sc, maxNodes)
	readAt := poolPlidAt.Get(&sc)
	for lvl := height; lvl >= 0; lvl-- {
		nodes := levels[lvl]
		if len(nodes) == 0 {
			continue
		}
		// Collect the level's fetch set: each distinct line once.
		plids = plids[:0]
		clear(readAt)
		for _, n := range nodes {
			if !n.pre && n.e.T == word.TagPLID && n.e.W != 0 {
				p := word.PLID(n.e.W)
				if _, ok := readAt[p]; !ok {
					readAt[p] = len(plids)
					plids = append(plids, p)
				}
			}
		}
		var contents []word.Content
		if len(plids) > 0 {
			contents = contentsBuf[:len(plids)]
			m.ReadLineBatchInto(plids, contents)
			st.LineReads += uint64(len(plids))
		}
		for _, n := range nodes {
			if !n.pre {
				switch {
				case n.e.IsZero():
				case n.e.T == word.TagPLID:
					c := contents[readAt[word.PLID(n.e.W)]]
					for i := 0; i < arity; i++ {
						n.edges[i] = Edge{W: c.W[i], T: c.T[i]}
					}
				default:
					// Inline and compact edges expand without memory
					// accesses, exactly as in the serial walk.
					n.edges = ChildrenInto(m, n.e, n.level, n.edges)
				}
			}
			if lvl == 0 {
				// Leaf overlay: the updates are the new tagged words.
				for _, u := range n.ups {
					n.edges[int(u.Idx)] = Edge{W: u.W, T: u.T}
				}
				st.PathsRebuilt++
				st.SiblingCoalesced += uint64(len(n.ups)) - 1
				continue
			}
			// Partition the node's updates over its children; contiguous
			// runs share a child because updates are in index order.
			sub := capacity(arity, lvl-1)
			for lo := 0; lo < len(n.ups); {
				slot := int(n.ups[lo].Idx / sub)
				hi := lo
				for hi < len(n.ups) && int(n.ups[hi].Idx/sub) == slot {
					hi++
				}
				childUps := n.ups[lo:hi]
				for i := range childUps {
					childUps[i].Idx -= uint64(slot) * sub
				}
				if kid := n.kidAt(slot); kid != nil {
					kid.ups = childUps // pre-linked growth spine child
				} else {
					kid := getWnode(lvl-1, arity)
					kid.e, kid.ups = n.edges[slot], childUps
					n.slots = append(n.slots, slot)
					n.kids = append(n.kids, kid)
					add(kid)
				}
				lo = hi
			}
			for i := 0; i < arity; i++ {
				if n.kidAt(i) == nil && !n.edges[i].IsZero() {
					st.PassThrough++
				}
			}
		}
	}

	// Bottom-up canonicalization: one batched lookup pass per level.
	// Fresh child references release only after their parent level
	// resolves — the parent lines take their own references during the
	// lookup, which needs the children still live (Builder rule).
	cb := AcquireCanonBatch(m)
	for lvl := 0; lvl <= height; lvl++ {
		nodes := levels[lvl]
		if len(nodes) == 0 {
			continue
		}
		st.WaveLevels++
		for _, n := range nodes {
			for i, slot := range n.slots {
				n.edges[slot] = n.kids[i].out
				n.owned[slot] = true
			}
			if lvl == 0 {
				cb.Leaf(n.edges, &n.out)
			} else {
				cb.Node(n.edges, &n.out)
			}
		}
		st.Lookups += cb.Resolve()
		for _, n := range nodes {
			for i := range n.edges {
				if n.owned[i] {
					n.edges[i].Release(m)
					n.owned[i] = false
				}
			}
		}
	}
	cb.Close()
	result := Seg{Root: materializeRoot(m, root.out), Height: height}
	// Park the wave: every node returns to the pool before the level
	// buffers go back to theirs.
	for _, nodes := range levels {
		for _, n := range nodes {
			wnodePool.Put(n)
		}
	}
	return result, st
}

// kidAt returns the rebuilt child at slot, if any.
func (n *wnode) kidAt(slot int) *wnode {
	for i, s := range n.slots {
		if s == slot {
			return n.kids[i]
		}
	}
	return nil
}
