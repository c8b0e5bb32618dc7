package segment

import (
	"cmp"
	"slices"

	"repro/internal/pool"
	"repro/internal/word"
)

// Wave-ordered bulk writes: the one write engine (§3.3's transient lines
// converted to permanent ones at commit). WriteBatch applies a whole
// update set against one root in two level-order sweeps: a top-down
// descent that expands only the touched sub-DAG (every distinct line
// fetched once per level through the batch read path) and a bottom-up
// canonicalization that resolves each level's fresh lines in a single
// batch lookup. Untouched sub-DAGs pass through by PLID — zero reads,
// zero reference-count traffic — which is the write-side half of the
// paper's claim that segment updates cost O(changed paths), not O(size)
// (§3.3–3.4). The descent reads only what the rebuild needs: a subtree
// whose updates overwrite every word beneath it is rebuilt from them
// alone, its old line never fetched, and a present leaf whose updates
// all carry Keep passes through like an untouched one.
//
// The result is bit-identical to committing the same writes one
// root-to-leaf path at a time (the serial Txn reference in the tests,
// with Keep updates over present all-Keep leaves left out):
// same canonical rules (zero elision, inlining, path compaction), same
// growth re-rooting, same reference-count ownership — so the root PLID,
// and with an ample LLC the simulated-DRAM accounting, match the
// path-by-path commit exactly when no two updates share line content
// and none covers a whole line (and come out cheaper when they do).

// Update is one word write for WriteBatch: set the tagged word at Idx.
// Later updates to the same index win, like sequential WriteWord calls.
//
// Keep marks a keep-if-present write: when the base holds a non-zero
// leaf line at the update's leaf and every update that lands in that
// leaf (after the last-wins collapse) carries Keep, the leaf passes
// through by PLID and none of those updates is written. Anywhere else a
// Keep update is written like any other. A caller sets it only on words
// a present leaf is known to hold already — hds writes a slot's key half
// this way — so an overwrite costs no read, lookup or reference-count
// event on the leaf it leaves standing.
type Update struct {
	Idx  uint64
	W    uint64
	T    word.Tag
	Keep bool
}

// WriteStats describes one WriteBatch wave commit.
type WriteStats struct {
	Updates          uint64 // updates submitted (before last-wins collapse)
	WaveLevels       uint64 // DAG levels canonicalized, one batch pass each
	SiblingCoalesced uint64 // updates beyond the first landing in an already-touched leaf (exact-index duplicates included)
	PathsRebuilt     uint64 // distinct leaf lines (root-to-leaf paths) rebuilt
	PassThrough      uint64 // untouched non-zero child edges passed through by PLID
	Kept             uint64 // Keep updates dropped over a present leaf; PathsRebuilt + SiblingCoalesced + Kept == Updates
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
	s.Kept += o.Kept
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
// ownership of s. The segment grows to fit out-of-capacity indices by
// re-rooting through zero-padded parents (§4.1). An empty update set
// retains and returns s unchanged.
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
	at := pool.GetIndex(&sc)
	uniq := poolUpdates.GetCap(&sc, len(ups))
	for _, u := range ups {
		if j, ok := at.Number(u.Idx); ok {
			uniq[j] = u
		} else {
			uniq = append(uniq, u)
		}
	}
	slices.SortFunc(uniq, func(a, b Update) int { return cmp.Compare(a.Idx, b.Idx) })
	// Exact-index duplicates coalesced by the collapse above; the leaf
	// overlay adds the sibling-sharing remainder, so the invariant
	// PathsRebuilt + SiblingCoalesced == Updates always holds.
	st.SiblingCoalesced = uint64(len(ups) - len(uniq))

	// Grow the logical height until every index fits.
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
		// carries the zero-extended original segment. The old root joins
		// the wave as an ordinary node even when no update lands under
		// it: as a child edge it must be re-canonicalized (a single-child
		// root compacts into its parent's edge, an inlinable leaf root
		// inlines), or the grown DAG would not be canonical.
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
		if s.Root != word.Zero {
			old := getWnode(s.Height, arity)
			old.e = PLIDEdge(s.Root)
			cur.slots = append(cur.slots, 0)
			cur.kids = append(cur.kids, old)
			add(old)
		}
	}

	// Top-down descent: expand each level's touched nodes (one deduped
	// batch read per level), then partition their updates over children.
	plids := poolPLIDs.GetCap(&sc, maxNodes)
	contentsBuf := poolContents.Get(&sc, maxNodes)
	readAt := pool.GetIndex(&sc)
	for lvl := height; lvl >= 0; lvl-- {
		nodes := levels[lvl]
		if len(nodes) == 0 {
			continue
		}
		// Collect the level's fetch set: each distinct line once.
		plids = plids[:0]
		readAt.Reset()
		for _, n := range nodes {
			if n.rewritten(arity) {
				continue // rebuilt from its updates alone: nothing to fetch
			}
			if !n.pre && n.e.T == word.TagPLID && n.e.W != 0 {
				if _, seen := readAt.Number(n.e.W); !seen {
					plids = append(plids, word.PLID(n.e.W))
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
			if !n.pre && !n.rewritten(arity) {
				switch {
				case n.e.IsZero():
				case n.e.T == word.TagPLID:
					j, _ := readAt.Number(n.e.W)
					c := &contents[j]
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
				if !n.e.IsZero() && allKeep(n.ups) {
					// A present leaf under Keep updates only stays as it
					// is. The partition below drops such leaves before
					// they are fetched; only a leaf root or a grown-over
					// old root reaches here.
					st.Kept += uint64(len(n.ups))
					continue
				}
				// Leaf overlay: the updates are the new tagged words.
				for _, u := range n.ups {
					n.edges[int(u.Idx)] = Edge{W: u.W, T: u.T}
				}
				if len(n.ups) > 0 {
					st.PathsRebuilt++
					st.SiblingCoalesced += uint64(len(n.ups)) - 1
				}
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
				lo = hi
				for i := range childUps {
					childUps[i].Idx -= uint64(slot) * sub
				}
				if lvl == 1 && !n.edges[slot].IsZero() && allKeep(childUps) && n.kidAt(slot) == nil {
					// A present leaf whose updates all carry Keep passes
					// through by PLID: no read, no lookup, no RC event.
					st.Kept += uint64(len(childUps))
					continue
				}
				if kid := n.kidAt(slot); kid != nil {
					kid.ups = childUps // pre-linked growth spine or old root
				} else {
					kid := getWnode(lvl-1, arity)
					kid.e, kid.ups = n.edges[slot], childUps
					n.slots = append(n.slots, slot)
					n.kids = append(n.kids, kid)
					add(kid)
				}
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

// rewritten reports whether the node's updates overwrite every word
// beneath it. Such a node is rebuilt from its updates alone: its old
// line is never fetched or expanded. A leaf whose updates all carry
// Keep still depends on the base (it passes through when present), so
// a node with one beneath it is not rewritten.
func (n *wnode) rewritten(arity int) bool {
	if n.pre || uint64(len(n.ups)) != capacity(arity, n.level) {
		return false
	}
	// Every word has exactly one update, in index order, so each run of
	// arity updates is one leaf.
	for lo := 0; lo < len(n.ups); lo += arity {
		if allKeep(n.ups[lo : lo+arity]) {
			return false
		}
	}
	return true
}

// allKeep reports whether every update carries Keep.
func allKeep(ups []Update) bool {
	for _, u := range ups {
		if !u.Keep {
			return false
		}
	}
	return true
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
