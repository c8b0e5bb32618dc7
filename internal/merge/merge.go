// Package merge implements HICAMP merge-update (paper §3.4): when a CAS
// on a merge-update segment fails because another thread committed first,
// the system three-way merges the thread's version with the new current
// version instead of aborting back to the application.
//
// The merge is a wave-structured rebase engine. It co-walks the original,
// modified and current DAGs in level-order waves: each wave's distinct
// lines — across all three versions — are fetched through one batched
// read (word.Mem.ReadLineBatchInto), and the merged levels canonicalize
// bottom-up with one batched lookup per level (segment.CanonBatch), the
// same wave discipline as segment.WriteBatch. The content-uniqueness of
// segments makes the identical-sub-DAG check a PLID comparison, so
// unchanged regions are skipped per wave without reading them — the
// property that gives merge-update its O(changed paths) cost. At the word
// level:
//
//   - a raw data word merges by delta: cur + (mod − orig), which for the
//     common cases degenerates to "take the changed side" and for counter
//     segments produces the sum of concurrent increments. The rule is
//     sound for set semantics and only for them: under content-unique
//     versions two IDENTICAL concurrent changes build the same modified
//     version, cur == mod takes mod, and the second change is absorbed as
//     already merged — right when both writers stored the same thing,
//     wrong when each added the same delta. A caller whose update is a
//     delta (a counter, a queue's head and tail) must therefore publish
//     with plain CAS on a re-read value (the hds counter and queue test
//     fixtures do);
//   - a PLID or VSID word must match the original or the modified value
//     on the current side (two threads must not store distinct new
//     references into the same field), otherwise the merge fails.
//
// Height-mismatched inputs are not conflicts: a version that grew (a
// store beyond the old capacity re-roots the DAG through zero-padded
// parents) merges against shorter versions by logically re-rooting the
// shorter DAGs the same way, so grow-then-commit under contention
// rebases instead of aborting. ErrConflict is reserved for true data
// conflicts. Conflict detection runs during the read-only descent, before
// any line is allocated, so an aborted merge allocates nothing.
package merge

import (
	"errors"

	"repro/internal/pool"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// ErrConflict reports a true data conflict that merge-update cannot
// resolve; the application must re-execute its operation.
var ErrConflict = errors.New("merge: conflicting concurrent updates")

// Stats counts merge activity for the §5.1.1 experiments.
type Stats struct {
	Merges        uint64 // three-way merges attempted
	Failures      uint64 // merges that hit ErrConflict
	NodesWalked   uint64 // DAG nodes expanded (skipped sub-DAGs excluded)
	SubDAGSkips   uint64 // identical sub-DAGs skipped by PLID equality
	WaveLevels    uint64 // DAG levels canonicalized, one batch pass each
	LineReads     uint64 // distinct lines fetched during the co-walk
	Lookups       uint64 // lookup-by-content operations at canonicalization
	HeightAligned uint64 // merges whose inputs needed zero-padded re-rooting
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Merges += o.Merges
	s.Failures += o.Failures
	s.NodesWalked += o.NodesWalked
	s.SubDAGSkips += o.SubDAGSkips
	s.WaveLevels += o.WaveLevels
	s.LineReads += o.LineReads
	s.Lookups += o.Lookups
	s.HeightAligned += o.HeightAligned
}

// side is one version's view of a subtree position during the co-walk:
// the canonical edge plus the number of zero-padded parent levels still
// owed above it (height re-rooting, paper §3.3 growth applied logically).
// A side with deficit d at walk level L holds a real subtree of level
// L-d sitting in the leftmost position. Zero edges normalize to deficit
// 0 so padded and real zero subtrees compare equal.
type side struct {
	e segment.Edge
	d int
}

func mkSide(e segment.Edge, d int) side {
	if e.IsZero() {
		return side{segment.ZeroEdge, 0}
	}
	return side{e, d}
}

// mnode is one expanded node of the merge wave: the three versions'
// views of one subtree position, the merged child edges (borrowed from
// the live input DAGs, overlaid by owned fresh edges as lower levels
// canonicalize), and the child positions that required their own merge.
// pad nodes carry no triple: they materialize a skipped-but-shorter
// side's zero-padded re-rooting at canonicalization time.
type mnode struct {
	level          int
	orig, mod, cur side
	pad            bool // out = padEdge(padE, padD); no expansion
	padE           segment.Edge
	padD           int
	edges          []segment.Edge
	owned          []bool
	slots          []int
	kids           []*mnode
	out            segment.Edge // canonical merged edge (owns its PLID reference)
}

// Merge three-way merges segments: orig is the common ancestor, mod the
// calling thread's version, cur the version committed meanwhile. Heights
// may differ (a version that grew merges against the others through
// zero-padded re-rooting); the result's height is the maximum of the
// three. On success the caller owns one reference on the result root.
// Stats, when non-nil, accumulates walk counters.
func Merge(m word.Mem, orig, mod, cur segment.Seg, st *Stats) (segment.Seg, error) {
	height := max(orig.Height, max(mod.Height, cur.Height))
	if st != nil {
		st.Merges++
		if orig.Height != mod.Height || orig.Height != cur.Height {
			st.HeightAligned++
		}
	}
	so := mkSide(segment.PLIDEdge(orig.Root), height-orig.Height)
	sm := mkSide(segment.PLIDEdge(mod.Root), height-mod.Height)
	sc := mkSide(segment.PLIDEdge(cur.Root), height-cur.Height)

	// Root-level sub-DAG skipping: whole-version equality.
	if sm == so {
		if st != nil {
			st.SubDAGSkips++
		}
		return padSeg(m, sc, height), nil
	}
	if sc == so || sc == sm {
		if st != nil {
			st.SubDAGSkips++
		}
		return padSeg(m, sm, height), nil
	}

	out, err := coWalk(m, so, sm, sc, height, st)
	if err != nil {
		if st != nil {
			st.Failures++
		}
		return segment.Seg{}, err
	}
	return segment.SegFromEdge(m, out, height), nil
}

// merger is the reusable state of one wave merge: the per-level node
// lists and every descent-side scratch buffer, all retaining their
// capacity between merges so a steady-state merge allocates nothing.
type merger struct {
	levels     [][]*mnode
	plids      []word.PLID
	contents   []word.Content
	readAt     pool.Index
	eo, em, ec []segment.Edge
}

// mergerPool recycles merge walk state; resetMerger drops the parked
// *mnode pointers (the nodes themselves return to mnodePool in coWalk's
// teardown) while keeping every buffer's capacity and the dedup index's
// table.
var mergerPool = pool.NewItems[merger]("merge.merger", resetMerger)

func resetMerger(w *merger) {
	for i := range w.levels {
		lv := w.levels[i][:cap(w.levels[i])]
		clear(lv)
		w.levels[i] = lv[:0]
	}
	w.plids = w.plids[:0]
	w.contents = w.contents[:0]
	// The descent's last wave is its widest (levels grow toward the
	// leaves), so readAt is at peak entry count here: past the keep
	// bound it drops its table rather than pinning it in the pool.
	w.readAt.Reset()
	w.eo, w.em, w.ec = w.eo[:0], w.em[:0], w.ec[:0]
}

// mnodePool recycles merge wave nodes; the reset drops the *mnode links
// and zeroes the triple while keeping the per-node slice capacities.
var mnodePool = pool.NewItems[mnode]("merge.mnode", func(n *mnode) {
	clear(n.kids)
	*n = mnode{
		edges: n.edges[:0],
		owned: n.owned[:0],
		slots: n.slots[:0],
		kids:  n.kids[:0],
	}
})

// getMnode borrows a wave node with its child arrays sized and zeroed
// for arity children.
func getMnode(level, arity int) *mnode {
	n := mnodePool.Get()
	n.level = level
	if cap(n.edges) < arity {
		n.edges = make([]segment.Edge, arity)
		n.owned = make([]bool, arity)
	} else {
		n.edges = n.edges[:arity]
		n.owned = n.owned[:arity]
		clear(n.edges)
		clear(n.owned)
	}
	return n
}

// coWalk runs the two wave sweeps over the merge tree rooted at the
// (vo, vm, vc) triple: the top-down batched descent (which also applies
// the §3.4 word-merge rules at the leaves, detecting true conflicts
// before anything is allocated) and the bottom-up batched
// canonicalization. On success the returned edge is the owned merged
// root. All wave state is borrowed from the package pools and parked
// again before returning, error or not.
func coWalk(m word.Mem, vo, vm, vc side, height int, st *Stats) (segment.Edge, error) {
	arity := m.LineWords()
	w := mergerPool.Get()
	defer mergerPool.Put(w)
	for len(w.levels) < height+1 {
		w.levels = append(w.levels, nil)
	}
	levels := w.levels[:height+1]
	// Park every wave node before the merger itself goes back (defers run
	// last-in first-out); the caller sees only the copied-out root edge.
	defer func() {
		for _, nodes := range levels {
			for _, n := range nodes {
				mnodePool.Put(n)
			}
		}
	}()
	if cap(w.eo) < arity {
		w.eo = make([]segment.Edge, arity)
		w.em = make([]segment.Edge, arity)
		w.ec = make([]segment.Edge, arity)
	}
	root := getMnode(height, arity)
	root.orig, root.mod, root.cur = vo, vm, vc
	levels[height] = append(levels[height], root)

	// Top-down descent: one deduped batch read per level across all
	// three versions, then per-node triple expansion and child skipping.
	plids := w.plids
	defer func() { w.plids = plids[:0] }()
	readAt := &w.readAt
	eo, em, ec := w.eo[:arity], w.em[:arity], w.ec[:arity]
	for lvl := height; lvl >= 0; lvl-- {
		nodes := levels[lvl]
		if len(nodes) == 0 {
			continue
		}
		plids = plids[:0]
		readAt.Reset()
		collect := func(s side) {
			if s.d == 0 && s.e.T == word.TagPLID && s.e.W != 0 {
				if _, seen := readAt.Number(s.e.W); !seen {
					plids = append(plids, word.PLID(s.e.W))
				}
			}
		}
		for _, n := range nodes {
			if n.pad {
				continue
			}
			collect(n.orig)
			collect(n.mod)
			collect(n.cur)
		}
		var contents []word.Content
		if len(plids) > 0 {
			if cap(w.contents) < len(plids) {
				w.contents = make([]word.Content, len(plids))
			}
			contents = w.contents[:len(plids)]
			m.ReadLineBatchInto(plids, contents)
			if st != nil {
				st.LineReads += uint64(len(plids))
			}
		}
		for _, n := range nodes {
			if n.pad {
				continue
			}
			if st != nil {
				st.NodesWalked++
			}
			expandSide(m, n.orig, lvl, contents, readAt, eo)
			expandSide(m, n.mod, lvl, contents, readAt, em)
			expandSide(m, n.cur, lvl, contents, readAt, ec)
			if lvl == 0 {
				// Leaf word merge (§3.4). Pure logic: a conflict aborts
				// the whole merge before any line is allocated.
				for i := 0; i < arity; i++ {
					me, err := mergeWord(eo[i], em[i], ec[i])
					if err != nil {
						return segment.Edge{}, err
					}
					n.edges[i] = me
				}
				continue
			}
			dO, dM, dC := childDeficit(n.orig), childDeficit(n.mod), childDeficit(n.cur)
			for i := 0; i < arity; i++ {
				co := mkSide(eo[i], deficitAt(dO, i))
				cm := mkSide(em[i], deficitAt(dM, i))
				cc := mkSide(ec[i], deficitAt(dC, i))
				// Per-child sub-DAG skipping by content-unique comparison.
				var skip side
				switch {
				case cm == co:
					skip = cc
				case cc == co || cc == cm:
					skip = cm
				default:
					kid := getMnode(lvl-1, arity)
					kid.orig, kid.mod, kid.cur = co, cm, cc
					n.slots = append(n.slots, i)
					n.kids = append(n.kids, kid)
					levels[lvl-1] = append(levels[lvl-1], kid)
					continue
				}
				if st != nil && !(co.e.IsZero() && cm.e.IsZero() && cc.e.IsZero()) {
					st.SubDAGSkips++
				}
				if skip.d == 0 {
					// Borrowed pass-through: the winning version's subtree
					// slots in by PLID, zero reads, zero RC traffic.
					n.edges[i] = skip.e
					continue
				}
				// The winning side is shorter here: its zero-padded
				// re-rooting materializes at canonicalization time (so an
				// aborted merge still allocates nothing).
				kid := getMnode(lvl-1, arity)
				kid.pad, kid.padE, kid.padD = true, skip.e, skip.d
				n.slots = append(n.slots, i)
				n.kids = append(n.kids, kid)
				levels[lvl-1] = append(levels[lvl-1], kid)
			}
		}
	}

	// Bottom-up canonicalization: one batched lookup pass per level.
	// Fresh child references release only after their parent level
	// resolves (the parent lines take their own references during the
	// lookup, which needs the children still live).
	cb := segment.AcquireCanonBatch(m)
	defer cb.Close()
	for lvl := 0; lvl <= height; lvl++ {
		nodes := levels[lvl]
		if len(nodes) == 0 {
			continue
		}
		if st != nil {
			st.WaveLevels++
		}
		for _, n := range nodes {
			if n.pad {
				n.out = padEdge(m, n.padE, n.padD)
				continue
			}
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
		if st != nil {
			st.Lookups += cb.Resolve()
		} else {
			cb.Resolve()
		}
		for _, n := range nodes {
			if n.pad { // pad nodes hold no fresh children
				continue
			}
			for i := range n.edges {
				if n.owned[i] {
					n.edges[i].Release(m)
					n.owned[i] = false
				}
			}
		}
	}
	return root.out, nil
}

// expandSide fills buf with the arity child edges of s at the walk
// level: a deficit side expands synthetically (its real subtree is the
// leftmost child of an implicit zero-padded parent), everything else
// expands through the batch-read contents or the access-free local forms
// (zero, inline, compact).
func expandSide(m word.Mem, s side, lvl int, contents []word.Content, readAt *pool.Index, buf []segment.Edge) {
	for i := range buf {
		buf[i] = segment.Edge{}
	}
	switch {
	case s.d > 0:
		buf[0] = s.e
	case s.e.IsZero():
	case s.e.T == word.TagPLID:
		j, _ := readAt.Number(s.e.W)
		c := contents[j]
		for i := range buf {
			buf[i] = segment.Edge{W: c.W[i], T: c.T[i]}
		}
	default:
		segment.ChildrenInto(m, s.e, lvl, buf)
	}
}

// childDeficit returns the deficit the leftmost child of s inherits: a
// padded side passes its real edge down with one less level owed.
func childDeficit(s side) int {
	if s.d > 0 {
		return s.d - 1
	}
	return 0
}

// deficitAt places the inherited deficit: only the leftmost child of a
// padded side carries one (the other slots are true zero subtrees).
func deficitAt(d, slot int) int {
	if slot == 0 {
		return d
	}
	return 0
}

// mergeWord applies the §3.4 word-level merge rule to one (orig, mod,
// cur) word triple.
func mergeWord(o, md, cu segment.Edge) (segment.Edge, error) {
	switch {
	case md == o:
		return cu, nil
	case cu == o || cu == md:
		return md, nil
	case o.T == word.TagRaw && md.T == word.TagRaw && cu.T == word.TagRaw:
		// Concurrent raw-data updates merge by delta (§3.4): the
		// difference the thread applied, re-applied to the current
		// value. For counters this sums concurrent increments.
		return segment.Edge{W: cu.W + (md.W - o.W), T: word.TagRaw}, nil
	default:
		// Two threads stored distinct references (or changed a word's
		// type) in the same field: a true conflict.
		return segment.Edge{}, ErrConflict
	}
}

// padEdge returns an owned edge of d levels above e's own level holding
// e's subtree in the leftmost position — the zero-padded re-rooting a
// grown segment's transient parents perform, applied to an already
// canonical edge. d == 0 just retains e.
func padEdge(m word.Mem, e segment.Edge, d int) segment.Edge {
	e.Retain(m)
	if d == 0 || e.IsZero() {
		return e
	}
	var kbuf [word.MaxWords]segment.Edge
	kids := kbuf[:m.LineWords()]
	for i := 0; i < d; i++ {
		for j := range kids {
			kids[j] = segment.Edge{}
		}
		kids[0] = e
		next := segment.CanonNode(m, kids)
		e.Release(m)
		e = next
	}
	return e
}

// padSeg re-roots s to the target height through zero-padded parents,
// returning an owned segment; at zero deficit it just retains s.
func padSeg(m word.Mem, s side, height int) segment.Seg {
	return segment.SegFromEdge(m, padEdge(m, s.e, s.d), height)
}

// MCAS publishes next over old at vsid with merge-update retry, following
// the paper's mCAS pseudo-code: on CAS failure the thread's changes are
// merged with the interleaving committer's and the CAS retried, failing
// only on a true data conflict. Ownership of the caller's reference on
// next transfers on success and is released on failure; the caller's
// reference on old is never consumed. The entry must carry
// segmap.FlagMergeUpdate.
//
// size is the logical size the caller's own version registers; when the
// publish rebases over an interleaved committer, the registered size is
// the maximum of the caller's and every merged-in version's — a merged
// grown segment never shrinks the registered size.
func MCAS(m word.Mem, sm *segmap.Map, vsid word.VSID, old, next segment.Seg, size uint64, st *Stats) (bool, error) {
	flags, err := sm.Flags(vsid)
	if err != nil {
		segment.ReleaseSeg(m, next)
		return false, err
	}
	if flags&segmap.FlagMergeUpdate == 0 {
		segment.ReleaseSeg(m, next)
		return false, errors.New("merge: segment not flagged for merge-update")
	}
	return mcas(m, sm, vsid, old, next, size, st)
}

func mcas(m word.Mem, sm *segmap.Map, vsid word.VSID, old, next segment.Seg, size uint64, st *Stats) (bool, error) {
	// The caller's reference on old is never consumed. next is owned by
	// this function: transferred to the map on success, released on
	// failure. anc is the merge ancestor — the caller's old at first,
	// then each observed current version (whose Load reference we own).
	anc, ancOwned := old, false
	done := func(err error) (bool, error) {
		segment.ReleaseSeg(m, next)
		if ancOwned {
			segment.ReleaseSeg(m, anc)
		}
		return false, err
	}
	for {
		if sm.CAS(vsid, anc, next, size) {
			if ancOwned {
				segment.ReleaseSeg(m, anc)
			}
			return true, nil
		}
		e, err := sm.Load(vsid) // cur in the paper's pseudo-code
		if err != nil {
			return done(err)
		}
		if e.Size > size {
			size = e.Size // the interleaved commit registered a larger size
		}
		merged, err := Merge(m, anc, next, e.Seg, st)
		if err != nil {
			segment.ReleaseSeg(m, e.Seg)
			return done(err)
		}
		segment.ReleaseSeg(m, next)
		if ancOwned {
			segment.ReleaseSeg(m, anc)
		}
		anc, ancOwned = e.Seg, true
		next = merged
	}
}
