package merge

import (
	"repro/internal/segment"
	"repro/internal/word"
)

// MergeSerial is the per-node recursive reference implementation of the
// three-way merge: the semantic and accounting oracle the wave engine
// (Merge) is verified against. It requires equal
// heights; align shorter inputs with zero-padded re-rooting first (Merge
// does this itself).
func MergeSerial(m word.Mem, orig, mod, cur segment.Seg, st *Stats) (segment.Seg, error) {
	if orig.Height != mod.Height || orig.Height != cur.Height {
		return segment.Seg{}, ErrConflict
	}
	if st != nil {
		st.Merges++
	}
	e, err := mergeEdge(m,
		segment.PLIDEdge(orig.Root),
		segment.PLIDEdge(mod.Root),
		segment.PLIDEdge(cur.Root),
		orig.Height, st)
	if err != nil {
		if st != nil {
			st.Failures++
		}
		return segment.Seg{}, err
	}
	return segment.SegFromEdge(m, e, orig.Height), nil
}

// mergeEdge returns an owned edge merging the three subtrees at level.
func mergeEdge(m word.Mem, orig, mod, cur segment.Edge, level int, st *Stats) (segment.Edge, error) {
	// Identical sub-DAG skipping by content-unique edge comparison.
	if mod == orig {
		if st != nil {
			st.SubDAGSkips++
		}
		cur.Retain(m)
		return cur, nil
	}
	if cur == orig || cur == mod {
		if st != nil {
			st.SubDAGSkips++
		}
		mod.Retain(m)
		return mod, nil
	}
	if st != nil {
		st.NodesWalked++
	}
	if level == 0 {
		return mergeLeaf(m, orig, mod, cur)
	}
	co := segment.Children(m, orig, level)
	cm := segment.Children(m, mod, level)
	cc := segment.Children(m, cur, level)
	arity := m.LineWords()
	merged := make([]segment.Edge, arity)
	for i := 0; i < arity; i++ {
		e, err := mergeEdge(m, co[i], cm[i], cc[i], level-1, st)
		if err != nil {
			for j := 0; j < i; j++ {
				merged[j].Release(m)
			}
			return segment.Edge{}, err
		}
		merged[i] = e
	}
	out := segment.CanonNode(m, merged)
	for _, e := range merged {
		e.Release(m)
	}
	return out, nil
}

func mergeLeaf(m word.Mem, orig, mod, cur segment.Edge) (segment.Edge, error) {
	arity := m.LineWords()
	wo := segment.Children(m, orig, 0)
	wm := segment.Children(m, mod, 0)
	wc := segment.Children(m, cur, 0)
	ws := make([]uint64, arity)
	ts := make([]word.Tag, arity)
	for i := 0; i < arity; i++ {
		e, err := mergeWord(wo[i], wm[i], wc[i])
		if err != nil {
			return segment.Edge{}, err
		}
		ws[i], ts[i] = e.W, e.T
	}
	return segment.CanonLeaf(m, ws, ts), nil
}
