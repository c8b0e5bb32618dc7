package segment

import "repro/internal/word"

// BuildWordsSerial is the line-at-a-time reference implementation of
// BuildWords: one lookup-by-content per line, in canonical order. It is
// the oracle the batch pipeline (BuildWords, CanonLeaves/CanonNodes, WriteBatch) is
// verified against: it must reach the PLID-identical root.
func BuildWordsSerial(m word.Mem, ws []uint64, ts []word.Tag) Seg {
	arity := m.LineWords()
	n := uint64(len(ws))
	if n == 0 {
		return Seg{Root: word.Zero, Height: 0}
	}
	height := HeightFor(arity, n)

	tagAt := func(i int) word.Tag {
		if ts == nil {
			return word.TagRaw
		}
		return ts[i]
	}

	// Level 0: leaves, filled left to right (§2.2 canonical rule).
	leaves := int((n + uint64(arity) - 1) / uint64(arity))
	edges := make([]Edge, leaves)
	lw := make([]uint64, arity)
	lt := make([]word.Tag, arity)
	for l := 0; l < leaves; l++ {
		for i := 0; i < arity; i++ {
			j := l*arity + i
			if j < len(ws) {
				lw[i], lt[i] = ws[j], tagAt(j)
			} else {
				lw[i], lt[i] = 0, word.TagRaw
			}
		}
		edges[l] = CanonLeaf(m, lw, lt)
	}

	// Interior levels.
	kids := make([]Edge, arity)
	for level := 1; level <= height; level++ {
		parents := (len(edges) + arity - 1) / arity
		next := make([]Edge, parents)
		for p := 0; p < parents; p++ {
			for i := 0; i < arity; i++ {
				if j := p*arity + i; j < len(edges) {
					kids[i] = edges[j]
				} else {
					kids[i] = ZeroEdge
				}
			}
			next[p] = CanonNode(m, kids)
			releaseAll(m, kids[:min(arity, len(edges)-p*arity)])
		}
		edges = next
	}
	return Seg{Root: materializeRoot(m, edges[0]), Height: height}
}
