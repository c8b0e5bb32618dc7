package spmv

import (
	"math"

	"repro/internal/segment"
	"repro/internal/word"
)

// buildQTSRecursive is the one-node-at-a-time construction that BuildQTS
// is verified against.
func buildQTSRecursive(m word.Mem, mat *Matrix) *QTS {
	dim := mat.Dim()
	ts := make([]Triplet, 0, mat.NNZ())
	for r := 0; r < mat.Rows; r++ {
		for k := mat.RowPtr[r]; k < mat.RowPtr[r+1]; k++ {
			ts = append(ts, Triplet{r, int(mat.ColIdx[k]), mat.Vals[k]})
		}
	}
	e := buildQuad(m, ts, dim)
	return &QTS{
		Root: segment.SegFromEdge(m, e, 0).Root,
		Dim:  dim,
		Rows: mat.Rows,
		Cols: mat.Cols,
	}
}

// buildQuad builds the edge for a quadrant holding entries in local
// coordinates [0,size)x[0,size).
func buildQuad(m word.Mem, ts []Triplet, size int) segment.Edge {
	if len(ts) == 0 {
		return segment.ZeroEdge
	}
	if size == 2 {
		return leaf2x2(m, ts)
	}
	h := size / 2
	var g11, g12, g21, g22 []Triplet
	for _, t := range ts {
		switch {
		case t.R < h && t.C < h:
			g11 = append(g11, t)
		case t.R < h:
			g12 = append(g12, Triplet{t.R, t.C - h, t.V})
		case t.C < h:
			g21 = append(g21, Triplet{t.R - h, t.C, t.V})
		default:
			g22 = append(g22, Triplet{t.R - h, t.C - h, t.V})
		}
	}
	// Transpose A21 in place: the QTS sharing trick.
	for i := range g21 {
		g21[i].R, g21[i].C = g21[i].C, g21[i].R
	}
	e11 := buildQuad(m, g11, h)
	e22 := buildQuad(m, g22, h)
	e12 := buildQuad(m, g12, h)
	e21t := buildQuad(m, g21, h)
	return quadNode(m, e11, e22, e12, e21t)
}

// quadNode combines the four quadrant edges into one node edge, laid out
// [ [A11, A22], [A12, A21^T] ] (Figure-agnostic: for line widths >= 4
// words the four edges share a single line).
func quadNode(m word.Mem, e11, e22, e12, e21t segment.Edge) segment.Edge {
	arity := m.LineWords()
	if arity >= 4 {
		kids := make([]segment.Edge, arity)
		kids[0], kids[1], kids[2], kids[3] = e11, e22, e12, e21t
		out := segment.CanonNode(m, kids)
		releaseEdges(m, e11, e22, e12, e21t)
		return out
	}
	left := segment.CanonNode(m, []segment.Edge{e11, e22})
	right := segment.CanonNode(m, []segment.Edge{e12, e21t})
	out := segment.CanonNode(m, []segment.Edge{left, right})
	releaseEdges(m, e11, e22, e12, e21t, left, right)
	return out
}

// leaf2x2 stores a 2x2 value block row-major. With 2-word lines the block
// is two value lines under one node; with wider lines it is one leaf.
func leaf2x2(m word.Mem, ts []Triplet) segment.Edge {
	var v [4]uint64
	for _, t := range ts {
		v[t.R*2+t.C] = math.Float64bits(t.V)
	}
	arity := m.LineWords()
	tags := make([]word.Tag, arity)
	if arity >= 4 {
		ws := make([]uint64, arity)
		copy(ws, v[:])
		return segment.CanonLeaf(m, ws, tags)
	}
	top := segment.CanonLeaf(m, v[:2], tags)
	bot := segment.CanonLeaf(m, v[2:], tags)
	out := segment.CanonNode(m, []segment.Edge{top, bot})
	releaseEdges(m, top, bot)
	return out
}
