package spmv

import (
	"math"

	"repro/internal/iterreg"
	"repro/internal/segment"
	"repro/internal/word"
)

// NZD is the non-zero-dense format of §5.2: for matrices whose *pattern*
// repeats but whose values do not, the pattern is stored as a quad-tree
// of occupancy bitmasks (exploiting pattern self-similarity and zero
// blocks) while the values fill a separate, nearly dense segment in
// traversal order. Recursion stops at 8x8 blocks, whose 64 cells pack
// into one Morton-coded mask word.
type NZD struct {
	Pattern word.PLID   // owned: root of the pattern quad-tree
	Values  segment.Seg // owned: dense float64-bits value segment
	Dim     int
	Rows    int
	Cols    int
	NVals   int
}

const nzdBlock = 8 // leaf block edge length (64 cells = 1 mask word)

// BuildNZD constructs the pattern tree and value segment.
func BuildNZD(m word.Mem, mat *Matrix) *NZD {
	dim := mat.Dim()
	if dim < nzdBlock {
		dim = nzdBlock
	}
	ts := make([]Triplet, 0, mat.NNZ())
	for r := 0; r < mat.Rows; r++ {
		for k := mat.RowPtr[r]; k < mat.RowPtr[r+1]; k++ {
			ts = append(ts, Triplet{r, int(mat.ColIdx[k]), mat.Vals[k]})
		}
	}
	var vals []uint64
	root := buildPattern(m, ts, dim, &vals)
	return &NZD{
		Pattern: segment.SegFromEdge(m, root, 0).Root,
		Values:  segment.BuildWords(m, vals, nil),
		Dim:     dim,
		Rows:    mat.Rows,
		Cols:    mat.Cols,
		NVals:   len(vals),
	}
}

// Release drops both segments.
func (z *NZD) Release(m word.Mem) {
	if z.Pattern != word.Zero {
		m.Release(z.Pattern)
	}
	segment.ReleaseSeg(m, z.Values)
}

// FootprintBytes returns the deduplicated bytes of pattern plus values.
func (z *NZD) FootprintBytes(m word.Mem) uint64 {
	return segment.FootprintBytes(m, segment.Seg{Root: z.Pattern}) +
		segment.FootprintBytes(m, z.Values)
}

// buildPattern builds the pattern edge for a quadrant (local coords),
// appending the quadrant's values to vals in traversal order: quadrants
// visited 11, 12, 21, 22; leaf cells in Morton bit order. The multiply
// consumes values in exactly this order.
func buildPattern(m word.Mem, ts []Triplet, size int, vals *[]uint64) segment.Edge {
	if len(ts) == 0 {
		return segment.ZeroEdge
	}
	if size == nzdBlock {
		var mask uint64
		var cell [64]uint64
		for _, t := range ts {
			b := mortonBit(t.R, t.C)
			mask |= 1 << b
			cell[b] = math.Float64bits(t.V)
		}
		for b := 0; b < 64; b++ {
			if mask&(1<<b) != 0 {
				*vals = append(*vals, cell[b])
			}
		}
		return maskLeaf(m, mask)
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
	e11 := buildPattern(m, g11, h, vals)
	e12 := buildPattern(m, g12, h, vals)
	e21 := buildPattern(m, g21, h, vals)
	e22 := buildPattern(m, g22, h, vals)
	return patternNode(m, e11, e12, e21, e22)
}

func patternNode(m word.Mem, e11, e12, e21, e22 segment.Edge) segment.Edge {
	arity := m.LineWords()
	if arity >= 4 {
		kids := make([]segment.Edge, arity)
		kids[0], kids[1], kids[2], kids[3] = e11, e12, e21, e22
		out := segment.CanonNode(m, kids)
		releaseEdges(m, e11, e12, e21, e22)
		return out
	}
	left := segment.CanonNode(m, []segment.Edge{e11, e12})
	right := segment.CanonNode(m, []segment.Edge{e21, e22})
	out := segment.CanonNode(m, []segment.Edge{left, right})
	releaseEdges(m, e11, e12, e21, e22, left, right)
	return out
}

// maskLeaf stores one 64-bit occupancy word as a leaf edge.
func maskLeaf(m word.Mem, mask uint64) segment.Edge {
	arity := m.LineWords()
	ws := make([]uint64, arity)
	ts := make([]word.Tag, arity)
	ws[0] = mask
	return segment.CanonLeaf(m, ws, ts)
}

// mortonBit interleaves the low 3 bits of i (rows) and j (cols) into the
// Morton bit index of a cell within an 8x8 block.
func mortonBit(i, j int) int {
	b := 0
	for k := 0; k < 3; k++ {
		b |= ((j >> k) & 1) << (2 * k)
		b |= ((i >> k) & 1) << (2*k + 1)
	}
	return b
}

// mortonCell inverts mortonBit.
func mortonCell(b int) (i, j int) {
	for k := 0; k < 3; k++ {
		j |= ((b >> (2 * k)) & 1) << k
		i |= ((b >> (2*k + 1)) & 1) << k
	}
	return
}

// MulVec computes y = A*x, traversing the pattern tree and consuming the
// value segment sequentially through an iterator register.
func (z *NZD) MulVec(m word.Mem, xseg segment.Seg, xlen int) []float64 {
	y := make([]float64, z.Rows)
	x := newXReader(m, xseg, xlen)
	vit := iterreg.NewSegmentIterator(m, z.Values)
	cursor := uint64(0)
	z.mulPat(m, segment.PLIDEdge(z.Pattern), 0, 0, z.Dim, x, y, vit, &cursor)
	return y
}

func (z *NZD) mulPat(m word.Mem, e segment.Edge, r0, c0, size int, x *xReader, y []float64, vit *iterreg.Iterator, cursor *uint64) {
	if e.IsZero() {
		return
	}
	if size == nzdBlock {
		ws := segment.Children(m, e, 0)
		mask := ws[0].W
		for b := 0; b < 64; b++ {
			if mask&(1<<b) == 0 {
				continue
			}
			bits, _ := vit.Load(*cursor)
			*cursor++
			i, j := mortonCell(b)
			rr := r0 + i
			if rr < len(y) {
				y[rr] += math.Float64frombits(bits) * x.at(c0+j)
			}
		}
		return
	}
	var e11, e12, e21, e22 segment.Edge
	if m.LineWords() >= 4 {
		kids := segment.Children(m, e, 1)
		e11, e12, e21, e22 = kids[0], kids[1], kids[2], kids[3]
	} else {
		kids := segment.Children(m, e, 2)
		l := segment.Children(m, kids[0], 1)
		r := segment.Children(m, kids[1], 1)
		e11, e12, e21, e22 = l[0], l[1], r[0], r[1]
	}
	h := size / 2
	z.mulPat(m, e11, r0, c0, h, x, y, vit, cursor)
	z.mulPat(m, e12, r0, c0+h, h, x, y, vit, cursor)
	z.mulPat(m, e21, r0+h, c0, h, x, y, vit, cursor)
	z.mulPat(m, e22, r0+h, c0+h, h, x, y, vit, cursor)
}
