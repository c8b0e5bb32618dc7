package spmv

import (
	"math"
	"sort"

	"repro/internal/segment"
	"repro/internal/word"
)

// QTS is the symmetric quad-tree format of §5.2: the matrix is split into
// four quadrants with A11 and A22 stored in the left subtree and A12 and
// A21-transposed in the right subtree. Storing A21 transposed means a
// symmetric matrix's two off-diagonal quadrants are the *same content*,
// so deduplication collapses them into one sub-DAG; repeated blocks and
// zero quadrants collapse the same way at every level. Recursion stops at
// 2x2 value blocks stored row-major as float64 bit patterns.
type QTS struct {
	Root word.PLID // owned reference
	Dim  int       // padded power-of-two dimension
	Rows int
	Cols int
}

// BuildQTS constructs the quad-tree in the machine's deduplicated memory
// through the bulk pipeline: nonzeros are first partitioned (no memory
// traffic) into their 2x2 leaf blocks keyed by quadrant path, then the
// tree is canonicalized bottom-up one whole level at a time with batched
// lookups, instead of one recursive CanonNode per block. The resulting
// root is identical to the recursive construction — the canonical form is
// order-independent.
func BuildQTS(m word.Mem, mat *Matrix) *QTS {
	dim := mat.Dim()

	// Partition: each nonzero descends to its leaf block, accumulating a
	// base-4 quadrant path (2 bits per level, slots matching quadNode:
	// 0=A11, 1=A22, 2=A12, 3=A21 transposed). Entering A21 transposes the
	// local coordinates — the QTS sharing trick, applied arithmetically.
	keys := make([]uint64, 0, 64)
	blocks := make(map[uint64]*[4]uint64)
	addNZ := func(r, c int, v float64) {
		var key uint64
		for size := dim; size > 2; size /= 2 {
			h := size / 2
			switch {
			case r < h && c < h:
				key = key*4 + 0
			case r >= h && c >= h:
				key, r, c = key*4+1, r-h, c-h
			case r < h:
				key, c = key*4+2, c-h
			default:
				key, r, c = key*4+3, c, r-h // transpose into A21^T
			}
		}
		blk := blocks[key]
		if blk == nil {
			blk = new([4]uint64)
			blocks[key] = blk
			keys = append(keys, key)
		}
		blk[r*2+c] = math.Float64bits(v)
	}
	for r := 0; r < mat.Rows; r++ {
		for k := mat.RowPtr[r]; k < mat.RowPtr[r+1]; k++ {
			addNZ(r, int(mat.ColIdx[k]), mat.Vals[k])
		}
	}
	if len(keys) == 0 {
		return &QTS{Root: word.Zero, Dim: dim, Rows: mat.Rows, Cols: mat.Cols}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Leaf level: every populated 2x2 block canonicalized in one batch.
	edges := leafBlocks(m, keys, blocks)

	// Interior levels, bottom-up: group nodes by parent path (key >> 2),
	// slot them by the dropped digit, canonicalize the whole level at once.
	levels := 0
	for size := dim; size > 2; size /= 2 {
		levels++
	}
	for l := 0; l < levels; l++ {
		parentKeys := make([]uint64, 0, len(keys))
		children := make(map[uint64]*[4]segment.Edge)
		for i, k := range keys {
			pk := k >> 2
			grp := children[pk]
			if grp == nil {
				grp = new([4]segment.Edge)
				children[pk] = grp
				parentKeys = append(parentKeys, pk)
			}
			grp[k&3] = edges[i]
		}
		parents := quadNodes(m, parentKeys, children)
		releaseEdges(m, edges...)
		keys, edges = parentKeys, parents
	}
	return &QTS{
		Root: segment.SegFromEdge(m, edges[0], 0).Root,
		Dim:  dim,
		Rows: mat.Rows,
		Cols: mat.Cols,
	}
}

// leafBlocks canonicalizes every populated 2x2 block in one batch,
// returning one owned edge per key (in key order).
func leafBlocks(m word.Mem, keys []uint64, blocks map[uint64]*[4]uint64) []segment.Edge {
	arity := m.LineWords()
	if arity >= 4 {
		ws := make([]uint64, len(keys)*arity)
		for i, k := range keys {
			copy(ws[i*arity:], blocks[k][:])
		}
		return segment.CanonLeaves(m, ws)
	}
	// 2-word lines: each block is two value lines under one node.
	ws := make([]uint64, len(keys)*4)
	for i, k := range keys {
		copy(ws[i*4:], blocks[k][:])
	}
	rows := segment.CanonLeaves(m, ws) // top, bot per block
	out := segment.CanonNodes(m, rows)
	releaseEdges(m, rows...)
	return out
}

// quadNodes combines each parent's four quadrant edges into one node edge
// per parent, the batch equivalent of quadNode (same [ [A11,A22],
// [A12,A21^T] ] layout). Child edges are borrowed.
func quadNodes(m word.Mem, parentKeys []uint64, children map[uint64]*[4]segment.Edge) []segment.Edge {
	arity := m.LineWords()
	if arity >= 4 {
		flat := make([]segment.Edge, len(parentKeys)*arity)
		for i, pk := range parentKeys {
			copy(flat[i*arity:], children[pk][:])
		}
		return segment.CanonNodes(m, flat)
	}
	// 2-word lines: left = [A11, A22], right = [A12, A21^T], top = [left, right].
	lr := make([]segment.Edge, len(parentKeys)*4)
	for i, pk := range parentKeys {
		copy(lr[i*4:], children[pk][:])
	}
	halves := segment.CanonNodes(m, lr) // left, right per parent
	out := segment.CanonNodes(m, halves)
	releaseEdges(m, halves...)
	return out
}

// Release drops the tree's root reference.
func (q *QTS) Release(m word.Mem) {
	if q.Root != word.Zero {
		m.Release(q.Root)
	}
}

// FootprintBytes returns the deduplicated line bytes of the tree.
func (q *QTS) FootprintBytes(m word.Mem) uint64 {
	return segment.FootprintBytes(m, segment.Seg{Root: q.Root})
}

func releaseEdges(m word.Mem, es ...segment.Edge) {
	for _, e := range es {
		e.Release(m)
	}
}

// MulVec computes y = A*x reading the tree through the machine (every
// line access goes through the HICAMP cache). x is read from a segment so
// vector traffic is charged too; y accumulates in the per-core transient
// region (see SpMVHicamp for its write accounting).
func (q *QTS) MulVec(m word.Mem, xseg segment.Seg, xlen int) []float64 {
	y := make([]float64, q.Rows)
	xcache := newXReader(m, xseg, xlen)
	q.mul(m, segment.PLIDEdge(q.Root), 0, 0, q.Dim, false, xcache, y)
	return y
}

// mul adds the contribution of the stored block e whose actual position
// is (r0, c0, size); trans marks that e stores the transpose.
func (q *QTS) mul(m word.Mem, e segment.Edge, r0, c0, size int, trans bool, x *xReader, y []float64) {
	if e.IsZero() {
		return
	}
	if size == 2 {
		q.mulLeaf(m, e, r0, c0, trans, x, y)
		return
	}
	var e11, e22, e12, e21t segment.Edge
	if m.LineWords() >= 4 {
		kids := segment.Children(m, e, 1)
		e11, e22, e12, e21t = kids[0], kids[1], kids[2], kids[3]
	} else {
		kids := segment.Children(m, e, 2)
		l := segment.Children(m, kids[0], 1)
		r := segment.Children(m, kids[1], 1)
		e11, e22, e12, e21t = l[0], l[1], r[0], r[1]
	}
	h := size / 2
	q.mul(m, e11, r0, c0, h, trans, x, y)
	q.mul(m, e22, r0+h, c0+h, h, trans, x, y)
	if !trans {
		q.mul(m, e12, r0, c0+h, h, false, x, y)
		q.mul(m, e21t, r0+h, c0, h, true, x, y)
	} else {
		q.mul(m, e12, r0+h, c0, h, true, x, y)
		q.mul(m, e21t, r0, c0+h, h, false, x, y)
	}
}

func (q *QTS) mulLeaf(m word.Mem, e segment.Edge, r0, c0 int, trans bool, x *xReader, y []float64) {
	var vals [4]uint64
	if m.LineWords() >= 4 {
		ws := segment.Children(m, e, 0)
		for i := 0; i < 4; i++ {
			vals[i] = ws[i].W
		}
	} else {
		rows := segment.Children(m, e, 1)
		copyPair := func(dst []uint64, e segment.Edge) {
			ws := segment.Children(m, e, 0)
			dst[0], dst[1] = ws[0].W, ws[1].W
		}
		copyPair(vals[:2], rows[0])
		copyPair(vals[2:], rows[1])
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			bits := vals[i*2+j]
			if bits == 0 {
				continue
			}
			v := math.Float64frombits(bits)
			rr, cc := r0+i, c0+j
			if trans {
				rr, cc = r0+j, c0+i
			}
			if rr < len(y) {
				y[rr] += v * x.at(cc)
			}
		}
	}
}

// xReader reads the dense vector x from a segment with a tiny software
// cache of the last line, standing in for the iterator register the
// hardware would dedicate to the vector.
type xReader struct {
	m     word.Mem
	seg   segment.Seg
	n     int
	base  uint64
	words []uint64
	ok    bool
}

func newXReader(m word.Mem, seg segment.Seg, n int) *xReader {
	return &xReader{m: m, seg: seg, n: n}
}

func (x *xReader) at(i int) float64 {
	if i >= x.n {
		return 0
	}
	idx := uint64(i)
	arity := uint64(x.m.LineWords())
	base := idx / arity * arity
	if !x.ok || base != x.base {
		x.words = segment.ReadWords(x.m, x.seg, base, arity)
		x.base, x.ok = base, true
	}
	return math.Float64frombits(x.words[idx-base])
}

// BuildXSegment stores a dense vector as a segment of float64 bits.
func BuildXSegment(m word.Mem, x []float64) segment.Seg {
	ws := make([]uint64, len(x))
	for i, v := range x {
		ws[i] = math.Float64bits(v)
	}
	return segment.BuildWords(m, ws, nil)
}
