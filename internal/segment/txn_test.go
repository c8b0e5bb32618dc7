package segment

import "repro/internal/word"

// Txn is the serial reference for WriteBatch: a write transaction over
// one segment that buffers each write in a private transient tree (the
// §3.3 transient lines) and commits it path by path, one CanonLeaf or
// CanonNode per transient node, bottom-up. WriteBatch must produce the
// PLID-identical root with the same line accounting
// (TestWriteBatchMatchesTxn, TestBuildVsTxnPropertyRandom); the tests
// that need a segment fixture built from individual writes use it too.
type Txn struct {
	m      word.Mem
	orig   Seg
	root   *transNode
	height int
	writes uint64
}

// transNode is a transient (mutable, private) DAG node. Leaves store their
// words in edges (an Edge is exactly one tagged word); interior nodes
// store child edges, overridden by kids[i] when the child itself has been
// made transient. owned[i] records whether edges[i] carries a reference we
// must release (freshly canonicalized children do; edges borrowed from the
// original immutable DAG do not).
type transNode struct {
	level int
	edges []Edge
	kids  []*transNode
	owned []bool
}

func newTransNode(arity, level int) *transNode {
	return &transNode{
		level: level,
		edges: make([]Edge, arity),
		kids:  make([]*transNode, arity),
		owned: make([]bool, arity),
	}
}

// expand materializes a transient copy of the subtree edge at level.
// The produced node borrows the original DAG's lines (copy-on-write).
func expand(m word.Mem, e Edge, level int) *transNode {
	n := newTransNode(m.LineWords(), level)
	copy(n.edges, Children(m, e, level))
	return n
}

// NewTxn opens a transaction over seg. The transaction holds no extra
// references; the caller must keep seg alive until Commit or Abort.
func NewTxn(m word.Mem, seg Seg) *Txn {
	return &Txn{m: m, orig: seg, height: seg.Height}
}

// Height returns the current logical height (it grows if writes land
// beyond the original capacity).
func (t *Txn) Height() int { return t.height }

// Writes returns the number of WriteWord calls buffered so far.
func (t *Txn) Writes() uint64 { return t.writes }

func (t *Txn) ensureRoot() {
	if t.root == nil {
		t.root = expand(t.m, PLIDEdge(t.orig.Root), t.height)
	}
}

// grow raises the logical height until idx fits, re-rooting the transient
// tree the way a HICAMP array grows without reallocation (§4.1).
func (t *Txn) grow(idx uint64) {
	arity := t.m.LineWords()
	for idx >= capacity(arity, t.height) {
		t.ensureRoot()
		parent := newTransNode(arity, t.height+1)
		parent.kids[0] = t.root
		t.root = parent
		t.height++
	}
}

// WriteWord sets the tagged word at idx, growing the segment as needed.
func (t *Txn) WriteWord(idx uint64, v uint64, tag word.Tag) {
	t.grow(idx)
	t.ensureRoot()
	t.writes++
	n := t.root
	for n.level > 0 {
		arity := t.m.LineWords()
		sub := capacity(arity, n.level-1)
		child := int(idx / sub)
		idx %= sub
		if n.kids[child] == nil {
			// Expand a transient copy; it borrows the old subtree's
			// lines (copy-on-write). Any reference n.edges[child] owns
			// stays in place until commit releases it.
			n.kids[child] = expand(t.m, n.edges[child], n.level-1)
		}
		n = n.kids[child]
	}
	n.edges[int(idx)] = Edge{W: v, T: tag}
}

// ReadWord reads through the transaction, observing pending writes.
func (t *Txn) ReadWord(idx uint64) (uint64, word.Tag) {
	arity := t.m.LineWords()
	if t.root == nil {
		return ReadWord(t.m, t.orig, idx)
	}
	if idx >= capacity(arity, t.height) {
		return 0, word.TagRaw
	}
	n := t.root
	for n.level > 0 {
		sub := capacity(arity, n.level-1)
		child := int(idx / sub)
		idx %= sub
		if n.kids[child] == nil {
			return readEdge(t.m, n.edges[child], n.level-1, idx)
		}
		n = n.kids[child]
	}
	e := n.edges[int(idx)]
	return e.W, e.T
}

// Commit converts every transient node into permanent content-unique
// lines bottom-up (the §3.3 commit) and returns the new segment. The
// caller owns one reference on the returned root. The transaction must
// not be used afterwards. Commit does not publish the root anywhere; use
// segmap CAS / merge-update for that.
func (t *Txn) Commit() Seg {
	if t.root == nil {
		RetainSeg(t.m, t.orig)
		return Seg{Root: t.orig.Root, Height: t.height}
	}
	e := t.commitNode(t.root)
	root := materializeRoot(t.m, e)
	t.root = nil
	return Seg{Root: root, Height: t.height}
}

func (t *Txn) commitNode(n *transNode) Edge {
	arity := t.m.LineWords()
	for i := 0; i < arity; i++ {
		if n.kids[i] == nil {
			continue
		}
		fresh := t.commitNode(n.kids[i])
		if n.owned[i] {
			n.edges[i].Release(t.m)
		}
		n.edges[i], n.owned[i] = fresh, true
		n.kids[i] = nil
	}
	var out Edge
	if n.level == 0 {
		ws := make([]uint64, arity)
		ts := make([]word.Tag, arity)
		for i, e := range n.edges {
			ws[i], ts[i] = e.W, e.T
		}
		out = CanonLeaf(t.m, ws, ts)
	} else {
		out = CanonNode(t.m, n.edges)
	}
	// Release the references this node owned; the canonical line (or
	// compact edge) acquired its own.
	for i := 0; i < arity; i++ {
		if n.owned[i] {
			n.edges[i].Release(t.m)
			n.owned[i] = false
		}
	}
	return out
}

// Abort discards all buffered writes. The original segment is untouched.
func (t *Txn) Abort() {
	if t.root == nil {
		return
	}
	var drop func(n *transNode)
	drop = func(n *transNode) {
		for i := range n.kids {
			if n.kids[i] != nil {
				drop(n.kids[i])
			}
			if n.owned[i] {
				n.edges[i].Release(t.m)
			}
		}
	}
	drop(t.root)
	t.root = nil
}
