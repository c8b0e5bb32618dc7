package segment

import (
	"repro/internal/pool"
	"repro/internal/word"
)

// CanonBatch canonicalizes one DAG level's worth of nodes with a single
// batched lookup-by-content. It is the bottom-up half of every wave
// pipeline (WriteBatch, the merge rebase engine): callers submit each
// node's children through Leaf/Node — the canonical special cases (zero
// elision, inlining, path compaction) resolve immediately without memory
// accesses, everything else pends — and one Resolve call turns the
// pending contents into owned PLID edges through one LookupLineBatchInto,
// deduplicating equal contents within the level (content-uniqueness makes
// the duplicate's line the same line the store would have returned).
//
// The produced edges follow the CanonLeaf/CanonNode ownership contract:
// each out edge owns one reference when it carries a PLID; ownership of
// the submitted child edges is untouched.
type CanonBatch struct {
	m     word.Mem
	arity int
	pendC []word.Content
	pendO []*Edge

	// Resolve's scratch, reused across levels (and, for pooled
	// instances, across engine calls): the within-level dedup map is
	// cleared rather than reallocated, the duplicate list and the PLID
	// result buffer keep their capacity.
	firstAt map[word.Content]int
	dups    []canonDup
	plids   []word.PLID
}

// canonDup records one deduplicated pending node: its output edge and
// the index of the identical content in the unique lookup set.
type canonDup struct {
	out  *Edge
	uniq int
}

// canonBatchPool recycles CanonBatch instances across wave-engine calls
// so a steady-state WriteBatch or Merge allocates neither the batch nor
// its dedup map. The reset drops the borrowed memory system and zeroes
// the *Edge output pointers (they point into pooled wnodes) while
// keeping every buffer's capacity and the dedup map's buckets.
var canonBatchPool = pool.NewItems[CanonBatch]("segment.canonbatch", func(b *CanonBatch) {
	b.pendO = b.pendO[:cap(b.pendO)]
	clear(b.pendO)
	b.dups = b.dups[:cap(b.dups)]
	clear(b.dups)
	b.m, b.arity = nil, 0
	b.pendC = b.pendC[:0]
	b.pendO = b.pendO[:0]
	b.dups = b.dups[:0]
	b.plids = b.plids[:0]
	b.firstAt = pool.ResetMap(b.firstAt, 0)
})

// AcquireCanonBatch borrows a canonicalizer over m from the pool,
// allocation-free at steady state. The caller must return it with Close
// before its engine call returns, after which the instance must not be
// used.
func AcquireCanonBatch(m word.Mem) *CanonBatch {
	b := canonBatchPool.Get()
	b.m, b.arity = m, m.LineWords()
	return b
}

// Close parks the canonicalizer back in the pool.
func (b *CanonBatch) Close() { canonBatchPool.Put(b) }

// Leaf canonicalizes a leaf of exactly arity word-level edges into *out,
// mirroring CanonLeaf: the zero edge and the inline encoding resolve
// immediately, a real leaf line pends until Resolve.
func (b *CanonBatch) Leaf(edges []Edge, out *Edge) {
	c := word.NewContent(b.arity)
	allZero, allSmallRaw := true, true
	for i := 0; i < b.arity; i++ {
		e := edges[i]
		c.W[i], c.T[i] = e.W, e.T
		if e.W != 0 || e.T != word.TagRaw {
			allZero = false
		}
		if e.T != word.TagRaw {
			allSmallRaw = false
		}
	}
	if allZero {
		*out = ZeroEdge
		return
	}
	if allSmallRaw {
		if w, ok := word.PackInline(c.W[:b.arity], b.arity); ok {
			*out = Edge{W: w, T: word.TagInline}
			return
		}
	}
	b.pendC = append(b.pendC, c)
	b.pendO = append(b.pendO, out)
}

// Node canonicalizes an interior node of exactly arity child edges into
// *out, mirroring CanonNode: the zero edge and the path-compacted
// single-child encodings resolve immediately (retaining the compacted
// target), a real interior line pends until Resolve.
func (b *CanonBatch) Node(edges []Edge, out *Edge) {
	plidBits := b.m.PLIDBits()
	c := word.NewContent(b.arity)
	nz, idx := 0, -1
	for i := 0; i < b.arity; i++ {
		e := edges[i]
		c.W[i], c.T[i] = e.W, e.T
		if !e.IsZero() {
			nz++
			idx = i
		}
	}
	if nz == 0 {
		*out = ZeroEdge
		return
	}
	if nz == 1 {
		child := edges[idx]
		switch child.T {
		case word.TagPLID:
			steps := [1]int{idx}
			if w, ok := word.EncodeCompact(word.PLID(child.W), steps[:], b.arity, plidBits); ok {
				b.m.Retain(word.PLID(child.W))
				*out = Edge{W: w, T: word.TagCompact}
				return
			}
		case word.TagCompact:
			// Prepend idx to the child's decoded path on the stack: the
			// decode lands in sbuf[1:], leaving slot 0 for the new step.
			var sbuf [word.MaxCompactPath + 1]int
			p, path := word.DecodeCompactInto(child.W, b.arity, plidBits, sbuf[1:])
			sbuf[0] = idx
			if w, ok := word.EncodeCompact(p, sbuf[:1+len(path)], b.arity, plidBits); ok {
				b.m.Retain(p)
				*out = Edge{W: w, T: word.TagCompact}
				return
			}
		}
	}
	b.pendC = append(b.pendC, c)
	b.pendO = append(b.pendO, out)
}

// Resolve turns the pending contents into owned PLID edges through one
// batched lookup and resets the batch for the next level. It reports how
// many lookups were issued (after within-level dedup).
func (b *CanonBatch) Resolve() uint64 {
	if len(b.pendC) == 0 {
		return 0
	}
	if b.firstAt == nil {
		b.firstAt = make(map[word.Content]int, len(b.pendC))
	}
	uniqC := b.pendC[:0] // compacts in place; position i is read before any write can reach it
	uniqO := b.pendO[:0]
	dups := b.dups[:0]
	for i, c := range b.pendC {
		if j, ok := b.firstAt[c]; ok {
			dups = append(dups, canonDup{b.pendO[i], j})
			continue
		}
		b.firstAt[c] = len(uniqC)
		uniqC = append(uniqC, c)
		uniqO = append(uniqO, b.pendO[i])
	}
	if cap(b.plids) < len(uniqC) {
		b.plids = make([]word.PLID, len(uniqC))
	}
	plids := b.plids[:len(uniqC)]
	b.m.LookupLineBatchInto(uniqC, plids)
	for j, out := range uniqO {
		*out = PLIDEdge(plids[j]) // consumes the lookup's reference
	}
	for _, d := range dups {
		p := plids[d.uniq]
		b.m.Retain(p)
		*d.out = PLIDEdge(p)
	}
	n := uint64(len(uniqC))
	b.pendC = b.pendC[:0]
	b.pendO = b.pendO[:0]
	b.dups = dups[:0]
	// Reset the dedup map here, at the level's full size, not at pool
	// return time (by then it is empty and its grown capacity — which is
	// what clear() pays for — is invisible). An oversized level's map is
	// dropped so its clear cost cannot leak into later levels or, for
	// pooled instances, later engine calls.
	b.firstAt = pool.ResetMap(b.firstAt, 0)
	return n
}
