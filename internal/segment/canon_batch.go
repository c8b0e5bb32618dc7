package segment

import (
	"math/bits"

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

	// Resolve's scratch, reused across levels and (pooled) engine calls:
	// the dedup index is emptied through the slots it filled, the other
	// buffers keep their capacity.
	firstAt []int32  // open-addressed: 0 is empty, else a unique's index + 1
	filled  []uint32 // the slots of firstAt this level filled
	dups    []canonDup
	plids   []word.PLID
}

// canonDup records one deduplicated pending node: its output edge and
// the index of the identical content in the unique lookup set.
type canonDup struct {
	out  *Edge
	uniq int
}

// canonBatchPool recycles CanonBatch instances across engine calls so a
// steady-state WriteBatch, Merge or build allocates neither the batch nor
// its dedup index. Resolve zeroes the *Edge output pointers it consumed
// (they point into pooled wnodes and edge scratch); the reset zeroes any
// submitted but unresolved ones and drops the borrowed memory system,
// keeping every buffer's capacity and the dedup index's slots. Both
// cost what the last call used, not what the buffers once grew to: small
// builds borrow the instance a large wave just returned.
var canonBatchPool = pool.NewItems[CanonBatch]("segment.canonbatch", func(b *CanonBatch) {
	clear(b.pendO)
	b.m, b.arity = nil, 0
	b.pendC = b.pendC[:0]
	b.pendO = b.pendO[:0]
	if len(b.firstAt) > 1<<16 { // a bulk load's index, not a window's
		b.firstAt, b.filled = nil, nil
	}
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
	c := edgeContent(edges[:b.arity])
	if e, ok := compactLeaf(&c); ok {
		*out = e
		return
	}
	b.pendC = append(b.pendC, c)
	b.pendO = append(b.pendO, out)
}

// Node canonicalizes an interior node of exactly arity child edges into
// *out, mirroring CanonNode: the zero edge and the path-compacted
// single-child encodings resolve immediately (retaining the compacted
// target), a real interior line pends until Resolve.
func (b *CanonBatch) Node(edges []Edge, out *Edge) {
	c := edgeContent(edges[:b.arity])
	if e, ok := compactNode(b.m, &c); ok {
		*out = e
		return
	}
	b.pendC = append(b.pendC, c)
	b.pendO = append(b.pendO, out)
}

// Resolve turns the pending contents into owned PLID edges and resets the
// batch for the next level. The pending contents are deduplicated by
// full content and looked up in one batch, and each duplicate retains its
// unique's line. It reports how many lookups were issued.
func (b *CanonBatch) Resolve() uint64 {
	if len(b.pendC) == 0 {
		return 0
	}
	// A lone pending content has nothing to deduplicate against, so a
	// one-line level (a short key, the top of a tree) skips the index,
	// which has two slots or more per pending content.
	dedupe := len(b.pendC) > 1
	if dedupe && len(b.firstAt) < 2*len(b.pendC) {
		b.firstAt = make([]int32, 1<<bits.Len(uint(2*len(b.pendC)-1)))
	}
	mask := uint64(len(b.firstAt) - 1)
	uniqC := b.pendC[:0] // compacts in place; position i is read before any write can reach it
	uniqO := b.pendO[:0]
	dups := b.dups[:0]
	for i, c := range b.pendC {
		if dedupe {
			at := dedupHash(&c) & mask
			for b.firstAt[at] != 0 && uniqC[b.firstAt[at]-1] != c {
				at = (at + 1) & mask
			}
			if j := b.firstAt[at]; j != 0 {
				dups = append(dups, canonDup{b.pendO[i], int(j - 1)})
				continue
			}
			b.firstAt[at] = int32(len(uniqC) + 1)
			b.filled = append(b.filled, uint32(at))
		}
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
	// Empty the dedup index through the slots this level filled: clearing
	// it whole would charge one large level's capacity to every later
	// small level, and through the pool to every engine's later builds.
	for _, at := range b.filled {
		b.firstAt[at] = 0
	}
	b.filled = b.filled[:0]
	n := uint64(len(uniqC))
	clear(b.pendO)
	clear(dups)
	b.pendC = b.pendC[:0]
	b.pendO = b.pendO[:0]
	b.dups = dups[:0]
	return n
}

// dedupHash mixes a content for the dedup index, folding each product's
// high bits into the low ones the index's mask keeps.
func dedupHash(c *word.Content) (h uint64) {
	for i := range c.N {
		h = (h ^ c.W[i] ^ uint64(c.T[i])<<56) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}
