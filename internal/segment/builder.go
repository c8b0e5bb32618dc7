package segment

import (
	"repro/internal/pool"
	"repro/internal/word"
)

// Builder is the bulk segment-construction pipeline: a content memo in
// front of CanonBatch. Each build borrows one pooled CanonBatch and
// canonicalizes a whole DAG level per Resolve — one batched
// lookup-by-content per level, within-level duplicates deduplicated —
// instead of one lookup per line. The Builder adds what a one-shot batch
// cannot: a content-keyed table remembering the PLID of every line it has
// canonicalized, consulted by Resolve before the batch lookup. Repeated
// sub-DAGs across builds — zero-padded tails, shared corpus fragments,
// repeated values — revalidate with one RetainIfContent (a single
// reference-count touch, the exact cost of an LLC content hit) and no
// lookup traffic at all. Memo entries hold NO references: a stale entry —
// the line was freed since it was remembered — fails revalidation and
// falls back to the authoritative lookup, so a memoized PLID can never
// dangle and the memo never pins memory.
//
// A Builder is NOT safe for concurrent use — like an iterator register it
// belongs to one goroutine; spawn one Builder per goroutine (they may
// share one memory system). Accounting semantics: a memo miss charges
// exactly what the equivalent LookupLine would (same Stats.Total()); a
// memo hit charges only the reference-count touch of its revalidation,
// never a phantom lookup. Every build runs one serialized schedule, so
// its accounting does not depend on GOMAXPROCS.
type Builder struct {
	m       word.Mem
	memoCap int
	memo    map[word.Content]word.PLID // no references held; revalidated on hit
	stats   BuilderStats
}

// BuilderStats describes one Builder's memo behaviour.
type BuilderStats struct {
	MemoLookups uint64 // memo consultations (one per pending content)
	MemoHits    uint64 // consultations that revalidated successfully
	MemoInserts uint64 // entries recorded
}

// defaultMemoCap bounds the memo table: 1<<17 entries is a few MB of
// table, far above any one build level and comfortably holding a
// bulk-load working set. (Entries hold no references, so the cap bounds
// only the table itself, not line memory.) A full memo keeps serving hits
// and stops learning.
const defaultMemoCap = 1 << 17

// NewBuilder creates a bulk builder over m. The workers argument is
// ignored: builds are serial, so their DRAM accounting is a function of
// the input alone. It survives only because the bench module calls
// NewBuilder(m, 1); a benchmark-only change that updates those callers
// drops it. Call Close when done.
func NewBuilder(m word.Mem, workers int) *Builder {
	return &Builder{m: m, memoCap: defaultMemoCap}
}

// Close drops the memo table. Memo entries hold no references, so nothing
// is released — built segments own their DAGs and everything else was
// already reclaimed. The Builder is reusable afterwards (with an empty
// memo).
func (b *Builder) Close() { b.memo = nil }

// Stats returns the Builder's memo telemetry.
func (b *Builder) Stats() BuilderStats { return b.stats }

// batch borrows a pooled CanonBatch whose Resolve consults this Builder's
// memo. The caller must Close it before returning.
func (b *Builder) batch() *CanonBatch {
	cb := AcquireCanonBatch(b.m)
	cb.memo = b
	return cb
}

// BuildWords builds the canonical segment holding the given tagged words,
// level by level through the batch pipeline. Result and reference
// semantics are identical to the package-level BuildWords.
func (b *Builder) BuildWords(ws []uint64, ts []word.Tag) Seg {
	cb := b.batch()
	defer cb.Close()
	return buildLevels(cb, ws, ts)
}

// BuildBytes builds the canonical segment holding the byte string bs,
// packed little-endian, through the batch pipeline.
func (b *Builder) BuildBytes(bs []byte) Seg {
	return b.BuildWords(packWordsLE(bs), nil)
}

// CanonLeaves canonicalizes many raw-word leaf lines at once: ws is the
// flat concatenation of the leaves' words, arity per leaf (a short tail is
// zero-padded). Each returned edge owns one reference when it carries a
// PLID — the batch equivalent of one CanonLeaf call per leaf.
func (b *Builder) CanonLeaves(ws []uint64) []Edge {
	cb := b.batch()
	defer cb.Close()
	edges := make([]Edge, (len(ws)+cb.arity-1)/cb.arity)
	resolveLeaves(cb, ws, nil, edges)
	return edges
}

// CanonNodes canonicalizes many independent interior nodes at once:
// children is the flat concatenation of the nodes' child edges, arity per
// node (a short tail reads as zero subtrees). Ownership follows CanonNode:
// child edges are borrowed (release them after the call if you own them)
// and each returned edge owns one reference when it carries a PLID.
func (b *Builder) CanonNodes(children []Edge) []Edge {
	cb := b.batch()
	defer cb.Close()
	parents := make([]Edge, (len(children)+cb.arity-1)/cb.arity)
	resolveNodes(cb, children, parents)
	return parents
}

// recall consults the memo for c: a remembered line that still holds c
// is retained for the caller and returned; a stale entry is dropped.
// Before the first insert there is no table and nothing is consulted.
func (b *Builder) recall(c word.Content) (word.PLID, bool) {
	if b.memo == nil {
		return 0, false
	}
	b.stats.MemoLookups++
	p, ok := b.memo[c]
	if !ok {
		return 0, false
	}
	if b.m.RetainIfContent(p, c) {
		b.stats.MemoHits++
		return p, true
	}
	delete(b.memo, c) // the line was freed since it was remembered
	return 0, false
}

// memoAdd records c -> p without taking a reference; the entry is
// revalidated (RetainIfContent) before every reuse. Inserts stop once the
// table holds memoCap entries.
func (b *Builder) memoAdd(c word.Content, p word.PLID) {
	if len(b.memo) >= b.memoCap {
		return
	}
	if b.memo == nil {
		b.memo = make(map[word.Content]word.PLID)
	}
	b.memo[c] = p
	b.stats.MemoInserts++
}

// buildLevels builds the segment holding ws bottom-up through cb, one
// Resolve per level. Children are released only after their parents
// resolved: fresh parent lines take their own references on them during
// the batch lookup, which requires the builder's references to still be
// live.
func buildLevels(cb *CanonBatch, ws []uint64, ts []word.Tag) Seg {
	if len(ws) == 0 {
		return Seg{Root: word.Zero, Height: 0}
	}
	arity := cb.arity
	height := HeightFor(arity, uint64(len(ws)))
	// The per-level edge buffers are wave scratch: every slot is written
	// before it is read, and the only value that outlives the loop is the
	// materialized root.
	var sc pool.Scratch
	defer sc.Release()
	edges := poolEdges.Get(&sc, (len(ws)+arity-1)/arity)
	resolveLeaves(cb, ws, ts, edges)
	for level := 1; level <= height; level++ {
		next := poolEdges.Get(&sc, (len(edges)+arity-1)/arity)
		resolveNodes(cb, edges, next)
		releaseAll(cb.m, edges)
		edges = next
	}
	return Seg{Root: materializeRoot(cb.m, edges[0]), Height: height}
}

// resolveLeaves canonicalizes one leaf level: out[l] covers words
// ws[l*arity : (l+1)*arity], missing tail words reading as zero raw data.
// Nil tags treat every word as raw.
func resolveLeaves(cb *CanonBatch, ws []uint64, ts []word.Tag, out []Edge) {
	var kids [word.MaxWords]Edge
	for l := range out {
		for i := range kids[:cb.arity] {
			kids[i] = ZeroEdge
			if j := l*cb.arity + i; j < len(ws) {
				kids[i].W = ws[j]
				if ts != nil {
					kids[i].T = ts[j]
				}
			}
		}
		cb.Leaf(kids[:cb.arity], &out[l])
	}
	cb.Resolve()
}

// resolveNodes canonicalizes one interior level: out[p] covers child
// edges children[p*arity : (p+1)*arity], missing tail children reading as
// zero subtrees. Child edges are borrowed.
func resolveNodes(cb *CanonBatch, children, out []Edge) {
	var kids [word.MaxWords]Edge
	for p := range out {
		lo := p * cb.arity
		if hi := lo + cb.arity; hi <= len(children) {
			cb.Node(children[lo:hi], &out[p])
			continue
		}
		n := copy(kids[:cb.arity], children[lo:])
		clear(kids[n:cb.arity])
		cb.Node(kids[:cb.arity], &out[p])
	}
	cb.Resolve()
}
