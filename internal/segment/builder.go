package segment

import (
	"runtime"
	"sync"

	"repro/internal/pool"
	"repro/internal/word"
)

// Builder is the bulk segment-construction pipeline: it canonicalizes a
// whole DAG level at a time instead of one line at a time. Three
// mechanisms make it faster than the serial loop without changing the
// resulting roots (the canonical form is order-independent):
//
//   - Batch lookup: every line the level needs from the store is collected
//     and issued as one word.Mem.LookupLineBatchInto, so the store takes
//     each bucket stripe lock once per level and coalesces its DRAM
//     accounting, instead of one lock round trip per line.
//   - Memoization: a content-keyed table remembers the PLID of every line
//     this Builder has already canonicalized. Repeated sub-DAGs — zero-
//     padded tails, duplicated VM pages, shared corpus fragments, repeated
//     values — revalidate with one RetainIfContent (a single reference-
//     count touch, the exact cost of an LLC content hit) and no lookup
//     traffic at all. Memo entries hold NO references: a stale entry —
//     the line was freed since it was remembered — fails revalidation and
//     falls back to the authoritative lookup, so a memoized PLID can
//     never dangle and the memo never pins memory.
//   - Workers: leaf and interior levels are canonicalized in parallel
//     chunks by a bounded worker pool; large batches are likewise sharded
//     across the pool so independent stripe groups lock concurrently.
//
// A Builder is NOT safe for concurrent use — like an iterator register it
// belongs to one goroutine; spawn one Builder per goroutine (they may
// share one memory system). Accounting semantics: a memo miss charges
// exactly what the equivalent LookupLine would (same Stats.Total()); a
// memo hit charges only the reference-count touch of its revalidation,
// never a phantom lookup.
type Builder struct {
	m       word.Mem
	workers int
	memoCap int
	memo    map[word.Content]word.PLID // no references held; revalidated on hit
	stats   BuilderStats

	// Scratch reused across levels and builds (one goroutine, so no
	// synchronization; resized monotonically).
	scratchC []word.Content
	scratchP []bool
	uniqs    []word.Content
	uniqAt   []int32
	firstOf  map[uint64]int32
	dups     []builderDup
	plids    []word.PLID
}

// builderDup records one within-level duplicate: the edge slot it fills
// and the unique content (by position in uniqAt) it repeats.
type builderDup struct{ edge, uniq int32 }

// BuilderStats describes one Builder's memo behaviour.
type BuilderStats struct {
	MemoLookups uint64 // memo consultations (one per pending content)
	MemoHits    uint64 // consultations that revalidated successfully
	MemoInserts uint64 // entries recorded
}

const (
	// defaultMemoCap bounds the memo table: 1<<17 entries is a few MB of
	// table, far above any one build level and comfortably holding a
	// bulk-load working set. (Entries hold no references, so the cap
	// bounds only the table itself, not line memory.) A full memo keeps
	// serving hits and stops learning.
	defaultMemoCap = 1 << 17
	// maxDefaultWorkers caps the auto-sized pool; levels rarely have
	// enough independent work to feed more.
	maxDefaultWorkers = 8
	// minParallel is the level size below which chunking into goroutines
	// costs more than it saves.
	minParallel = 1024
	// minChunk is the smallest per-worker slice of a level.
	minChunk = 512
)

// NewBuilder creates a bulk builder over m. workers <= 0 sizes the pool
// automatically (GOMAXPROCS, capped). Call Close when done.
func NewBuilder(m word.Mem, workers int) *Builder {
	if workers <= 0 {
		// GOMAXPROCS bounds runnable goroutines, NumCPU bounds real
		// parallelism; oversubscribing physical cores only adds scheduling
		// churn to what is CPU-bound work.
		workers = runtime.GOMAXPROCS(0)
		if n := runtime.NumCPU(); workers > n {
			workers = n
		}
		if workers > maxDefaultWorkers {
			workers = maxDefaultWorkers
		}
	}
	return &Builder{m: m, workers: workers, memoCap: defaultMemoCap}
}

// Close drops the memo table and scratch buffers. Memo entries hold no
// references, so nothing is released — built segments own their DAGs and
// everything else was already reclaimed. The Builder is reusable
// afterwards (with an empty memo).
func (b *Builder) Close() {
	b.memo = nil
	b.scratchC, b.scratchP, b.uniqs, b.uniqAt, b.firstOf = nil, nil, nil, nil, nil
	b.dups, b.plids = nil, nil
}

// MemoSize returns the number of memoized lines (for tests and telemetry).
func (b *Builder) MemoSize() int { return len(b.memo) }

// Stats returns the Builder's memo telemetry.
func (b *Builder) Stats() BuilderStats { return b.stats }

// BuildWords builds the canonical segment holding the given tagged words,
// level by level through the batch pipeline. Result and reference
// semantics are identical to the package-level BuildWords.
func (b *Builder) BuildWords(ws []uint64, ts []word.Tag) Seg {
	arity := b.m.LineWords()
	n := uint64(len(ws))
	if n == 0 {
		return Seg{Root: word.Zero, Height: 0}
	}
	height := HeightFor(arity, n)
	leaves := (len(ws) + arity - 1) / arity
	// The per-level edge buffers are wave scratch: every slot is written
	// before it is read (leafLevel/nodeLevel assign all of [0, n)), and
	// the only value that outlives the loop is the materialized root.
	var sc pool.Scratch
	defer sc.Release()
	edges := poolEdges.Get(&sc, leaves)
	b.leafLevel(ws, ts, edges)
	for level := 1; level <= height; level++ {
		parents := (len(edges) + arity - 1) / arity
		next := poolEdges.Get(&sc, parents)
		b.nodeLevel(edges, next)
		// Children are released only now: fresh parent lines took their
		// own references on them during the batch lookup, which requires
		// the builder's references to still be live.
		releaseAll(b.m, edges)
		edges = next
	}
	return Seg{Root: materializeRoot(b.m, edges[0]), Height: height}
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
	arity := b.m.LineWords()
	edges := make([]Edge, (len(ws)+arity-1)/arity)
	b.leafLevel(ws, nil, edges)
	return edges
}

// CanonNodes canonicalizes many independent interior nodes at once:
// children is the flat concatenation of the nodes' child edges, arity per
// node (a short tail reads as zero subtrees). Ownership follows CanonNode:
// child edges are borrowed (release them after the call if you own them)
// and each returned edge owns one reference when it carries a PLID.
func (b *Builder) CanonNodes(children []Edge) []Edge {
	arity := b.m.LineWords()
	parents := make([]Edge, (len(children)+arity-1)/arity)
	b.nodeLevel(children, parents)
	return parents
}

// levelScratch hands out the per-level content/pending buffers, reused
// across levels and builds. Contents are written only where pending is
// set, and resolvePending reads only those slots, so stale content from
// a previous level is harmless; pending itself is cleared here.
func (b *Builder) levelScratch(n int) ([]word.Content, []bool) {
	if cap(b.scratchC) < n {
		b.scratchC = make([]word.Content, n)
		b.scratchP = make([]bool, n)
	}
	pending := b.scratchP[:n]
	clear(pending)
	return b.scratchC[:n], pending
}

// leafLevel canonicalizes the leaf level: edges[l] covers words
// ws[l*arity : (l+1)*arity] (missing tail words read as zero raw data).
func (b *Builder) leafLevel(ws []uint64, ts []word.Tag, edges []Edge) {
	contents, pending := b.levelScratch(len(edges))
	// The closure is created only on the parallel path: small levels call
	// the range worker directly, so a steady-state small build allocates
	// nothing (see the chunker/alloc pins).
	if b.workerCount(len(edges)) <= 1 {
		b.leafRange(ws, ts, edges, contents, pending, 0, len(edges))
	} else {
		b.parallel(len(edges), func(lo, hi int) {
			b.leafRange(ws, ts, edges, contents, pending, lo, hi)
		})
	}
	b.resolvePending(contents, pending, edges)
}

// leafRange canonicalizes leaves [lo, hi) — the body leafLevel runs
// inline or fans out across workers.
func (b *Builder) leafRange(ws []uint64, ts []word.Tag, edges []Edge, contents []word.Content, pending []bool, lo, hi int) {
	arity := b.m.LineWords()
	for l := lo; l < hi; l++ {
		base := l * arity
		c := word.NewContent(arity)
		allZero, allSmallRaw := true, true
		for i := 0; i < arity; i++ {
			var w uint64
			t := word.TagRaw
			if j := base + i; j < len(ws) {
				w = ws[j]
				if ts != nil {
					t = ts[j]
				}
			}
			c.W[i], c.T[i] = w, t
			if w != 0 || t != word.TagRaw {
				allZero = false
			}
			if t != word.TagRaw {
				allSmallRaw = false
			}
		}
		if allZero {
			edges[l] = ZeroEdge
			continue
		}
		if allSmallRaw {
			if iw, ok := word.PackInline(c.W[:arity], arity); ok {
				edges[l] = Edge{W: iw, T: word.TagInline}
				continue
			}
		}
		contents[l] = c
		pending[l] = true
	}
}

// nodeLevel canonicalizes one interior level: parents[p] covers child
// edges children[p*arity : (p+1)*arity] (missing tail children read as
// zero subtrees). Child edges are borrowed.
func (b *Builder) nodeLevel(children []Edge, parents []Edge) {
	contents, pending := b.levelScratch(len(parents))
	// Same closure discipline as leafLevel: allocate the capture only
	// when the level actually fans out.
	if b.workerCount(len(parents)) <= 1 {
		b.nodeRange(children, parents, contents, pending, 0, len(parents))
	} else {
		b.parallel(len(parents), func(lo, hi int) {
			b.nodeRange(children, parents, contents, pending, lo, hi)
		})
	}
	b.resolvePending(contents, pending, parents)
}

// nodeRange canonicalizes interior nodes [lo, hi) — the body nodeLevel
// runs inline or fans out across workers.
func (b *Builder) nodeRange(children []Edge, parents []Edge, contents []word.Content, pending []bool, lo, hi int) {
	arity := b.m.LineWords()
	plidBits := b.m.PLIDBits()
	for p := lo; p < hi; p++ {
		base := p * arity
		c := word.NewContent(arity)
		nz, idx := 0, -1
		for i := 0; i < arity; i++ {
			var e Edge
			if j := base + i; j < len(children) {
				e = children[j]
			}
			c.W[i], c.T[i] = e.W, e.T
			if !e.IsZero() {
				nz++
				idx = i
			}
		}
		if nz == 0 {
			parents[p] = ZeroEdge
			continue
		}
		if nz == 1 {
			// Path compaction, mirroring CanonNode exactly. The
			// Retain runs on a worker, which is safe: the memory
			// system is concurrency-safe and the child's reference
			// (held by the caller) keeps the target alive.
			child := children[base+idx]
			switch child.T {
			case word.TagPLID:
				if w, ok := word.EncodeCompact(word.PLID(child.W), []int{idx}, arity, plidBits); ok {
					b.m.Retain(word.PLID(child.W))
					parents[p] = Edge{W: w, T: word.TagCompact}
					continue
				}
			case word.TagCompact:
				// Prepend idx to the child's path on the stack: the
				// decode lands in sbuf[1:], leaving slot 0 free.
				var sbuf [word.MaxCompactPath + 1]int
				cp, path := word.DecodeCompactInto(child.W, arity, plidBits, sbuf[1:])
				sbuf[0] = idx
				if w, ok := word.EncodeCompact(cp, sbuf[:1+len(path)], arity, plidBits); ok {
					b.m.Retain(cp)
					parents[p] = Edge{W: w, T: word.TagCompact}
					continue
				}
			}
		}
		contents[p] = c
		pending[p] = true
	}
}

// resolvePending turns every pending content into an owned PLID edge:
// memo hits revalidate-and-retain the remembered line, the remainder is
// deduplicated within the level and looked up in one batch. Each use
// consumes its lookup's reference (duplicates retain their own); the
// memo records associations without taking references.
//
// Within-level dedupe keys on the content hash: a colliding pair of
// distinct contents simply is not deduplicated (the store dedups it with
// full accounting, exactly like the serial path), so collisions cost
// nothing but the lookup they would have cost anyway.
func (b *Builder) resolvePending(contents []word.Content, pending []bool, edges []Edge) {
	nPending := 0
	for i := range pending {
		if pending[i] {
			nPending++
		}
	}
	if nPending == 0 {
		return
	}
	uniqAt := b.uniqAt[:0] // edge index of each unique's first use
	dups := b.dups[:0]
	defer func() { b.dups = dups[:0] }()
	if b.firstOf == nil {
		b.firstOf = make(map[uint64]int32, nPending)
	} else {
		clear(b.firstOf)
	}
	firstOf := b.firstOf
	for i := range pending {
		if !pending[i] {
			continue
		}
		c := contents[i]
		if b.memo != nil {
			b.stats.MemoLookups++
			if p, ok := b.memo[c]; ok {
				if b.m.RetainIfContent(p, c) {
					b.stats.MemoHits++
					edges[i] = PLIDEdge(p)
					continue
				}
				// Stale: the line was freed since it was remembered.
				delete(b.memo, c)
			}
		}
		h := c.Hash()
		if j, ok := firstOf[h]; ok && contents[uniqAt[j]] == c {
			dups = append(dups, builderDup{int32(i), j})
			continue
		} else if !ok {
			firstOf[h] = int32(len(uniqAt))
		}
		uniqAt = append(uniqAt, int32(i))
	}
	b.uniqAt = uniqAt
	if len(uniqAt) == 0 {
		return // everything hit the memo, so no duplicates were recorded
	}
	if cap(b.uniqs) < len(uniqAt) {
		b.uniqs = make([]word.Content, len(uniqAt))
	}
	uniqs := b.uniqs[:len(uniqAt)]
	for j, i := range uniqAt {
		uniqs[j] = contents[i]
	}
	plids := b.lookupAll(uniqs)
	for j, i := range uniqAt {
		p := plids[j]
		b.memoAdd(uniqs[j], p)
		edges[i] = PLIDEdge(p) // consumes the lookup's reference
	}
	for _, d := range dups {
		p := word.PLID(edges[uniqAt[d.uniq]].W)
		b.m.Retain(p)
		edges[d.edge] = PLIDEdge(p)
	}
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

// lookupAll resolves the unique contents of one level, sharding large
// batches across the worker pool: shards hold disjoint contents, so their
// stripe groups lock independently.
func (b *Builder) lookupAll(cs []word.Content) []word.PLID {
	if cap(b.plids) < len(cs) {
		b.plids = make([]word.PLID, len(cs))
	}
	out := b.plids[:len(cs)]
	w := b.workerCount(len(cs))
	if w <= 1 {
		b.m.LookupLineBatchInto(cs, out)
		return out
	}
	chunk := (len(cs) + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < len(cs); lo += chunk {
		hi := min(lo+chunk, len(cs))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			b.m.LookupLineBatchInto(cs[lo:hi], out[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// parallel runs fn over [0, n) in contiguous chunks on the worker pool,
// inline when the level is too small to split.
func (b *Builder) parallel(n int, fn func(lo, hi int)) {
	w := b.workerCount(n)
	if w <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// workerCount sizes the pool for a level of n independent items.
func (b *Builder) workerCount(n int) int {
	if n < minParallel || b.workers <= 1 {
		return 1
	}
	w := b.workers
	if max := n / minChunk; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}
