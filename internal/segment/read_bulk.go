package segment

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/word"
)

// Level-order bulk reads. The serial read path (ReadWord, Children)
// resolves one index at a time, re-walking the DAG from the root and
// paying one machine ReadLine — one LLC probe, one potential stripe lock
// round trip — per line per visit. The materializer here walks the DAG
// breadth-first instead: all the lines one level ("wave") needs are
// collected first, deduplicated, and fetched through one
// word.Mem.ReadLineBatchInto, so every distinct line is read exactly
// once per wave however many requested indices (or sibling segments)
// share it. Content-uniqueness is what makes the dedup sound: two edges
// with equal words *are* the same line, so a single fetch serves every
// parent that references it — the same accesses a serial walk would have
// resolved as LLC content hits, minus the per-visit probe traffic.

// bulkReq is one outstanding word request within a subtree: out is the
// slot in the flat result arrays, idx the word index relative to the
// subtree the enclosing node covers.
type bulkReq struct {
	out uint64
	idx uint64
}

// bulkNode is one wave entry: an edge, the level it sits at, and the
// requests that resolve inside it. Nodes within a wave may sit at
// different levels (path compaction peels several levels at once; mixed
// segment heights in GatherRanges start at different levels).
type bulkNode struct {
	e    Edge
	lvl  int
	reqs []bulkReq
}

// gather drains the wave worklist, writing resolved words into vals and
// (when non-nil) their tags into tags. Unresolved requests — zero
// subtrees, off-spine compacted indexes — leave their slots at the zero
// value, which is exactly what the serial read returns for them.
func gather(m word.Mem, nodes []bulkNode, vals []uint64, tags []word.Tag) {
	arity := m.LineWords()
	// Everything below is borrowed scratch: requests are only ever
	// partitioned (never duplicated), so one wave's request total bounds
	// every later wave's. Two request arenas and two node buffers
	// ping-pong between "current wave" and "next wave" roles — wave k's
	// buffers are dead once wave k+1 is built, so wave k+2 reuses them.
	total := 0
	for _, nd := range nodes {
		total += len(nd.reqs)
	}
	if total == 0 {
		return
	}
	var sc pool.Scratch
	defer sc.Release()
	at := poolPlidAt.Get(&sc)
	plids := poolPLIDs.GetCap(&sc, total)
	contentsBuf := poolContents.Get(&sc, total)
	nodeBufs := [2][]bulkNode{poolBulkNodes.Get(&sc, total), poolBulkNodes.Get(&sc, total)}
	arenas := [2][]bulkReq{poolReqs.Get(&sc, total), poolReqs.Get(&sc, total)}
	flip := 0
	for len(nodes) > 0 {
		// Resolve every edge that needs no memory access — zero subtrees,
		// inlined leaves, compacted paths — leaving only PLID nodes to
		// fetch. The filter writes over the visited prefix of nodes.
		fetch := nodes[:0]
		for _, nd := range nodes {
			switch {
			case nd.e.IsZero():
				// All requests read as zero; the outputs already are.
			case nd.e.T == word.TagInline:
				if nd.lvl != 0 {
					panic("segment: inline edge above leaf level")
				}
				var ws [word.MaxWords]uint64
				word.UnpackInlineInto(nd.e.W, arity, ws[:arity])
				for _, r := range nd.reqs {
					vals[r.out] = ws[r.idx]
				}
			case nd.e.T == word.TagCompact:
				var pbuf [word.MaxCompactPath]int
				p, path := word.DecodeCompactInto(nd.e.W, arity, m.PLIDBits(), pbuf[:])
				lvl, rs := nd.lvl, nd.reqs
				for _, step := range path {
					sub := capacity(arity, lvl-1)
					kept := rs[:0]
					for _, r := range rs {
						if int(r.idx/sub) == step {
							r.idx %= sub
							kept = append(kept, r)
						}
						// Off the compacted spine: reads as zero.
					}
					rs = kept
					lvl--
				}
				if len(rs) > 0 {
					fetch = append(fetch, bulkNode{e: PLIDEdge(p), lvl: lvl, reqs: rs})
				}
			case nd.e.T == word.TagPLID:
				fetch = append(fetch, nd)
			default:
				panic(fmt.Sprintf("segment: unexpected edge tag %v", nd.e.T))
			}
		}
		if len(fetch) == 0 {
			return
		}
		// The wave's fetch set: each distinct PLID exactly once.
		plids = plids[:0]
		clear(at)
		for _, nd := range fetch {
			p := word.PLID(nd.e.W)
			if _, ok := at[p]; !ok {
				at[p] = len(plids)
				plids = append(plids, p)
			}
		}
		contents := contentsBuf[:len(plids)]
		m.ReadLineBatchInto(plids, contents)
		// Expand into the next wave: leaf nodes resolve their requests,
		// interior nodes partition requests over their children.
		next := nodeBufs[flip][:0]
		arena := arenas[flip]
		arenaUsed := 0
		flip ^= 1
		for _, nd := range fetch {
			c := contents[at[word.PLID(nd.e.W)]]
			if nd.lvl == 0 {
				for _, r := range nd.reqs {
					vals[r.out] = c.W[r.idx]
					if tags != nil {
						tags[r.out] = c.T[r.idx]
					}
				}
				continue
			}
			// Counting partition of the requests over the children: one
			// arena carve per node, sliced per child.
			sub := capacity(arity, nd.lvl-1)
			var cnt [word.MaxWords + 1]int32
			for _, r := range nd.reqs {
				cnt[r.idx/sub+1]++
			}
			for ch := 0; ch < arity; ch++ {
				cnt[ch+1] += cnt[ch]
			}
			buf := arena[arenaUsed : arenaUsed+len(nd.reqs)]
			arenaUsed += len(nd.reqs)
			pos := cnt
			for _, r := range nd.reqs {
				ch := r.idx / sub
				buf[pos[ch]] = bulkReq{out: r.out, idx: r.idx % sub}
				pos[ch]++
			}
			for ch := 0; ch < arity; ch++ {
				if cnt[ch] == cnt[ch+1] {
					continue
				}
				e := Edge{W: c.W[ch], T: c.T[ch]}
				if e.IsZero() {
					continue
				}
				next = append(next, bulkNode{e: e, lvl: nd.lvl - 1, reqs: buf[cnt[ch]:cnt[ch+1]]})
			}
		}
		nodes = next
	}
}

// GatherWords reads the tagged word at every index in idxs — positional
// results, out-of-capacity indexes reading as zero raw words, exactly
// like one ReadWord per index — through the level-order materializer:
// DAG levels shared between the requested indexes (the root path, shared
// interior nodes, deduplicated subtrees) are fetched once per wave
// instead of once per index.
func GatherWords(m word.Mem, s Seg, idxs []uint64) ([]uint64, []word.Tag) {
	vals := make([]uint64, len(idxs))
	tags := make([]word.Tag, len(idxs))
	GatherWordsInto(m, s, idxs, vals, tags)
	return vals, tags
}

// GatherWordsInto is GatherWords writing into caller-supplied result
// buffers of length len(idxs) (tags may be nil to skip tag capture) —
// the allocation-free gather: all wave scratch is pooled, so a
// steady-state call allocates nothing.
func GatherWordsInto(m word.Mem, s Seg, idxs []uint64, vals []uint64, tags []word.Tag) {
	if len(vals) != len(idxs) || (tags != nil && len(tags) != len(idxs)) {
		panic("segment: GatherWordsInto buffer length mismatch")
	}
	clear(vals)
	clear(tags)
	if s.Root == word.Zero || len(idxs) == 0 {
		return
	}
	capRoot := s.Capacity(m.LineWords())
	var sc pool.Scratch
	defer sc.Release()
	reqs := poolReqs.GetCap(&sc, len(idxs))
	for i, idx := range idxs {
		if idx < capRoot {
			reqs = append(reqs, bulkReq{out: uint64(i), idx: idx})
		}
	}
	if len(reqs) > 0 {
		root := poolBulkNodes.Get(&sc, 1)
		root[0] = bulkNode{e: PLIDEdge(s.Root), lvl: s.Height, reqs: reqs}
		gather(m, root, vals, tags)
	}
}

// ReadWordsBulkInto reads len(vals) words starting at off into the
// caller's buffer, the bulk counterpart of ReadWords: one wave walk
// reading each distinct line once, allocation-free. It backs
// ReadBytesBulk.
func ReadWordsBulkInto(m word.Mem, s Seg, off uint64, vals []uint64) {
	clear(vals)
	n := uint64(len(vals))
	if s.Root == word.Zero || n == 0 {
		return
	}
	capRoot := s.Capacity(m.LineWords())
	var sc pool.Scratch
	defer sc.Release()
	reqs := poolReqs.GetCap(&sc, int(n))
	for i := uint64(0); i < n; i++ {
		if off+i < capRoot {
			reqs = append(reqs, bulkReq{out: i, idx: off + i})
		}
	}
	if len(reqs) > 0 {
		root := poolBulkNodes.Get(&sc, 1)
		root[0] = bulkNode{e: PLIDEdge(s.Root), lvl: s.Height, reqs: reqs}
		gather(m, root, vals, nil)
	}
}

// ReadBytesBulk reads n bytes starting at byte offset off, the bulk
// counterpart of ReadBytes.
func ReadBytesBulk(m word.Mem, s Seg, off, n uint64) []byte {
	out := make([]byte, n)
	if n == 0 {
		return out
	}
	w0 := off / 8
	var sc pool.Scratch
	defer sc.Release()
	ws := poolU64.Get(&sc, int((off+n+7)/8-w0))
	ReadWordsBulkInto(m, s, w0, ws)
	for i := uint64(0); i < n; i++ {
		b := off + i
		out[i] = byte(ws[b/8-w0] >> (8 * (b % 8)))
	}
	return out
}

// Range is one word range of one segment for GatherRanges.
type Range struct {
	Seg Seg
	Off uint64 // first word
	N   uint64 // word count
}

// GatherRanges materializes word ranges from many segments in one
// level-order walk: lines shared *across* segments — deduplicated string
// fragments, common value pages — are fetched once per wave, not once
// per segment. Result i holds range i's words (indexes past the
// segment's capacity read as zero). All ranges must come from the same
// memory system m.
func GatherRanges(m word.Mem, rs []Range) [][]uint64 {
	total := uint64(0)
	for _, r := range rs {
		total += r.N
	}
	flat := make([]uint64, total)
	out := make([][]uint64, len(rs))
	var sc pool.Scratch
	defer sc.Release()
	nodes := poolBulkNodes.GetCap(&sc, len(rs))
	// One request arena carved per range instead of one allocation each.
	arena := poolReqs.Get(&sc, int(total))
	used := 0
	arity := m.LineWords()
	base := uint64(0)
	for i, r := range rs {
		out[i] = flat[base : base+r.N : base+r.N]
		if r.Seg.Root != word.Zero && r.N > 0 {
			capRoot := r.Seg.Capacity(arity)
			reqs := arena[used:used]
			for j := uint64(0); j < r.N; j++ {
				if r.Off+j < capRoot {
					reqs = append(reqs, bulkReq{out: base + j, idx: r.Off + j})
				}
			}
			used += len(reqs)
			if len(reqs) > 0 {
				nodes = append(nodes, bulkNode{e: PLIDEdge(r.Seg.Root), lvl: r.Seg.Height, reqs: reqs})
			}
		}
		base += r.N
	}
	if len(nodes) > 0 {
		gather(m, nodes, flat, nil)
	}
	return out
}
