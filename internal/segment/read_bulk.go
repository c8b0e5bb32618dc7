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

// bulkReq is one outstanding run of word requests within a subtree: the
// n words from idx on (idx relative to the subtree the enclosing node
// covers) land in the flat result slots from out on. An interior node
// splits a run at its child boundaries; a leaf resolves it with one copy.
type bulkReq struct {
	out, idx, n uint64
}

// clip returns the part of r that falls in [lo, lo+sub), re-based to lo,
// and whether there is one.
func (r bulkReq) clip(lo, sub uint64) (bulkReq, bool) {
	a, b := max(r.idx, lo), min(r.idx+r.n, lo+sub)
	if a >= b {
		return bulkReq{}, false
	}
	return bulkReq{out: r.out + a - r.idx, idx: a - lo, n: b - a}, true
}

// bulkNode is one wave entry: an edge, the level it sits at, and the
// runs that resolve inside it. Nodes within a wave may sit at different
// levels (path compaction peels several levels at once; mixed segment
// heights in GatherRanges start at different levels). at is the node's
// line in the wave's fetch list, once numbered.
type bulkNode struct {
	e       Edge
	lvl, at int32
	reqs    []bulkReq
}

// gather drains the wave worklist, writing resolved words into vals and
// (when non-nil) their tags into tags. Unresolved words — zero
// subtrees, off-spine compacted indexes — leave their slots as they
// were (callers pass them zeroed), which is exactly what the serial read
// returns for them. Each wave fetches its nodes' lines in node order,
// each distinct PLID once at its first appearance, and a node's children
// join the next wave in ascending order: how the words are grouped into
// runs changes neither the waves nor their fetch lists.
func gather(m word.Mem, nodes []bulkNode, vals []uint64, tags []word.Tag) {
	arity := m.LineWords()
	// Everything below is borrowed scratch. Runs are split, never
	// duplicated, and every run covers at least one result slot of its
	// own, so the word total bounds every wave's runs and nodes. Two run
	// arenas and two node buffers ping-pong between "current wave" and
	// "next wave" roles — wave k's buffers are dead once wave k+1 is
	// built, so wave k+2 reuses them.
	total := 0
	for _, nd := range nodes {
		for _, r := range nd.reqs {
			total += int(r.n)
		}
	}
	if total == 0 {
		return
	}
	var sc pool.Scratch
	defer sc.Release()
	at := pool.GetIndex(&sc)
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
					copy(vals[r.out:r.out+r.n], ws[r.idx:])
				}
			case nd.e.T == word.TagCompact:
				var pbuf [word.MaxCompactPath]int
				p, path := word.DecodeCompactInto(nd.e.W, arity, m.PLIDBits(), pbuf[:])
				lvl, rs := int(nd.lvl), nd.reqs
				for _, step := range path {
					sub := capacity(arity, lvl-1)
					kept := rs[:0]
					for _, r := range rs {
						// Off the compacted spine: reads as zero.
						if r, ok := r.clip(uint64(step)*sub, sub); ok {
							kept = append(kept, r)
						}
					}
					rs = kept
					lvl--
				}
				if len(rs) > 0 {
					fetch = append(fetch, bulkNode{e: PLIDEdge(p), lvl: int32(lvl), reqs: rs})
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
		at.Reset()
		for i := range fetch {
			j, seen := at.Number(fetch[i].e.W)
			if !seen {
				plids = append(plids, word.PLID(fetch[i].e.W))
			}
			fetch[i].at = int32(j)
		}
		contents := contentsBuf[:len(plids)]
		m.ReadLineBatchInto(plids, contents)
		// Expand into the next wave: leaf nodes copy their runs out,
		// interior nodes split their runs over their children.
		next := nodeBufs[flip][:0]
		arena := arenas[flip]
		arenaUsed := 0
		flip ^= 1
		for _, nd := range fetch {
			c := &contents[nd.at]
			if nd.lvl == 0 {
				for _, r := range nd.reqs {
					copy(vals[r.out:r.out+r.n], c.W[r.idx:])
					if tags != nil {
						copy(tags[r.out:r.out+r.n], c.T[r.idx:])
					}
				}
				continue
			}
			// Counting partition of the runs over the children: one
			// arena carve per node, sliced per child.
			sub := capacity(arity, int(nd.lvl)-1)
			var cnt [word.MaxWords + 1]int32
			for _, r := range nd.reqs {
				for ch := r.idx / sub; ch <= (r.idx+r.n-1)/sub; ch++ {
					cnt[ch+1]++
				}
			}
			for ch := 0; ch < arity; ch++ {
				cnt[ch+1] += cnt[ch]
			}
			buf := arena[arenaUsed : arenaUsed+int(cnt[arity])]
			arenaUsed += int(cnt[arity])
			pos := cnt
			for _, r := range nd.reqs {
				for ch := r.idx / sub; ch <= (r.idx+r.n-1)/sub; ch++ {
					buf[pos[ch]], _ = r.clip(ch*sub, sub)
					pos[ch]++
				}
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
// steady-state call allocates nothing. Consecutive indexes bound for
// consecutive slots travel as one run.
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
		if idx >= capRoot {
			continue
		}
		if k := len(reqs) - 1; k >= 0 && reqs[k].out+reqs[k].n == uint64(i) && reqs[k].idx+reqs[k].n == idx {
			reqs[k].n++
		} else {
			reqs = append(reqs, bulkReq{out: uint64(i), idx: idx, n: 1})
		}
	}
	gatherRoot(m, &sc, s, reqs, vals, tags)
}

// gatherRoot gathers reqs, runs within s, into vals and tags.
func gatherRoot(m word.Mem, sc *pool.Scratch, s Seg, reqs []bulkReq, vals []uint64, tags []word.Tag) {
	if len(reqs) > 0 {
		root := poolBulkNodes.Get(sc, 1)
		root[0] = bulkNode{e: PLIDEdge(s.Root), lvl: int32(s.Height), reqs: reqs}
		gather(m, root, vals, tags)
	}
}

// ReadWordsBulkInto reads len(vals) words starting at off into the
// caller's buffer, the bulk counterpart of ReadWords: one run down one
// wave walk reading each distinct line once, allocation-free. It backs
// ReadBytesBulk.
func ReadWordsBulkInto(m word.Mem, s Seg, off uint64, vals []uint64) {
	clear(vals)
	if s.Root == word.Zero {
		return
	}
	r, ok := bulkReq{idx: off, n: uint64(len(vals))}.clip(0, s.Capacity(m.LineWords()))
	if ok {
		var sc pool.Scratch
		defer sc.Release()
		reqs := poolReqs.Get(&sc, 1)
		reqs[0] = r
		gatherRoot(m, &sc, s, reqs, vals, nil)
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
// level-order walk, one run per range: lines shared *across* segments —
// deduplicated string fragments, common value pages — are fetched once
// per wave, not once per segment. vals holds the ranges' words back to
// back, range i's N words after those of ranges 0..i-1, so its length
// must be the ranges' total; indexes past a segment's capacity read as
// zero. All ranges must come from the same memory system m.
func GatherRanges(m word.Mem, rs []Range, vals []uint64) {
	total := uint64(0)
	for _, r := range rs {
		total += r.N
	}
	if uint64(len(vals)) != total {
		panic("segment: GatherRanges buffer length mismatch")
	}
	clear(vals)
	var sc pool.Scratch
	defer sc.Release()
	nodes := poolBulkNodes.GetCap(&sc, len(rs))
	reqs := poolReqs.Get(&sc, len(rs))
	arity := m.LineWords()
	base := uint64(0)
	for i, r := range rs {
		if r.Seg.Root != word.Zero {
			run, ok := bulkReq{out: base, idx: r.Off, n: r.N}.clip(0, r.Seg.Capacity(arity))
			if ok {
				reqs[i] = run
				nodes = append(nodes, bulkNode{e: PLIDEdge(r.Seg.Root), lvl: int32(r.Seg.Height), reqs: reqs[i : i+1]})
			}
		}
		base += r.N
	}
	gather(m, nodes, vals, nil)
}
