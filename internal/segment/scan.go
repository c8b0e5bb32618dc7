package segment

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/word"
)

// Streaming scans. A full traversal through the serial iterator costs one
// root-to-leaf descent per element: NextNonZero re-walks the DAG for every
// index it returns, and even the path-caching iterator register loads the
// divergent suffix of the path per seek. The scanner here expands the DAG
// frontier in level-order waves instead, like the bulk materializer in
// read_bulk.go: every line a wave needs is collected, deduplicated, and
// fetched through one word.Mem.ReadLineBatchInto, so a line shared by
// many parents is read once per wave regardless of fan-in.
//
// Early-stop callbacks make an unbounded frontier wasteful: a consumer
// that stops after ten elements must not pay for materializing the whole
// segment. The scanner therefore expands a bounded lookahead window at a
// time — at most ~window logical words of frontier per chunk — so the
// over-fetch past a stop is capped by the window, not the segment size.

// ScanStats describes the fetch behaviour of one streaming scan.
type ScanStats struct {
	Chunks    uint64 // lookahead windows expanded
	Waves     uint64 // batched fetch rounds issued
	LineReads uint64 // lines fetched (each distinct line once per wave)
	Emitted   uint64 // callback invocations
}

// DefaultScanWindow is the lookahead bound of ScanWords/ScanBytes in
// logical words: one chunk of frontier covers at most this many words
// (window-sized runs of a dense segment, far more of a sparse one, since
// elided zero subtrees cost nothing to "cover").
const DefaultScanWindow = 4096

// ScanWords streams every non-zero tagged word of s at index >= from to
// fn in ascending index order — the same elements, in the same order, as
// a NextNonZero/ReadWord loop — expanding the frontier in level-order
// waves with per-wave PLID dedup. fn returning false stops the scan; the
// lookahead window bounds how far past the stop the scanner fetched.
func ScanWords(m word.Mem, s Seg, from uint64, fn func(idx uint64, w uint64, t word.Tag) bool) ScanStats {
	return ScanWordsWindow(m, s, from, DefaultScanWindow, fn)
}

// ScanWordsWindow is ScanWords with an explicit lookahead window in
// logical words (clamped below to two lines' worth).
func ScanWordsWindow(m word.Mem, s Seg, from uint64, window int, fn func(idx uint64, w uint64, t word.Tag) bool) ScanStats {
	sc := newScanner(m, from, window)
	defer sc.release()
	if s.Root != word.Zero && from < s.Capacity(sc.arity) {
		sc.pending = append(sc.pending, scanNode{e: PLIDEdge(s.Root), lvl: s.Height})
	}
	sc.run(fn)
	return sc.stats
}

// scanNode is one frontier entry: an edge, the level it sits at, and the
// first logical word index it covers. Once resolved to leaf content, c
// holds the materialized words and done is set.
type scanNode struct {
	e    Edge
	lvl  int
	base uint64
	c    word.Content
	done bool
}

// scanner drains a frontier of scanNodes in window-bounded chunks.
// Scanners are pooled: every member buffer grows to its scan's
// high-water mark once and is retained across borrows, so a
// steady-state scan allocates nothing. newScanner borrows one,
// release returns it.
type scanner struct {
	m        word.Mem
	arity    int
	from     uint64
	window   uint64
	pending  []scanNode     // unexpanded frontier, ascending disjoint bases
	chunk    []scanNode     // scratch for the chunk being expanded
	wave     [2][]scanNode  // ping-pong next-wave buffers for expand
	plids    []word.PLID    // current wave's deduplicated fetch set
	contents []word.Content // fetch results, parallel to plids
	at       map[word.PLID]int
	stats    ScanStats
}

// resetScanner restores a scanner to pooled-dormant state: slices keep
// their grown capacity, the dedup map keeps its buckets, and references
// into the caller's world (the Mem) are dropped.
func resetScanner(sc *scanner) {
	sc.m = nil
	sc.pending = sc.pending[:0]
	sc.chunk = sc.chunk[:0]
	sc.wave[0] = sc.wave[0][:0]
	sc.wave[1] = sc.wave[1][:0]
	sc.plids = sc.plids[:0]
	sc.contents = sc.contents[:0]
	sc.at = pool.ResetMap(sc.at, 0)
	sc.stats = ScanStats{}
}

var scannerPool = pool.NewItems[scanner]("segment.scanner", resetScanner)

func newScanner(m word.Mem, from uint64, window int) *scanner {
	arity := m.LineWords()
	if window < 2*arity {
		window = 2 * arity
	}
	sc := scannerPool.Get()
	sc.m = m
	sc.arity = arity
	sc.from = from
	sc.window = uint64(window)
	if sc.at == nil {
		sc.at = make(map[word.PLID]int)
	}
	return sc
}

func (sc *scanner) release() { scannerPool.Put(sc) }

// cover returns how many logical words a node at lvl spans.
func (sc *scanner) cover(lvl int) uint64 { return capacity(sc.arity, lvl) }

func (sc *scanner) run(fn func(idx uint64, w uint64, t word.Tag) bool) {
	for len(sc.pending) > 0 {
		chunk := sc.takeChunk()
		if len(chunk) == 0 {
			continue
		}
		sc.stats.Chunks++
		if !sc.expand(chunk, fn) {
			return
		}
	}
}

// takeChunk splits oversized head subtrees until the head fits the
// window, then takes as many pending nodes as the window covers (always
// at least one).
func (sc *scanner) takeChunk() []scanNode {
	for len(sc.pending) > 0 {
		nd := sc.pending[0]
		if nd.lvl == 0 || sc.cover(nd.lvl) <= sc.window {
			break
		}
		sc.splitHead()
	}
	budget := sc.window
	n := 0
	for n < len(sc.pending) {
		c := sc.cover(sc.pending[n].lvl)
		if n > 0 && c > budget {
			break
		}
		n++
		if c >= budget {
			break
		}
		budget -= c
	}
	sc.chunk = append(sc.chunk[:0], sc.pending[:n]...)
	sc.pending = sc.pending[:copy(sc.pending, sc.pending[n:])]
	return sc.chunk
}

// splitHead expands the frontier's first node one level in place. Splits
// read one line at a time — the same O(height) descent cost a serial seek
// pays once per chunk start, not per element.
func (sc *scanner) splitHead() {
	nd := sc.pending[0]
	switch {
	case nd.e.T == word.TagCompact:
		// Path compaction peels without a fetch; the off-spine siblings
		// are zero subtrees.
		var pbuf [word.MaxCompactPath]int
		p, path := word.DecodeCompactInto(nd.e.W, sc.arity, sc.m.PLIDBits(), pbuf[:])
		for _, step := range path {
			nd.base += uint64(step) * capacity(sc.arity, nd.lvl-1)
			nd.lvl--
		}
		nd.e = PLIDEdge(p)
		if nd.base+sc.cover(nd.lvl) <= sc.from {
			sc.pending = sc.pending[1:]
			return
		}
		sc.pending[0] = nd
	case nd.e.T == word.TagPLID:
		c := sc.m.ReadLine(word.PLID(nd.e.W))
		sc.stats.LineReads++
		sub := capacity(sc.arity, nd.lvl-1)
		var kids [word.MaxWords]scanNode
		nk := 0
		for i := 0; i < sc.arity; i++ {
			e := Edge{W: c.W[i], T: c.T[i]}
			base := nd.base + uint64(i)*sub
			if e.IsZero() || base+sub <= sc.from {
				continue
			}
			kids[nk] = scanNode{e: e, lvl: nd.lvl - 1, base: base}
			nk++
		}
		// Replace the head with its kids, staging through the chunk
		// buffer (dead between takeChunk calls) and swapping, so the
		// prepend reuses pooled capacity instead of allocating.
		staged := append(sc.chunk[:0], kids[:nk]...)
		staged = append(staged, sc.pending[1:]...)
		sc.pending, sc.chunk = staged, sc.pending[:0]
	default:
		// Zero or already-resolved heads cover nothing left to split.
		sc.pending = sc.pending[1:]
	}
}

// expand lowers every chunk node to materialized leaf content through
// per-wave batched reads, then emits the covered non-zero words in index
// order. Returns false when fn stopped the scan.
func (sc *scanner) expand(nodes []scanNode, fn func(idx uint64, w uint64, t word.Tag) bool) bool {
	flip := 0
	for {
		// Resolve everything that needs no memory access — zero subtrees,
		// compacted paths, inlined leaves — leaving only PLID nodes to
		// fetch. The filter writes over the visited prefix of nodes.
		alive := nodes[:0]
		for _, nd := range nodes {
			if nd.done {
				alive = append(alive, nd)
				continue
			}
			for nd.e.T == word.TagCompact {
				var pbuf [word.MaxCompactPath]int
				p, path := word.DecodeCompactInto(nd.e.W, sc.arity, sc.m.PLIDBits(), pbuf[:])
				for _, step := range path {
					nd.base += uint64(step) * capacity(sc.arity, nd.lvl-1)
					nd.lvl--
				}
				nd.e = PLIDEdge(p)
			}
			switch {
			case nd.e.IsZero():
				continue
			case nd.e.T == word.TagInline:
				if nd.lvl != 0 {
					panic("segment: inline edge above leaf level")
				}
				c := word.NewContent(sc.arity)
				word.UnpackInlineInto(nd.e.W, sc.arity, c.W[:sc.arity])
				nd.c, nd.done = c, true
			case nd.e.T != word.TagPLID:
				panic(fmt.Sprintf("segment: unexpected edge tag %v", nd.e.T))
			}
			if nd.base+sc.cover(nd.lvl) <= sc.from {
				continue
			}
			alive = append(alive, nd)
		}
		nodes = alive

		// The wave's fetch set: each distinct PLID exactly once.
		sc.plids = sc.plids[:0]
		clear(sc.at)
		for _, nd := range nodes {
			if nd.done {
				continue
			}
			p := word.PLID(nd.e.W)
			if _, ok := sc.at[p]; !ok {
				sc.at[p] = len(sc.plids)
				sc.plids = append(sc.plids, p)
			}
		}
		if len(sc.plids) == 0 {
			break
		}
		if cap(sc.contents) < len(sc.plids) {
			sc.contents = make([]word.Content, len(sc.plids))
		}
		contents := sc.contents[:len(sc.plids)]
		sc.m.ReadLineBatchInto(sc.plids, contents)
		sc.stats.Waves++
		sc.stats.LineReads += uint64(len(sc.plids))

		// Expand into the next wave: leaves keep their content, interior
		// nodes fan out in child order (which preserves ascending bases).
		// The two wave buffers ping-pong: the buffer a wave reads from is
		// dead once the next wave is built, so the wave after that reuses
		// it in place.
		next := sc.wave[flip][:0]
		for _, nd := range nodes {
			if nd.done {
				next = append(next, nd)
				continue
			}
			c := contents[sc.at[word.PLID(nd.e.W)]]
			if nd.lvl == 0 {
				nd.c, nd.done = c, true
				next = append(next, nd)
				continue
			}
			sub := capacity(sc.arity, nd.lvl-1)
			for i := 0; i < sc.arity; i++ {
				e := Edge{W: c.W[i], T: c.T[i]}
				if e.IsZero() {
					continue
				}
				base := nd.base + uint64(i)*sub
				if base+sub <= sc.from {
					continue
				}
				next = append(next, scanNode{e: e, lvl: nd.lvl - 1, base: base})
			}
		}
		sc.wave[flip] = next // retain growth for later waves and borrows
		flip ^= 1
		nodes = next
	}

	for _, nd := range nodes {
		for i := 0; i < sc.arity; i++ {
			w, t := nd.c.W[i], nd.c.T[i]
			if w == 0 && t == word.TagRaw {
				continue
			}
			idx := nd.base + uint64(i)
			if idx < sc.from {
				continue
			}
			sc.stats.Emitted++
			if !fn(idx, w, t) {
				return false
			}
		}
	}
	return true
}

// ScanBytes streams n bytes of s starting at byte offset off to fn in
// window-sized chunks, each materialized through the level-order bulk
// reader — the streaming counterpart of ReadBytesBulk for consumers that
// may stop early. fn receives the starting byte offset of each chunk.
// The chunk is borrowed pooled scratch, valid only for the duration of
// the callback (like bufio.Scanner's token): consumers that keep bytes
// past the callback must copy them. Emitted counts bytes delivered;
// line accounting is charged to the machine as usual.
func ScanBytes(m word.Mem, s Seg, off, n uint64, fn func(off uint64, chunk []byte) bool) ScanStats {
	var st ScanStats
	const windowBytes = DefaultScanWindow * 8
	var sc pool.Scratch
	defer sc.Release()
	// One chunk buffer and one word buffer serve every window: the word
	// span of a window is at most windowBytes/8 + 1 lines' worth of
	// straddle.
	bufAll := poolBytes.Get(&sc, windowBytes)
	wsAll := poolU64.Get(&sc, DefaultScanWindow+1)
	for n > 0 {
		take := n
		if take > windowBytes {
			take = windowBytes
		}
		w0 := off / 8
		ws := wsAll[:(off+take+7)/8-w0]
		ReadWordsBulkInto(m, s, w0, ws)
		buf := bufAll[:take]
		for i := uint64(0); i < take; i++ {
			b := off + i
			buf[i] = byte(ws[b/8-w0] >> (8 * (b % 8)))
		}
		st.Chunks++
		st.Emitted += take
		if !fn(off, buf) {
			break
		}
		off += take
		n -= take
	}
	return st
}
