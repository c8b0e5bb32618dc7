package store

import (
	"math/rand"
	"testing"

	"repro/internal/word"
)

// Layout-transparency golden test. The host representation of a bucket is
// not part of the model: for one op sequence every PLID handed out, every
// counter charged, every reference-count event fired, every journal record
// and the checkpoint walk order are a function of the simulated protocol
// only. The constants below were recorded on the commit before the
// row-shaped layout landed (the per-way `line` struct) by running this
// same script; a host-layout change that moves any of them has changed
// the model, not just its cost.

// goldenTrace folds everything the script observes into one FNV-1a digest.
type goldenTrace struct{ h uint64 }

func newGoldenTrace() *goldenTrace { return &goldenTrace{h: 14695981039346656037} }

func (g *goldenTrace) add(kind byte, vals ...uint64) {
	step := func(b byte) {
		g.h ^= uint64(b)
		g.h *= 1099511628211
	}
	step(kind)
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			step(byte(v >> (8 * i)))
		}
	}
}

func (g *goldenTrace) content(kind byte, c word.Content) {
	g.add(kind, uint64(c.N))
	for i := 0; i < int(c.N); i++ {
		g.add(kind, c.W[i], uint64(c.T[i]))
	}
}

// goldenJournal digests the liveness transitions the durable tier logs.
type goldenJournal struct{ g *goldenTrace }

func (j goldenJournal) JournalAlloc(p word.PLID, c word.Content) {
	j.g.add('A', uint64(p))
	j.g.content('A', c)
}
func (j goldenJournal) JournalFree(p word.PLID) { j.g.add('F', uint64(p)) }

type goldenResult struct {
	head     [8]word.PLID // the first PLIDs handed out, literally
	digest   uint64       // every PLID, flag, content, rc event and journal record, in order
	live     uint64       // LiveLines before the final release
	stats    Stats        // after the final release
	rowStats RowStats
}

// runGoldenScript drives one seeded op sequence against a 16-bucket store
// (small enough that buckets fill, alias signatures and spill).
func runGoldenScript(t *testing.T, lineBytes int) goldenResult {
	t.Helper()
	s := New(Config{LineBytes: lineBytes, BucketBits: 4, DataWays: 12})
	arity := s.LineWords()
	rng := rand.New(rand.NewSource(int64(1000 + lineBytes)))
	g := newGoldenTrace()
	s.OnRCTouch = func(p word.PLID, init bool) {
		v := uint64(0)
		if init {
			v = 1
		}
		g.add('E', uint64(p), v)
	}
	s.SetJournal(goldenJournal{g})

	var res goldenResult
	handed := 0
	external := make(map[word.PLID]uint64)
	var held []word.PLID
	byPLID := make(map[word.PLID]word.Content)
	note := func(p word.PLID, existed bool, c word.Content) {
		if handed < len(res.head) {
			res.head[handed] = p
		}
		handed++
		e := uint64(0)
		if existed {
			e = 1
		}
		g.add('L', uint64(p), e)
		external[p]++
		held = append(held, p)
		byPLID[p] = c
	}
	var freedOrder []word.PLID // every line freed, with the content it held
	freedContent := make(map[word.PLID]word.Content)
	lookup := func(c word.Content) word.PLID {
		p, existed := s.Lookup(c)
		note(p, existed, c)
		return p
	}
	release := func(i int) {
		p := held[i]
		held = append(held[:i], held[i+1:]...)
		external[p]--
		if external[p] == 0 {
			delete(external, p)
		}
		for _, f := range s.Release(p) {
			g.add('R', uint64(f.P), f.H)
			freedOrder = append(freedOrder, f.P)
			freedContent[f.P] = byPLID[f.P]
		}
	}
	randLeaf := func() word.Content {
		c := word.NewContent(arity)
		for i := 0; i < arity; i++ {
			c.W[i] = rng.Uint64()
		}
		return c
	}
	check := func(stage string) {
		if err := s.CheckConsistency(external); err != nil {
			t.Fatalf("%d B lines, %s: %v", lineBytes, stage, err)
		}
	}

	// 1. Fill, then dedup hits on a third of the lines.
	for i := 0; i < 150; i++ {
		lookup(randLeaf())
	}
	for i := 0; i < 50; i++ {
		lookup(byPLID[held[rng.Intn(150)]])
	}
	check("fill")

	// 2. Interior chains: each level holds the only reference to the one
	// below, alternately as a plain PLID word and a compacted-path word.
	for ch := 0; ch < 20; ch++ {
		p := lookup(randLeaf())
		for lvl := 0; lvl < 3; lvl++ {
			parent := word.NewContent(arity)
			slot := rng.Intn(arity)
			if lvl%2 == 0 {
				parent.W[slot], parent.T[slot] = uint64(p), word.TagPLID
			} else {
				w, ok := word.EncodeCompact(p, []int{rng.Intn(arity)}, arity, s.PLIDBits())
				if !ok {
					t.Fatal("compact word did not fit")
				}
				parent.W[slot], parent.T[slot] = w, word.TagCompact
			}
			parent.W[(slot+1)%arity] ^= uint64(ch)<<8 | uint64(lvl)
			np := lookup(parent)
			release(len(held) - 2) // the build reference on the child
			p = np
		}
	}
	check("chains")

	// 3. Spill: 16 buckets x 12 ways hold 192 lines; go well past that.
	for i := 0; i < 160; i++ {
		lookup(randLeaf())
	}
	if s.StatsSnapshot().Overflows < 40 {
		t.Fatalf("%d B lines: script spilled only %d lines", lineBytes, s.StatsSnapshot().Overflows)
	}
	check("spill")

	// 4. Release half of what is held: bucket ways, overflow slots, whole
	// chains.
	for i := 0; i < 200; i++ {
		release(rng.Intn(len(held)))
	}
	check("release")

	// 5. Fresh content lands in the first free way of each bucket and in
	// the most recently freed overflow slots.
	for i := 0; i < 120; i++ {
		lookup(randLeaf())
	}
	check("reuse")

	// 6. First eviction writes a line to DRAM exactly once.
	for i := 0; i < 80; i++ {
		s.Writeback(held[rng.Intn(len(held))])
	}

	// 7. A remembered PLID whose slot was recycled for other content.
	var stale word.PLID
	var cur word.Content
	for _, p := range freedOrder {
		if c, ok := s.Peek(p); ok && c != freedContent[p] && !s.isOverflow(p) {
			stale, cur = p, c
			break
		}
	}
	if stale == word.Zero {
		t.Fatalf("%d B lines: no recycled bucket slot to probe", lineBytes)
	}
	if s.RetainIfContent(stale, freedContent[stale]) {
		t.Fatalf("%d B lines: RetainIfContent matched a recycled slot's old content", lineBytes)
	}
	if !s.RetainIfContent(stale, cur) {
		t.Fatalf("%d B lines: RetainIfContent rejected the live content", lineBytes)
	}
	external[stale]++
	held = append(held, stale)

	// 8. Batch lookup: resident, fresh and in-batch duplicate contents.
	cs := make([]word.Content, 0, 96)
	for i := 0; i < 96; i++ {
		switch {
		case i%3 == 0:
			cs = append(cs, byPLID[held[rng.Intn(len(held))]])
		case i%8 == 7:
			cs = append(cs, cs[rng.Intn(len(cs))])
		default:
			cs = append(cs, randLeaf())
		}
	}
	plids := make([]word.PLID, len(cs))
	existed := make([]bool, len(cs))
	s.LookupBatchInto(cs, plids, existed)
	for i := range cs {
		note(plids[i], existed[i], cs[i])
	}
	check("batch lookup")

	// 9. Batch read with duplicates and zero PLIDs, then serial reads.
	ps := make([]word.PLID, 300)
	for i := range ps {
		if i%17 == 0 {
			continue
		}
		ps[i] = held[rng.Intn(len(held))]
	}
	out := make([]word.Content, len(ps))
	s.ReadBatchInto(ps, out)
	for i := range out {
		if ps[i] != word.Zero && out[i] != byPLID[ps[i]] {
			t.Fatalf("%d B lines: ReadBatchInto[%d] returned foreign content", lineBytes, i)
		}
		g.content('B', out[i])
	}
	for i := 0; i < 40; i++ {
		p := held[rng.Intn(len(held))]
		g.content('D', s.Read(p))
		g.add('C', s.RefCount(p))
	}

	// 10. The checkpoint walk: order, content and counts.
	s.ForEachLive(func(p word.PLID, c word.Content, rc uint64) bool {
		g.add('W', uint64(p), rc)
		g.content('W', c)
		return true
	})
	res.live = s.LiveLines()

	for len(held) > 0 {
		release(rng.Intn(len(held)))
	}
	if s.LiveLines() != 0 {
		t.Fatalf("%d B lines: %d lines leaked", lineBytes, s.LiveLines())
	}
	check("drain")
	res.digest = g.h
	res.stats = s.StatsSnapshot()
	res.rowStats = s.RowStats()
	if res.stats.FalseSig == 0 || res.stats.LookupHits == 0 {
		t.Fatalf("%d B lines: script exercised no signature alias or no dedup hit: %+v", lineBytes, res.stats)
	}
	return res
}

func TestLayoutTransparencyGolden(t *testing.T) {
	want := map[int]goldenResult{
		16: {
			head:   [8]word.PLID{0x28, 0x24, 0x20, 0x2f, 0x2c, 0x27, 0x38, 0x23},
			digest: 0xcf60a223e00058, live: 0x173,
			stats: Stats{SigReads: 0x290, SigWrites: 0x236, DataReads: 0x142, LookupReads: 0x7a, DataWrites: 0x42,
				DeallocOps: 0x236, Lookups: 0x290, LookupHits: 0x5a, Allocs: 0x236, Frees: 0x236, FalseSig: 0x20, Overflows: 0x115},
			rowStats: RowStats{Activations: 0x237, RowHits: 0x378},
		},
		32: {
			head:   [8]word.PLID{0x29, 0x21, 0x26, 0x39, 0x36, 0x49, 0x46, 0x23},
			digest: 0x70e44bd42c446ebf, live: 0x173,
			stats: Stats{SigReads: 0x290, SigWrites: 0x236, DataReads: 0x142, LookupReads: 0x71, DataWrites: 0x48,
				DeallocOps: 0x236, Lookups: 0x290, LookupHits: 0x5a, Allocs: 0x236, Frees: 0x236, FalseSig: 0x17, Overflows: 0x113},
			rowStats: RowStats{Activations: 0x254, RowHits: 0x35a},
		},
		64: {
			head:   [8]word.PLID{0x28, 0x2e, 0x27, 0x25, 0x37, 0x2d, 0x22, 0x3e},
			digest: 0x7d3399646ee8fe3c, live: 0x17a,
			stats: Stats{SigReads: 0x290, SigWrites: 0x236, DataReads: 0x142, LookupReads: 0x77, DataWrites: 0x44,
				DeallocOps: 0x236, Lookups: 0x290, LookupHits: 0x5a, Allocs: 0x236, Frees: 0x236, FalseSig: 0x1d, Overflows: 0x128},
			rowStats: RowStats{Activations: 0x23e, RowHits: 0x35d},
		},
	}
	for _, lineBytes := range []int{16, 32, 64} {
		got := runGoldenScript(t, lineBytes)
		if got != want[lineBytes] {
			t.Errorf("%d B lines: model output moved\n got %#v\nwant %#v", lineBytes, got, want[lineBytes])
		}
	}
}
