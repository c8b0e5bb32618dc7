package cachesim

import (
	"math/rand"
	"testing"

	"repro/internal/word"
)

// Sequence golden test. Which entry a probe finds, which one an insert
// evicts, whether it was dirty and what it held are the replacement
// policy, not its host representation. The constants below were recorded
// on the commit before the flat, arity-sized set records landed (per-way
// slices and a global recency tick) by running this same script through
// the Entry-shaped API; a layout change that moves any of them has changed
// the policy.

// seqTrace folds everything the script observes into one FNV-1a digest.
type seqTrace struct{ h uint64 }

func (g *seqTrace) add(kind byte, vals ...uint64) {
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

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (g *seqTrace) entry(kind byte, e Entry, ok bool) {
	g.add(kind, b2u(ok), uint64(e.Key.Kind), e.Key.ID, b2u(e.Dirty), uint64(e.Content.N))
	for i := 0; i < int(e.Content.N); i++ {
		g.add(kind, e.Content.W[i], uint64(e.Content.T[i]))
	}
}

type seqGolden struct {
	digest uint64
	stats  Stats
}

// seqContent is the line a data key holds: a pure function of its ID, so
// content probes can name it.
func seqContent(id uint64, n int) word.Content {
	c := word.NewContent(n)
	for i := 0; i < n; i++ {
		c.W[i] = id*0x9E3779B97F4A7C15 + uint64(i)
		c.T[i] = word.Tag((id + uint64(i)) % 5)
	}
	return c
}

// runSeqGolden drives a seeded mix of probes, content probes, inserts and
// invalidations against an 8-set cache of the given associativity and
// line width. Keys come from a domain four times the capacity, mostly
// placed in their home set; RC keys sometimes carry content and sometimes
// none, as the Entry API allows.
func runSeqGolden(ways, n int) seqGolden {
	const sets = 8
	c := New(sets, ways)
	rng := rand.New(rand.NewSource(int64(500 + ways*10 + n)))
	g := &seqTrace{h: 14695981039346656037}
	domain := uint64(4 * sets * ways)
	pick := func() (int, Key) {
		k := Key{Kind: KindData, ID: rng.Uint64() % domain}
		if rng.Intn(10) < 3 {
			k.Kind = KindRC
		}
		set := int(k.ID % sets)
		if rng.Intn(10) == 0 {
			set = rng.Intn(sets)
		}
		return set, k
	}
	for op := 0; op < 4000; op++ {
		set, k := pick()
		switch r := rng.Intn(20); {
		case r < 7:
			e, ok := c.Probe(set, k, rng.Intn(4) == 0)
			g.entry('P', e, ok)
		case r < 10:
			e, ok := c.ProbeContent(set, seqContent(k.ID, n))
			g.entry('C', e, ok)
		case r < 18:
			e := Entry{Key: k, Dirty: rng.Intn(3) == 0}
			if k.Kind == KindData || rng.Intn(2) == 0 {
				e.Content = seqContent(k.ID, n)
			}
			v, ok := c.Insert(set, e)
			g.entry('I', v, ok)
		default:
			g.add('V', b2u(c.Invalidate(set, k)))
		}
		if op%250 == 0 {
			g.add('L', uint64(c.Len()))
		}
	}
	return seqGolden{digest: g.h, stats: c.StatsSnapshot()}
}

// runHierGolden replays a seeded load/store/copy trace with locality
// through a small two-level hierarchy and flushes it.
func runHierGolden() HierStats {
	h := NewHierarchy(HierConfig{LineBytes: 16, L1Bytes: 512, L1Ways: 2, L2Bytes: 4096, L2Ways: 4})
	rng := rand.New(rand.NewSource(77))
	base := uint64(0)
	for op := 0; op < 20000; op++ {
		if rng.Intn(50) == 0 {
			base = uint64(rng.Intn(1 << 16))
		}
		addr := base + uint64(rng.Intn(1024))
		switch r := rng.Intn(10); {
		case r < 6:
			h.Load(addr, 1+rng.Intn(24))
		case r < 9:
			h.Store(addr, 1+rng.Intn(24))
		default:
			h.Copy(uint64(rng.Intn(1<<16)), addr, 1+rng.Intn(128))
		}
	}
	h.Flush()
	return h.Stats
}

func TestSequenceGolden(t *testing.T) {
	want := map[int]seqGolden{
		1:  {digest: 0xc243cf035fdfa3e1, stats: Stats{Hits: 0xda, Misses: 0x6bf, Inserts: 0x5af, Evictions: 0x572, DirtyEvts: 0x1f3}},
		2:  {digest: 0xd127a054a095682e, stats: Stats{Hits: 0x107, Misses: 0x6e2, Inserts: 0x591, Evictions: 0x55c, DirtyEvts: 0x1f5}},
		4:  {digest: 0x9c59892ea7a9f894, stats: Stats{Hits: 0x111, Misses: 0x6ba, Inserts: 0x58a, Evictions: 0x537, DirtyEvts: 0x1cf}},
		16: {digest: 0xf2de5f89aac428ca, stats: Stats{Hits: 0x100, Misses: 0x665, Inserts: 0x5bd, Evictions: 0x508, DirtyEvts: 0x1aa}},
	}
	widths := map[int]int{1: 2, 2: 4, 4: 8, 16: 2}
	for _, ways := range []int{1, 2, 4, 16} {
		got := runSeqGolden(ways, widths[ways])
		if got != want[ways] {
			t.Errorf("%d ways: policy output moved\n got %#v\nwant %#v", ways, got, want[ways])
		}
		if got.stats.Evictions == 0 || got.stats.DirtyEvts == 0 || got.stats.Hits == 0 {
			t.Errorf("%d ways: script missed a path: %+v", ways, got.stats)
		}
	}
	wantHier := HierStats{Loads: 0x522c, Stores: 0x3b71, L1Hits: 0x6601, L1Misses: 0x9589,
		L2Hits: 0x32f7, L2Misses: 0x6292, DRAMReads: 0x6292, DRAMWrites: 0x424a}
	if got := runHierGolden(); got != wantHier {
		t.Errorf("hierarchy output moved\n got %#v\nwant %#v", got, wantHier)
	}
}
