package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/store"
	"repro/internal/word"
)

// LLC-transparency golden test. The LLC's host representation is not part
// of the model: for one op sequence every PLID and content the machine
// returns and every counter it charges (store and cache) are a function of
// the simulated protocol only. The constants below were recorded on the
// commit before the flat, arity-sized set records landed (per-way slices
// and a global recency tick) by running this same script; a host-layout
// change that moves any of them has changed the model, not just its cost.

// llcTrace folds everything the script observes into one FNV-1a digest.
type llcTrace struct{ h uint64 }

func (g *llcTrace) add(kind byte, vals ...uint64) {
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

func (g *llcTrace) content(kind byte, c word.Content) {
	g.add(kind, uint64(c.N))
	for i := 0; i < int(c.N); i++ {
		g.add(kind, c.W[i], uint64(c.T[i]))
	}
}

func (g *llcTrace) stats(st Stats) {
	for _, b := range []byte(fmt.Sprintf("%+v", st)) {
		g.add('S', uint64(b))
	}
}

type llcGolden struct {
	digest uint64 // every PLID, content and stats snapshot, in order
	peak   uint64 // most live lines at any point
	stats  Stats  // after the final release and flush
}

// runLLCGolden drives one seeded mix of the machine's LLC paths against a
// 64-set x 4-way cache over a 64-bucket store, small enough that sets
// evict dirty data and RC lines, buckets spill to overflow, and batch
// reads alias pending fills.
func runLLCGolden(t *testing.T, lineBytes int) llcGolden {
	t.Helper()
	m := NewMachine(Config{LineBytes: lineBytes, BucketBits: 6, DataWays: 12, CacheLines: 256, CacheWays: 4})
	arity := m.LineWords()
	rng := rand.New(rand.NewSource(int64(7000 + lineBytes)))
	g := &llcTrace{h: 14695981039346656037}

	var res llcGolden
	var held []word.PLID
	external := make(map[word.PLID]uint64)
	byPLID := map[word.PLID]word.Content{word.Zero: word.NewContent(arity)}
	take := func(p word.PLID, c word.Content) {
		g.add('P', uint64(p))
		if p == word.Zero {
			return
		}
		held = append(held, p)
		external[p]++
		byPLID[p] = c
		if live := m.LiveLines(); live > res.peak {
			res.peak = live
		}
	}
	drop := func(i int) word.PLID {
		p := held[i]
		held[i] = held[len(held)-1]
		held = held[:len(held)-1]
		if external[p]--; external[p] == 0 {
			delete(external, p)
		}
		return p
	}
	randLeaf := func() word.Content {
		c := word.NewContent(arity)
		for i := 0; i < arity; i++ {
			c.W[i] = rng.Uint64()
		}
		return c
	}
	// content picks a fresh leaf, a held line's content (a dedup hit) or
	// the zero line.
	content := func() word.Content {
		switch r := rng.Intn(10); {
		case r < 4 || len(held) == 0:
			return randLeaf()
		case r < 9:
			return byPLID[held[rng.Intn(len(held))]]
		default:
			return word.NewContent(arity)
		}
	}
	plid := func() word.PLID {
		if len(held) == 0 || rng.Intn(16) == 0 {
			return word.Zero
		}
		return held[rng.Intn(len(held))]
	}
	check := func(op int) {
		if err := m.CheckConsistency(external); err != nil {
			t.Fatalf("%d B lines, op %d: %v", lineBytes, op, err)
		}
	}

	interior := uint64(0)
	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(20); {
		case r < 4:
			c := content()
			take(m.LookupLine(c), c)
		case r < 7:
			cs := make([]word.Content, 1+rng.Intn(40))
			for i := range cs {
				if i > 0 && rng.Intn(8) == 0 {
					cs[i] = cs[rng.Intn(i)] // in-batch duplicate
				} else {
					cs[i] = content()
				}
			}
			out := make([]word.PLID, len(cs))
			m.LookupLineBatchInto(cs, out)
			for i := range cs {
				take(out[i], cs[i])
			}
		case r < 10:
			p := plid()
			c := m.ReadLine(p)
			if c != byPLID[p] {
				t.Fatalf("%d B lines, op %d: ReadLine(%#x) returned foreign content", lineBytes, op, uint64(p))
			}
			g.content('R', c)
		case r < 13:
			ps := make([]word.PLID, 1+rng.Intn(64))
			for i := range ps {
				if i > 0 && rng.Intn(6) == 0 {
					ps[i] = ps[rng.Intn(i)]
				} else {
					ps[i] = plid()
				}
			}
			out := make([]word.Content, len(ps))
			m.ReadLineBatchInto(ps, out)
			for i := range ps {
				if out[i] != byPLID[ps[i]] {
					t.Fatalf("%d B lines, op %d: ReadLineBatchInto[%d] returned foreign content", lineBytes, op, i)
				}
				g.content('B', out[i])
			}
		case r < 15:
			if p := plid(); p != word.Zero {
				m.Retain(p)
				take(p, byPLID[p])
			}
		case r < 18:
			if len(held) > 0 {
				m.Release(drop(rng.Intn(len(held))))
			}
		case r < 19:
			// An interior line holds a reference on its child; dropping
			// the build reference leaves the parent the only owner, so
			// releasing it later frees a chain and invalidates each line.
			if len(held) == 0 {
				break
			}
			i := rng.Intn(len(held))
			parent := word.NewContent(arity)
			slot := rng.Intn(arity)
			parent.W[slot], parent.T[slot] = uint64(held[i]), word.TagPLID
			interior++
			parent.W[(slot+1)%arity] = interior
			p := m.LookupLine(parent)
			m.Release(drop(i))
			take(p, parent)
		default:
			m.FlushCache()
			g.stats(m.Stats())
		}
		if op%500 == 499 {
			check(op)
			g.stats(m.Stats())
		}
	}
	for len(held) > 0 {
		m.Release(drop(rng.Intn(len(held))))
	}
	m.FlushCache()
	if m.LiveLines() != 0 {
		t.Fatalf("%d B lines: %d lines leaked", lineBytes, m.LiveLines())
	}
	check(-1)
	res.digest = g.h
	res.stats = m.Stats()
	cs, ss := res.stats.Cache, res.stats.Store
	if cs.Hits == 0 || cs.DirtyEvts == 0 || ss.Overflows == 0 || ss.RCReads == 0 || ss.LookupHits == 0 {
		t.Fatalf("%d B lines: script missed a path: %+v", lineBytes, res.stats)
	}
	return res
}

func TestLLCTransparencyGolden(t *testing.T) {
	want := map[int]llcGolden{
		16: {digest: 0xb84f84755bf45242, peak: 0xd92, stats: Stats{
			Store: store.Stats{SigReads: 0x1ca9, SigWrites: 0xe00, DataReads: 0x1cad, LookupReads: 0xfba, DataWrites: 0xc8e,
				RCReads: 0xa18, RCWrites: 0x1247, DeallocOps: 0xe00, Lookups: 0x1ca9, LookupHits: 0xea9, Allocs: 0xe00,
				Frees: 0xe00, FalseSig: 0x111, Overflows: 0xacc},
			Cache:     cachesim.Stats{Hits: 0x5da8, Misses: 0x4499, Inserts: 0x414b, Evictions: 0x403f, DirtyEvts: 0x5df},
			LookupOps: 0x2732, ReadOps: 0x384d}},
		32: {digest: 0x44b5a3a0635ab004, peak: 0xd5e, stats: Stats{
			Store: store.Stats{SigReads: 0x1a9d, SigWrites: 0xddb, DataReads: 0x1de9, LookupReads: 0xd9c, DataWrites: 0xc89,
				RCReads: 0x980, RCWrites: 0x119c, DeallocOps: 0xddb, Lookups: 0x1a9d, LookupHits: 0xcc2, Allocs: 0xddb,
				Frees: 0xddb, FalseSig: 0xda, Overflows: 0xaab},
			Cache:     cachesim.Stats{Hits: 0x5e87, Misses: 0x4316, Inserts: 0x4062, Evictions: 0x3f4c, DirtyEvts: 0x55a},
			LookupOps: 0x2565, ReadOps: 0x3d07}},
		64: {digest: 0x66252a132cb2575e, peak: 0xe00, stats: Stats{
			Store: store.Stats{SigReads: 0x1b85, SigWrites: 0xe6a, DataReads: 0x1972, LookupReads: 0xe54, DataWrites: 0xcec,
				RCReads: 0x929, RCWrites: 0x1141, DeallocOps: 0xe6a, Lookups: 0x1b85, LookupHits: 0xd1b, Allocs: 0xe6a,
				Frees: 0xe6a, FalseSig: 0x139, Overflows: 0xb3d},
			Cache:     cachesim.Stats{Hits: 0x6182, Misses: 0x3f38, Inserts: 0x3c2c, Evictions: 0x3b17, DirtyEvts: 0x4d9},
			LookupOps: 0x27cb, ReadOps: 0x35cd}},
	}
	for _, lineBytes := range []int{16, 32, 64} {
		got := runLLCGolden(t, lineBytes)
		if got != want[lineBytes] {
			t.Errorf("%d B lines: model output moved\n got %#v\nwant %#v", lineBytes, got, want[lineBytes])
		}
	}
}
