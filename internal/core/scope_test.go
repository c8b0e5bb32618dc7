package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/pool"
	"repro/internal/word"
)

// scopeConfigs runs a scope test with no LLC (every RC-line access is a
// DRAM access, so the store counters show each one) and with one.
var scopeConfigs = []Config{
	{LineBytes: 16, BucketBits: 10, DataWays: 12},
	{LineBytes: 16, BucketBits: 10, DataWays: 12, CacheLines: 256, CacheWays: 4},
}

// Retains and releases that cancel inside a scope charge no RC-line
// access, while every count moves exactly as on the bare machine. The
// same operations issued unscoped charge one access each.
func TestScopeCancellingEventsChargeNothing(t *testing.T) {
	for _, cfg := range scopeConfigs {
		m := NewMachine(cfg)
		leaf := word.NewContent(2)
		leaf.W[0] = 7
		p := m.LookupLine(leaf)
		parent := word.NewContent(2)
		parent.W[1], parent.T[1] = uint64(p), word.TagPLID
		q := m.LookupLine(parent) // p's count is now 2
		handOffs := func(mem word.Mem) {
			for i := 0; i < 3; i++ {
				mem.Retain(p)
			}
			if got := m.RefCount(p); got != 5 {
				t.Fatalf("cache %d: count %d after three retains, want 5 (counts move immediately)", cfg.CacheLines, got)
			}
			for i := 0; i < 3; i++ {
				mem.Release(p)
			}
			if !mem.RetainIfContent(p, leaf) {
				t.Fatalf("cache %d: RetainIfContent of a live line failed", cfg.CacheLines)
			}
			mem.Release(p)
			if got := mem.LookupLine(parent); got != q {
				t.Fatalf("cache %d: lookup hit %#x, want %#x", cfg.CacheLines, got, q)
			}
			mem.Release(q)
		}

		before := m.Stats().Store
		sc := m.Scope()
		handOffs(sc)
		sc.Close()
		if after := m.Stats().Store; after.RCTraffic() != before.RCTraffic() {
			t.Errorf("cache %d: cancelling scope charged %d RC-line accesses, want 0",
				cfg.CacheLines, after.RCTraffic()-before.RCTraffic())
		}
		if got := m.RefCount(p); got != 2 {
			t.Errorf("cache %d: count %d after the scope, want 2", cfg.CacheLines, got)
		}
		if err := m.CheckConsistency(map[word.PLID]uint64{p: 1, q: 1}); err != nil {
			t.Errorf("cache %d: %v", cfg.CacheLines, err)
		}

		if cfg.CacheLines == 0 {
			before = m.Stats().Store
			handOffs(m)
			if after := m.Stats().Store; after.RCTraffic() == before.RCTraffic() {
				t.Errorf("unscoped hand-offs charged no RC traffic; the test cannot see netting")
			}
		}
	}
}

// A scope of count initializations only (fresh lines with no children)
// fetches no RC line: each touched row is charged once, as an init.
func TestScopeInitsChargeNoRCReads(t *testing.T) {
	for _, cfg := range scopeConfigs {
		m := NewMachine(cfg)
		sc := m.Scope()
		rows := make(map[uint64]bool)
		var held []word.PLID
		for i := uint64(0); i < 64; i++ {
			c := word.NewContent(2)
			c.W[0], c.W[1] = i+1, 1<<40
			p := sc.LookupLine(c)
			held = append(held, p)
			rows[m.rcRow(p)] = true
		}
		sc.Close()
		st := m.Stats().Store
		if st.RCReads != 0 {
			t.Errorf("cache %d: %d RC-line reads for a scope of inits", cfg.CacheLines, st.RCReads)
		}
		if cfg.CacheLines == 0 && st.RCWrites != uint64(len(rows)) {
			t.Errorf("%d RC-line writes for %d touched rows, want one per row", st.RCWrites, len(rows))
		}
		for _, p := range held {
			if got := m.RefCount(p); got != 1 {
				t.Fatalf("cache %d: fresh line %#x count %d, want 1", cfg.CacheLines, p, got)
			}
			m.Release(p)
		}
		if m.LiveLines() != 0 {
			t.Errorf("cache %d: %d lines leaked", cfg.CacheLines, m.LiveLines())
		}
	}
}

// refScope is the netting a scope performs, kept on Go maps: the
// reference the flat tables are checked against.
type refScope struct {
	at   map[word.PLID]int
	nets []rcNet
}

func (r *refScope) count(p word.PLID, init bool, dir int) {
	i, ok := r.at[p]
	if !ok {
		i = len(r.nets)
		r.at[p] = i
		r.nets = append(r.nets, rcNet{p: p, fresh: init})
	}
	if init {
		r.nets[i].init = true
	} else {
		r.nets[i].delta += dir
	}
}

func (r *refScope) charges(m *Machine) []rcCharge {
	rows := make(map[uint64]int)
	var due []rcCharge
	for _, n := range r.nets {
		if n.delta == 0 && !n.init {
			continue
		}
		row := m.rcRow(n.p)
		j, ok := rows[row]
		if !ok {
			j = len(due)
			rows[row] = j
			due = append(due, rcCharge{row: row, init: true})
		}
		due[j].init = due[j].init && n.fresh
	}
	return due
}

// Random retain/release/init streams, netted by pooled scopes and by the
// map-based reference, charge the same (row, init) sequence and leave
// twin machines with equal stats. Most streams run over a few hundred
// PLIDs packed into a few bucket and overflow rows; between them, one
// scope touches more PLIDs than a pooled scope keeps and others grow the
// tables past their first size, so each small scope after them runs on
// tables that a larger one used and reset.
func TestScopeNettingMatchesReference(t *testing.T) {
	cfg := scopeConfigs[1]
	got, want := NewMachine(cfg), NewMachine(cfg)
	ovBase := uint64(1) << (cfg.BucketBits + 4)
	var few []word.PLID
	for bkt := uint64(0); bkt < 8; bkt++ {
		for way := uint64(0); way < 12; way++ {
			few = append(few, word.PLID((way+2)<<cfg.BucketBits|bkt*37))
		}
	}
	for slot := uint64(0); slot < 200; slot++ {
		few = append(few, word.PLID(ovBase+slot))
	}
	rng := rand.New(rand.NewPCG(45, 1))
	sizes := []int{300, 5, 2 * pool.KeepIndexKeys, 40, 3000, 1, 600, 20}
	for round := 0; round < 6; round++ {
		for _, size := range sizes {
			plids := few
			if size > len(few) {
				plids = make([]word.PLID, size)
				for i := range plids {
					plids[i] = word.PLID(ovBase + 7*uint64(i))
				}
			}
			sc := got.Scope()
			ref := &refScope{at: make(map[word.PLID]int)}
			for e := 0; e < 3*size; e++ {
				p := plids[rng.IntN(len(plids))]
				switch k := rng.IntN(8); {
				case k == 0:
					sc.count(p, true, 1)
					ref.count(p, true, 1)
				case k < 4:
					sc.inc(p, false)
					ref.count(p, false, 1)
				default:
					sc.dec(p, false)
					ref.count(p, false, -1)
				}
			}
			if size == 2*pool.KeepIndexKeys && len(sc.nets) <= pool.KeepIndexKeys {
				t.Fatalf("the large scope netted %d PLIDs, not more than pool.KeepIndexKeys", len(sc.nets))
			}
			have, need := sc.charges(), ref.charges(want)
			if !slices.Equal(have, need) {
				t.Fatalf("round %d, scope of %d events: charged %d rows, reference %d (first difference at %d)",
					round, 3*size, len(have), len(need), firstDiff(have, need))
			}
			// Close charges every row through one tally; the reference
			// publishes each row's events on their own.
			var all cachesim.Tally
			for _, c := range have {
				got.touchRC(c.row, c.init, false, &all)
			}
			got.publish(&all)
			scopePool.Put(sc)
			for _, c := range need {
				var one cachesim.Tally
				want.touchRC(c.row, c.init, false, &one)
				want.publish(&one)
			}
			if g, w := got.Stats(), want.Stats(); g != w {
				t.Fatalf("round %d, scope of %d events: stats %+v, reference %+v", round, 3*size, g, w)
			}
		}
	}
}

func firstDiff(a, b []rcCharge) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
