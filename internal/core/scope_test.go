package core

import (
	"testing"

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
