package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/store"
	"repro/internal/word"
)

func leaf(m *Machine, s string) word.Content {
	return word.ContentFromBytes(m.LineWords(), []byte(s))
}

func TestMachineLookupDedup(t *testing.T) {
	m := NewMachine(TestConfig())
	c := leaf(m, "machine dedup")
	p1 := m.LookupLine(c)
	p2 := m.LookupLine(c)
	if p1 != p2 {
		t.Fatalf("PLIDs differ: %#x vs %#x", p1, p2)
	}
	if rc := m.RefCount(p1); rc != 2 {
		t.Fatalf("rc = %d, want 2", rc)
	}
}

func TestMachineZeroContent(t *testing.T) {
	m := NewMachine(TestConfig())
	if p := m.LookupLine(word.NewContent(m.LineWords())); p != word.Zero {
		t.Fatalf("zero content PLID = %#x", p)
	}
	if c := m.ReadLine(word.Zero); !c.IsZero() {
		t.Fatal("zero line read non-zero")
	}
	st := m.Stats()
	if st.Store.Total() != 0 {
		t.Fatal("zero-line ops touched DRAM")
	}
}

func TestCachedLookupAvoidsDRAM(t *testing.T) {
	m := NewMachine(TestConfig())
	c := leaf(m, "stay cached")
	m.LookupLine(c)
	before := m.Stats().Store
	p := m.LookupLine(c) // must hit in LLC by content
	after := m.Stats().Store
	if after.Lookups != before.Lookups {
		t.Fatal("cached lookup reached DRAM")
	}
	if after.SigReads != before.SigReads {
		t.Fatal("cached lookup read a signature line")
	}
	if m.RefCount(p) != 2 {
		t.Fatal("cached lookup did not bump the reference count")
	}
}

func TestCachedReadAvoidsDRAM(t *testing.T) {
	m := NewMachine(TestConfig())
	c := leaf(m, "read twice")
	p := m.LookupLine(c)
	m.ReadLine(p)
	before := m.Stats().Store.DataReads
	m.ReadLine(p)
	if got := m.Stats().Store.DataReads; got != before {
		t.Fatalf("cached read caused %d DRAM reads", got-before)
	}
}

// TestRetainIfContentChargesTheCheckRead: a content memo holds no
// reference on the PLID it revalidates, so the check reads the line
// (§3.1). With the line flushed from the LLC, a revalidation charges one
// DRAM data read more than a Retain — through the machine and through a
// scope, and when the line was freed (a stale revalidation) too.
func TestRetainIfContentChargesTheCheckRead(t *testing.T) {
	m := NewMachine(TestConfig())
	c := leaf(m, "remembered, not referenced")
	p := m.LookupLine(c)
	flush := func() {
		m.FlushCache()
		m.llc.Invalidate(m.dataSet(p), cachesim.Key{Kind: cachesim.KindData, ID: uint64(p)})
	}
	cost := func(op func()) store.Stats {
		flush()
		before := m.Stats().Store
		op()
		after := m.Stats().Store
		return store.Stats{DataReads: after.DataReads - before.DataReads, RCReads: after.RCReads - before.RCReads}
	}
	m.Retain(p) // the RC line is resident from here on
	retain := cost(func() { m.Retain(p) })
	want := store.Stats{DataReads: retain.DataReads + 1, RCReads: retain.RCReads}
	if got := cost(func() {
		if !m.RetainIfContent(p, c) {
			t.Fatal("revalidation of a live line failed")
		}
	}); got != want {
		t.Fatalf("machine revalidation charged %+v, want %+v", got, want)
	}
	sc := m.Scope()
	if got := cost(func() {
		if !sc.RetainIfContent(p, c) {
			t.Fatal("scoped revalidation of a live line failed")
		}
	}); got != want {
		t.Fatalf("scoped revalidation charged %+v, want %+v", got, want)
	}
	sc.Close()
	for rc := m.RefCount(p); rc > 0; rc-- {
		m.Release(p)
	}
	stale := store.Stats{DataReads: 1}
	if got := cost(func() {
		if m.RetainIfContent(p, c) {
			t.Fatal("revalidation of a freed line succeeded")
		}
	}); got != stale {
		t.Fatalf("stale revalidation charged %+v, want %+v", got, stale)
	}
}

func TestUncachedMachine(t *testing.T) {
	cfg := TestConfig()
	cfg.CacheLines = 0
	m := NewMachine(cfg)
	c := leaf(m, "no cache")
	p := m.LookupLine(c)
	if got := m.ReadLine(p); got != c {
		t.Fatal("read mismatch")
	}
	st := m.Stats()
	if st.Store.DataReads == 0 {
		t.Fatal("uncached read did not reach DRAM")
	}
}

func TestDeallocBeforeEvictionSkipsDRAMWrite(t *testing.T) {
	// §3.1/§3.3: a line created and freed while still cached must never
	// be written to DRAM.
	m := NewMachine(TestConfig())
	c := leaf(m, "ephemeral line")
	p := m.LookupLine(c)
	m.Release(p)
	m.FlushCache()
	if w := m.Stats().Store.DataWrites; w != 0 {
		t.Fatalf("ephemeral line written to DRAM %d times", w)
	}
	if m.LiveLines() != 0 {
		t.Fatal("line not freed")
	}
}

func TestEvictionWritesBackOnce(t *testing.T) {
	cfg := TestConfig()
	cfg.CacheLines = 8
	cfg.CacheWays = 2 // 4 sets: tiny, guarantees evictions
	m := NewMachine(cfg)
	var held []word.PLID
	for i := 0; i < 200; i++ {
		held = append(held, m.LookupLine(leaf(m, string(rune('a'+i%26))+string(rune('0'+i/26)))))
	}
	m.FlushCache()
	st := m.Stats().Store
	if st.DataWrites == 0 {
		t.Fatal("no writebacks despite tiny cache")
	}
	if st.DataWrites > st.Allocs {
		t.Fatalf("DataWrites %d > Allocs %d: immutable lines wrote back twice",
			st.DataWrites, st.Allocs)
	}
	_ = held
}

func TestRCTrafficAccounted(t *testing.T) {
	cfg := TestConfig()
	cfg.CacheLines = 8
	cfg.CacheWays = 2
	m := NewMachine(cfg)
	for i := 0; i < 100; i++ {
		m.LookupLine(leaf(m, string(rune('A'+i%26))+string(rune('0'+i/26))))
	}
	m.FlushCache()
	st := m.Stats().Store
	// Allocations initialize counts with no-fetch cache writes (§3.1), so
	// only writebacks appear so far.
	if st.RCWrites == 0 {
		t.Fatalf("RC writebacks not modeled: %+v", st)
	}
	if st.RCReads != 0 {
		t.Fatalf("allocation RC inits fetched from DRAM: reads=%d", st.RCReads)
	}
	// Re-looking up existing content increments counts whose RC lines
	// have been evicted: those are read-modify-write fills.
	for i := 0; i < 100; i++ {
		m.LookupLine(leaf(m, string(rune('A'+i%26))+string(rune('0'+i/26))))
	}
	if got := m.Stats().Store.RCReads; got == 0 {
		t.Fatal("dedup-hit RC increments never read the RC line")
	}
}

func TestReleaseInvalidatesCache(t *testing.T) {
	m := NewMachine(TestConfig())
	c := leaf(m, "free then realloc")
	p := m.LookupLine(c)
	m.Release(p)
	// Looking the content up again must allocate fresh (the store slot
	// is reused, but the stale cache entry must not resurrect the line).
	p2 := m.LookupLine(c)
	if m.RefCount(p2) != 1 {
		t.Fatalf("rc after realloc = %d, want 1", m.RefCount(p2))
	}
	if err := m.CheckConsistency(map[word.PLID]uint64{p2: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestMachineStatsSnapshot(t *testing.T) {
	m := NewMachine(TestConfig())
	m.LookupLine(leaf(m, "ops"))
	st := m.Stats()
	if st.LookupOps != 1 {
		t.Fatalf("LookupOps = %d", st.LookupOps)
	}
	m.ResetStats()
	if got := m.Stats(); got.LookupOps != 0 || got.Store.Total() != 0 {
		t.Fatal("ResetStats left residue")
	}
}

func TestConcurrentMachineAccess(t *testing.T) {
	m := NewMachine(TestConfig())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := leaf(m, "shared content") // same content from all goroutines
				p := m.LookupLine(c)
				m.ReadLine(p)
				m.Release(p)
			}
			_ = g
		}(g)
	}
	wg.Wait()
	if m.LiveLines() != 0 {
		t.Fatalf("live lines = %d after balanced retain/release", m.LiveLines())
	}
	if err := m.CheckConsistency(nil); err != nil {
		t.Fatal(err)
	}
}

func TestBadCacheGeometryPanics(t *testing.T) {
	cfg := TestConfig()
	cfg.CacheLines = 24 // 24/4 = 6 sets, not a power of two
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry accepted")
		}
	}()
	NewMachine(cfg)
}

func TestConfigValidate(t *testing.T) {
	good := TestConfig()
	for _, tc := range []struct {
		name string
		edit func(*Config)
		bad  bool
	}{
		{"test config", func(*Config) {}, false},
		{"uncached", func(c *Config) { c.CacheLines, c.CacheWays = 0, 0 }, false},
		{"default 64 B", func(c *Config) { *c = DefaultConfig(64) }, false},
		{"24 B lines", func(c *Config) { c.LineBytes = 24 }, true},
		{"zero line size", func(c *Config) { c.LineBytes = 0 }, true},
		{"3 bucket bits", func(c *Config) { c.BucketBits = 3 }, true},
		{"13 data ways", func(c *Config) { c.DataWays = 13 }, true},
		{"negative cache", func(c *Config) { c.CacheLines = -16 }, true},
		{"zero cache ways", func(c *Config) { c.CacheWays = 0 }, true},
		{"16 cache ways", func(c *Config) { c.CacheLines, c.CacheWays = 16*4, 16 }, false},
		{"17 cache ways", func(c *Config) { c.CacheLines, c.CacheWays = 17*4, 17 }, true},
		{"65 cache ways", func(c *Config) { c.CacheLines, c.CacheWays = 65*4, 65 }, true},
		{"400 sets", func(c *Config) { c.CacheLines, c.CacheWays = 6400, 16 }, true},
		{"fewer lines than ways", func(c *Config) { c.CacheLines = 2 }, true},
		{"more sets than buckets", func(c *Config) { c.CacheLines = 8 << c.BucketBits }, true},
	} {
		cfg := good
		tc.edit(&cfg)
		err := cfg.Validate()
		if (err != nil) != tc.bad {
			t.Errorf("%s: Validate() = %v, want error %v", tc.name, err, tc.bad)
			continue
		}
		if err == nil {
			continue
		}
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != err.Error() {
					t.Errorf("%s: NewMachine panicked with %v, want %v", tc.name, r, err)
				}
			}()
			NewMachine(cfg)
		}()
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	for _, ls := range []int{16, 32, 64} {
		cfg := DefaultConfig(ls)
		m := NewMachine(cfg)
		if m.LineWords() != ls/8 {
			t.Fatalf("line words = %d for %d-byte lines", m.LineWords(), ls)
		}
	}
}

// TestReleaseEvictingItsFreedLineChargesNoWrite pins the one case in
// which a dirty LLC data line is not a live line bound for DRAM. With a
// single-way LLC every access shares one set: a fresh line sits there
// dirty, and the unscoped Release that frees it touches its RC line before
// invalidating it, so that touch evicts the freed line dirty. The line
// never reached DRAM and must cost no write. Every other fresh line leaves
// the LLC dirty once — evicted by the next allocation's count
// initialization, or written by FlushCache — and is charged exactly once.
func TestReleaseEvictingItsFreedLineChargesNoWrite(t *testing.T) {
	cfg := TestConfig()
	cfg.CacheLines, cfg.CacheWays = 1, 1
	m := NewMachine(cfg)
	const lines = 20
	var kept []word.PLID
	for i := 0; i < lines; i++ {
		p := m.LookupLine(leaf(m, fmt.Sprintf("fresh %d", i)))
		if i%2 == 0 {
			kept = append(kept, p)
			continue
		}
		before := m.Stats()
		m.Release(p)
		after := m.Stats()
		if after.Cache.DirtyEvts != before.Cache.DirtyEvts+1 {
			t.Fatalf("line %d: the release's RC touch evicted %d dirty lines, want its own freed line",
				i, after.Cache.DirtyEvts-before.Cache.DirtyEvts)
		}
		if after.Store.DataWrites != before.Store.DataWrites {
			t.Fatalf("line %d: freed while dirty in the LLC, yet charged %d DRAM writes",
				i, after.Store.DataWrites-before.Store.DataWrites)
		}
	}
	last := m.LookupLine(leaf(m, "flushed"))
	kept = append(kept, last)
	m.FlushCache()
	m.FlushCache()
	for _, p := range kept {
		m.Release(p)
	}
	m.FlushCache()
	if got, want := m.Stats().Store.DataWrites, uint64(len(kept)); got != want {
		t.Fatalf("DataWrites = %d, want %d: one per fresh line that left the LLC dirty", got, want)
	}
	if m.LiveLines() != 0 {
		t.Fatalf("%d lines leaked", m.LiveLines())
	}
}
