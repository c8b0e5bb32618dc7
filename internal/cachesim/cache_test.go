package cachesim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/word"
)

func dataKey(id uint64) Key { return Key{Kind: KindData, ID: id} }

func TestProbeHitMiss(t *testing.T) {
	c := New(4, 2)
	if _, ok := c.Probe(0, dataKey(1), false); ok {
		t.Fatal("empty cache hit")
	}
	c.Insert(0, Entry{Key: dataKey(1)})
	if _, ok := c.Probe(0, dataKey(1), false); !ok {
		t.Fatal("inserted entry missed")
	}
	if st := c.StatsSnapshot(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1, 2)
	c.Insert(0, Entry{Key: dataKey(1)})
	c.Insert(0, Entry{Key: dataKey(2)})
	c.Probe(0, dataKey(1), false) // 1 becomes MRU; 2 is LRU
	victim, evicted := c.Insert(0, Entry{Key: dataKey(3)})
	if !evicted || victim.Key != dataKey(2) {
		t.Fatalf("victim = %+v, want key 2", victim)
	}
	if _, ok := c.Probe(0, dataKey(1), false); !ok {
		t.Fatal("MRU entry evicted")
	}
}

func TestInsertExistingReplaces(t *testing.T) {
	c := New(1, 2)
	c.Insert(0, Entry{Key: dataKey(1)})
	c.Insert(0, Entry{Key: dataKey(1), Dirty: true})
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	e, _ := c.Probe(0, dataKey(1), false)
	if !e.Dirty {
		t.Fatal("replacement lost dirty flag")
	}
}

func TestProbeContent(t *testing.T) {
	c := New(2, 4)
	cont := word.ContentFromBytes(2, []byte("find me by body"))
	c.Insert(1, Entry{Key: dataKey(42), Content: cont})
	e, ok := c.ProbeContent(1, cont)
	if !ok {
		t.Fatal("content probe missed")
	}
	if e.Key.ID != 42 {
		t.Fatalf("recovered PLID = %d, want 42", e.Key.ID)
	}
	// Content lookup must not match RC entries.
	c.Insert(1, Entry{Key: Key{Kind: KindRC, ID: 7}, Content: cont})
	if e, _ := c.ProbeContent(1, cont); e.Key.Kind != KindData {
		t.Fatal("content probe matched a non-data entry")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1, 4)
	c.Insert(0, Entry{Key: dataKey(1), Dirty: true})
	if !c.Invalidate(0, dataKey(1)) {
		t.Fatal("invalidate missed present entry")
	}
	if c.Invalidate(0, dataKey(1)) {
		t.Fatal("invalidate found absent entry")
	}
	if c.Len() != 0 {
		t.Fatal("entry still resident")
	}
}

func TestFlushDirty(t *testing.T) {
	c := New(2, 2)
	c.Insert(0, Entry{Key: dataKey(1), Dirty: true})
	c.Insert(1, Entry{Key: dataKey(2)})
	var flushed []uint64
	c.FlushDirty(func(k Key) { flushed = append(flushed, k.ID) })
	if len(flushed) != 1 || flushed[0] != 1 {
		t.Fatalf("flushed = %v, want [1]", flushed)
	}
	c.FlushDirty(func(k Key) { t.Fatalf("entry %d still dirty", k.ID) })
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{0, 2}, {3, 2}, {4, 0}} {
		func() {
			defer func() { recover() }()
			New(g[0], g[1])
			t.Errorf("geometry %v accepted", g)
		}()
	}
}

func TestHierarchyBasics(t *testing.T) {
	h := NewHierarchy(HierConfig{LineBytes: 16, L1Bytes: 256, L1Ways: 2, L2Bytes: 1024, L2Ways: 4})
	h.Load(0, 8)
	if h.Stats.DRAMReads != 1 {
		t.Fatalf("cold load DRAM reads = %d, want 1", h.Stats.DRAMReads)
	}
	h.Load(0, 8) // L1 hit
	if h.Stats.L1Hits != 1 {
		t.Fatalf("L1 hits = %d, want 1", h.Stats.L1Hits)
	}
	if h.Stats.DRAMReads != 1 {
		t.Fatalf("hit went to DRAM")
	}
}

func TestHierarchyLineSplit(t *testing.T) {
	h := NewHierarchy(HierConfig{LineBytes: 16, L1Bytes: 256, L1Ways: 2, L2Bytes: 1024, L2Ways: 4})
	h.Load(8, 16) // straddles two 16-byte lines
	if h.Stats.DRAMReads != 2 {
		t.Fatalf("straddling load DRAM reads = %d, want 2", h.Stats.DRAMReads)
	}
}

func TestHierarchyDirtyWriteback(t *testing.T) {
	h := NewHierarchy(HierConfig{LineBytes: 16, L1Bytes: 32, L1Ways: 1, L2Bytes: 64, L2Ways: 1})
	// L2 has 4 sets? 64/16/1 = 4 sets; L1 has 2 sets.
	h.Store(0, 8)
	// Evict line 0 from both levels by touching conflicting lines.
	h.Load(64, 8)  // same L2 set as 0 (4 sets * 16B = 64B period)
	h.Load(128, 8) // evicts again
	if h.Stats.DRAMWrites == 0 {
		t.Fatal("dirty line never written back to DRAM")
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewHierarchy(HierConfig{LineBytes: 16, L1Bytes: 256, L1Ways: 2, L2Bytes: 1024, L2Ways: 4})
	h.Store(0, 8)
	if h.Stats.DRAMWrites != 0 {
		t.Fatal("premature writeback")
	}
	h.Flush()
	if h.Stats.DRAMWrites != 1 {
		t.Fatalf("flush DRAM writes = %d, want 1", h.Stats.DRAMWrites)
	}
}

func TestHierarchyCopy(t *testing.T) {
	h := NewHierarchy(PaperHierConfig(16))
	h.Copy(1<<20, 0, 64)
	if h.Stats.Loads != 4 || h.Stats.Stores != 4 {
		t.Fatalf("copy ops = %d/%d, want 4/4", h.Stats.Loads, h.Stats.Stores)
	}
	if h.Stats.DRAMReads != 8 {
		t.Fatalf("cold copy DRAM reads = %d, want 8", h.Stats.DRAMReads)
	}
}

func TestPaperHierConfigGeometry(t *testing.T) {
	h := NewHierarchy(PaperHierConfig(16))
	if h.l1.Sets()*h.l1.Ways()*16 != 32<<10 {
		t.Fatalf("L1 capacity mismatch: %d sets x %d ways", h.l1.Sets(), h.l1.Ways())
	}
	if h.l2.Sets()*h.l2.Ways()*16 != 4<<20 {
		t.Fatalf("L2 capacity mismatch: %d sets x %d ways", h.l2.Sets(), h.l2.Ways())
	}
}

func TestWorkingSetFitsInL2(t *testing.T) {
	// A working set larger than L1 but smaller than L2 must, on a second
	// pass, hit in L2 and generate no new DRAM reads.
	h := NewHierarchy(HierConfig{LineBytes: 16, L1Bytes: 1 << 10, L1Ways: 4, L2Bytes: 64 << 10, L2Ways: 16})
	const n = 32 << 10
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < n; a += 16 {
			h.Load(a, 8)
		}
	}
	if h.Stats.DRAMReads != n/16 {
		t.Fatalf("DRAM reads = %d, want %d (second pass must hit L2)",
			h.Stats.DRAMReads, n/16)
	}
	if h.Stats.L2Hits == 0 {
		t.Fatal("no L2 hits recorded")
	}
}

// TestConcurrentSharedSets hammers two sets from several goroutines with
// every probe and insert path plus invalidation. Every probe counts one
// hit or one miss, no set ever holds more than its ways, and a hit always
// reads back the content its key was inserted with (a key's content is a
// pure function of its ID, so a torn or misplaced line shows up here).
func TestConcurrentSharedSets(t *testing.T) {
	const sets, ways, workers, rounds = 2, 4, 4, 3000
	c := New(sets, ways)
	probes := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var tl Tally
			var got word.Content
			for r := 0; r < rounds; r++ {
				id := uint64(rng.Intn(3 * sets * ways))
				set := int(id % sets)
				want := seqContent(id, 2)
				switch rng.Intn(7) {
				case 0:
					if c.ReadData(set, id, &got, &tl) && got != want {
						t.Errorf("ReadData(%d) = %v, want %v", id, got, want)
					}
					probes[w]++
				case 1:
					if k, ok := c.LookupData(set, &want, &tl); ok && k != id {
						t.Errorf("LookupData found key %d for the content of %d", k, id)
					}
					probes[w]++
				case 2:
					c.TouchRC(set, id, &tl)
					probes[w]++
				case 3:
					if e, ok := c.Probe(set, Key{Kind: KindData, ID: id}, rng.Intn(2) == 0); ok && e.Content != want {
						t.Errorf("Probe(%d) content = %v, want %v", id, e.Content, want)
					}
					probes[w]++
				case 4, 5:
					c.InsertData(set, id, &want, rng.Intn(2) == 0, &tl)
				default:
					c.Invalidate(set, Key{Kind: KindData, ID: id})
				}
				c.Publish(&tl)
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, p := range probes {
		total += p
	}
	if st := c.StatsSnapshot(); st.Hits+st.Misses != total {
		t.Fatalf("hits %d + misses %d != %d probes", st.Hits, st.Misses, total)
	}
	for s := range c.heads {
		if n := c.heads[s].n; n > ways {
			t.Fatalf("set %d holds %d lines in %d ways", s, n, ways)
		}
	}
}

// BenchmarkCachesimProbe is the package's layer benchmark: a hit/miss mix
// of read probes (a miss fills the line), content probes and RC touches
// over a 1024-set x 16-way LLC of 16-byte lines — hicampd's geometry —
// with a key domain twice the capacity.
func BenchmarkCachesimProbe(b *testing.B) {
	const sets, ways = 1024, 16
	c := New(sets, ways)
	rng := rand.New(rand.NewSource(1))
	type op struct {
		kind, set int
		id        uint64
		cont      word.Content
	}
	ops := make([]op, 1<<14)
	for i := range ops {
		id := uint64(rng.Intn(2 * sets * ways))
		ops[i] = op{kind: rng.Intn(3), set: int(id % sets), id: id, cont: seqContent(id, 2)}
	}
	var t Tally
	var got word.Content
	run := func(o *op) {
		switch o.kind {
		case 0:
			if !c.ReadData(o.set, o.id, &got, &t) {
				c.InsertData(o.set, o.id, &o.cont, false, &t)
			}
		case 1:
			if _, ok := c.LookupData(o.set, &o.cont, &t); !ok {
				c.InsertData(o.set, o.id, &o.cont, true, &t)
			}
		default:
			c.TouchRC(o.set, o.id, &t)
		}
		c.Publish(&t)
	}
	for i := range ops { // fill the sets and the lazily made content storage
		run(&ops[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(&ops[i&(len(ops)-1)])
	}
}
