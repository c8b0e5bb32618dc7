package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

func testCfg() core.Config {
	return core.Config{LineBytes: 16, BucketBits: 14, DataWays: 12, CacheLines: 4096, CacheWays: 16}
}

// get is a one-key Read.
func get(s *HicampServer, key []byte) ([]byte, bool) {
	b := Batch{}.Get(key)
	s.Read(b)
	return b[0].Value, b[0].Found
}

// Del appends a tombstone and returns the extended batch.
func (b Batch) Del(key []byte) Batch {
	return append(b, KV{Key: key, Delete: true})
}

// del is a one-key tombstone Write.
func del(s *HicampServer, key []byte) error { return s.Write(Batch{}.Del(key)) }

func TestHicampGetSetDelete(t *testing.T) {
	s := NewHicampServer(testCfg())
	if _, ok := get(s, []byte("missing")); ok {
		t.Fatal("empty store returned a value")
	}
	if err := s.Set([]byte("k1"), []byte("value number one")); err != nil {
		t.Fatal(err)
	}
	v, ok := get(s, []byte("k1"))
	if !ok || string(v) != "value number one" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	if err := del(s, []byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, []byte("k1")); ok {
		t.Fatal("deleted key still readable")
	}
}

func TestHicampOverwriteAndDedup(t *testing.T) {
	s := NewHicampServer(testCfg())
	s.Set([]byte("a"), []byte("shared value body stored once thanks to dedup"))
	linesAfterFirst := s.Heap.M.LiveLines()
	s.Set([]byte("b"), []byte("shared value body stored once thanks to dedup"))
	added := s.Heap.M.LiveLines() - linesAfterFirst
	// Second identical value: only key lines + map path lines are new.
	if added > linesAfterFirst/2 {
		t.Fatalf("identical value re-stored %d new lines (had %d)", added, linesAfterFirst)
	}
	va, _ := get(s, []byte("a"))
	vb, _ := get(s, []byte("b"))
	if !bytes.Equal(va, vb) {
		t.Fatal("values differ")
	}
}

func TestHicampConcurrentClients(t *testing.T) {
	// §5.1: client threads access the map directly; snapshot isolation
	// keeps readers interference-free while writers merge-update.
	s := NewHicampServer(testCfg())
	for i := 0; i < 20; i++ {
		s.Set([]byte(fmt.Sprintf("seed-%d", i)), []byte(fmt.Sprintf("seed value %d", i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reader, err := s.OpenReader()
			if err != nil {
				t.Error(err)
				return
			}
			defer reader.Close()
			for i := 0; i < 40; i++ {
				if g%2 == 0 {
					key := fmt.Sprintf("seed-%d", i%20)
					v, ok, err := s.GetVia(reader, []byte(key))
					if err != nil {
						t.Errorf("get %s: %v", key, err)
						return
					}
					if ok {
						if want := fmt.Sprintf("seed value %d", i%20); string(v) != want {
							t.Errorf("get %s = %q", key, v)
							return
						}
					}
				} else {
					if err := s.Set([]byte(fmt.Sprintf("w%d-%d", g, i)), []byte("new")); err != nil {
						t.Errorf("set: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Heap.M.CheckConsistency(nil); err == nil {
		// The map itself holds refs; CheckConsistency(nil) must fail.
		// (We only assert it does not panic; full balance is covered in
		// the hds tests.)
		t.Log("consistency check unexpectedly clean (map holds refs)")
	}
}

func TestConvServerTrafficShape(t *testing.T) {
	s := NewConvServer(16, 1024)
	for i := 0; i < 200; i++ {
		s.Set(fmt.Sprintf("key-%03d", i), 1000)
	}
	s.Space.Flush()
	base := s.Space.Stats()
	if base.DRAMWrites == 0 || base.DRAMReads == 0 {
		t.Fatalf("preload produced no DRAM traffic: %+v", base)
	}
	// A get of a cached-hot item should cost little extra DRAM.
	for i := 0; i < 50; i++ {
		if !s.Get("key-000") {
			t.Fatal("hot key missing")
		}
	}
	warm := s.Space.Stats()
	perGet := float64(warm.DRAMReads-base.DRAMReads) / 50
	// 1000-byte value at 16-byte lines is ~63 lines; the first get pulls
	// them, later gets hit cache. Average must be well under 2 passes.
	if perGet > 150 {
		t.Fatalf("hot get costs %.0f DRAM reads; caching broken", perGet)
	}
	if !s.Delete("key-000") {
		t.Fatal("delete failed")
	}
	if s.Get("key-000") {
		t.Fatal("deleted key still present")
	}
}

func TestConvSlabReuse(t *testing.T) {
	s := NewConvServer(16, 64)
	s.Set("a", 500)
	it := s.items["a"]
	s.Delete("a")
	s.Set("b", 500) // same size class: must reuse the freed slab chunk
	if s.items["b"].addr != it.addr {
		t.Fatalf("slab chunk not reused: %#x vs %#x", s.items["b"].addr, it.addr)
	}
}

func TestSizeClassLadder(t *testing.T) {
	if sizeClass(50) != 96 {
		t.Fatalf("sizeClass(50) = %d", sizeClass(50))
	}
	if c := sizeClass(97); c != 120 {
		t.Fatalf("sizeClass(97) = %d", c)
	}
	if sizeClass(96) != 96 {
		t.Fatal("exact class size must not round up")
	}
}

func TestRunFig6SmallShape(t *testing.T) {
	// Scaled-down Figure 6: the shape criterion is that HICAMP's total
	// off-chip accesses are comparable to or lower than conventional
	// (paper: "comparable or smaller"), with all five categories present.
	w := NewWorkload(150, 300, 1200, 77)
	res, err := RunFig6(16, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvTotal() == 0 || res.HicampTotal() == 0 {
		t.Fatalf("degenerate totals: %+v", res)
	}
	if res.HicampTotal() > 2*res.ConvTotal() {
		t.Fatalf("HICAMP %d vs conventional %d: more than 2x worse, shape broken",
			res.HicampTotal(), res.ConvTotal())
	}
	if res.HicRC == 0 {
		t.Fatalf("missing RC category: %+v", res)
	}
}

func TestHicampCategoriesUnderCachePressure(t *testing.T) {
	// With an LLC much smaller than the dataset, all five Figure 6
	// categories must be visible: demand reads, writebacks, lookup
	// traffic, de-allocations and RC traffic.
	w := NewWorkload(120, 240, 1500, 31)
	cfg := core.Config{LineBytes: 16, BucketBits: 16, DataWays: 12, CacheLines: 512, CacheWays: 8}
	st, srv, err := RunHicamp(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if st.DataReads == 0 {
		t.Fatal("no demand reads under cache pressure")
	}
	if st.DataWrites == 0 {
		t.Fatal("no writebacks under cache pressure")
	}
	if st.LookupTraffic() == 0 {
		t.Fatal("no lookup traffic")
	}
	if st.RCTraffic() == 0 {
		t.Fatal("no RC traffic")
	}
	if st.DeallocOps == 0 {
		t.Fatal("no de-allocations (map updates must free old paths)")
	}
	_ = srv
}

func TestCompactionRatioOrdering(t *testing.T) {
	// Table 1 shape: text compacts, scripts compact more per byte of
	// boilerplate, high-entropy binaries do not compact.
	html := datagen.HTMLCorpus("wiki", 40, 4096, 5)
	img := datagen.BinaryCorpus("img", 40, 3000, 6)
	rHTML := CompactionRatio(16, html)
	rImg := CompactionRatio(16, img)
	if rHTML < 1.3 {
		t.Fatalf("HTML compaction %.2f < 1.3", rHTML)
	}
	if rImg > 1.1 {
		t.Fatalf("image compaction %.2f > 1.1 (entropy should defeat dedup)", rImg)
	}
	// Smaller lines compact no worse than bigger lines on text.
	r64 := CompactionRatio(64, html)
	if rHTML < r64*0.9 {
		t.Fatalf("16B compaction %.2f should be >= 64B compaction %.2f", rHTML, r64)
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a := NewWorkload(20, 50, 512, 3)
	b := NewWorkload(20, 50, 512, 3)
	if !bytes.Equal(a.Corpus.Items[7], b.Corpus.Items[7]) {
		t.Fatal("corpus not deterministic")
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

// SetMaxNamespaces adjusts the tenant-map bound (0 restores the default).
// Call before serving traffic; already-created tenants are unaffected.
func (s *HicampServer) SetMaxNamespaces(n int) {
	s.ns.mu.Lock()
	s.ns.max = n
	s.ns.mu.Unlock()
}
