package store

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/word"
)

// heapAlloc returns the live heap after a full collection (two cycles:
// pooled victims and finalizable objects outlive the first).
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// counterLeaf returns distinct raw content per i, spread over every word.
func counterLeaf(arity int, i uint64) word.Content {
	c := word.NewContent(arity)
	for w := 0; w < arity; w++ {
		c.W[w] = (i + 1) * 0x9E3779B97F4A7C15 >> uint(w)
	}
	return c
}

// fillEveryBucket allocates lines until every bucket holds at least one
// and none holds more than perBucket (so nothing spills), returning the
// contents it placed and their PLIDs.
func fillEveryBucket(s *Store, perBucket uint8) ([]word.Content, []word.PLID) {
	n := s.bucketMask + 1
	count := make([]uint8, n)
	var cs []word.Content
	var ps []word.PLID
	for i, empty := uint64(0), n; empty > 0; i++ {
		c := counterLeaf(s.arity, i)
		b := s.BucketIndex(c)
		if count[b] == perBucket {
			continue
		}
		if count[b] == 0 {
			empty--
		}
		count[b]++
		p, _ := s.Lookup(c)
		cs, ps = append(cs, c), append(ps, p)
	}
	return cs, ps
}

// residentBytes returns the process's resident set from /proc/self/statm.
func residentBytes(t *testing.T) int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		t.Fatalf("statm %q: %v", b, err)
	}
	return resident * int64(os.Getpagesize())
}

// TestHostFootprintPerBucket bounds what the simulator spends to model a
// row, with every bucket populated. Where the table is on the heap, the
// live heap per bucket — directory included — stays within 1.5x the DRAM
// row it stands for (16 ways of LineBytes). Where it is reserved outside
// the heap, the heap holds the directory and the Store and nothing else.
func TestHostFootprintPerBucket(t *testing.T) {
	for _, lineBytes := range []int{16, 32, 64} {
		cfg := Config{LineBytes: lineBytes, BucketBits: 12, DataWays: 12}
		before := heapAlloc()
		s := New(cfg)
		fillEveryBucket(s, 1)
		grew := float64(heapAlloc() - before)
		perBucket := grew / float64(uint64(1)<<cfg.BucketBits)
		t.Logf("%d B lines: %.0f heap bytes per bucket for a %d B row", lineBytes, perBucket, 16*lineBytes)
		limit := 1.5 * 16 * float64(lineBytes) * float64(uint64(1)<<cfg.BucketBits)
		if s.table != nil {
			// 16 KB of slack covers size-class rounding, the bound unlock
			// method values and this test's own log lines; the table
			// itself would be 1.3 MB or more.
			limit = float64(len(s.groups)*int(unsafe.Sizeof(s.groups[0])) + int(unsafe.Sizeof(*s)) + 16<<10)
		}
		if grew > limit {
			t.Errorf("%d B lines: heap grew %.0f bytes, limit %.0f (row is %d B, table reserved: %v)",
				lineBytes, grew, limit, 16*lineBytes, s.table != nil)
		}
		if reserved, touched := s.TableBytes(); touched != reserved {
			t.Errorf("%d B lines: every bucket populated but %d of %d table bytes touched", lineBytes, touched, reserved)
		}
		runtime.KeepAlive(s)
	}
}

// TestBucketTableStaysLazy: a paper-scale table (2^20 buckets, ~350 MB if
// committed) costs its directory plus the groups actually touched — in
// heap where the table is on the heap, in resident set (pages the kernel
// actually faulted in) where it is reserved.
func TestBucketTableStaysLazy(t *testing.T) {
	beforeHeap := heapAlloc()
	beforeRSS := int64(0)
	s := New(Config{LineBytes: 16, BucketBits: 20, DataWays: 12})
	if s.table != nil {
		beforeRSS = residentBytes(t)
	}
	for i := uint64(0); i < 1000; i++ {
		s.Lookup(counterLeaf(2, i))
	}
	heapLimit := uint64(16 << 20)
	if s.table != nil {
		heapLimit = 8 << 20 // the directory alone
		if grew := residentBytes(t) - beforeRSS; grew > 16<<20 {
			t.Errorf("2^20-bucket store holding 1000 lines grew the resident set by %d MB", grew>>20)
		}
	}
	if grew := heapAlloc() - beforeHeap; grew > heapLimit {
		t.Errorf("2^20-bucket store holding 1000 lines committed %d MB of heap", grew>>20)
	}
	if reserved, touched := s.TableBytes(); touched > reserved/256 {
		t.Errorf("1000 lines touched %d of %d table bytes", touched, reserved)
	}
	runtime.KeepAlive(s)
}

// TestDroppedStoresReleaseTable: the suite and hicampbench create and
// drop hundreds of stores, so a reservation must go when its store does
// (a leak runs into vm.max_map_count long before memory).
func TestDroppedStoresReleaseTable(t *testing.T) {
	if New(Config{LineBytes: 16, BucketBits: 4, DataWays: 12}).table == nil {
		t.Skip("this build keeps the bucket table on the heap")
	}
	for i := uint64(0); i < 200; i++ {
		s := New(Config{LineBytes: 16, BucketBits: 18, DataWays: 12})
		s.OnRCTouch = func(word.PLID, bool) { s.LiveLines() } // the cycle core.Machine closes
		s.Lookup(counterLeaf(2, i))
	}
	// Finalizers run on their own goroutine some time after a collection.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		live := liveArenas.Load()
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d table reservations still live after every store was dropped", live)
		}
	}
}

// The package's layer benchmarks run against one fully populated store of
// hicampd's geometry (2^18 buckets, 16-byte lines), far larger than the
// host's caches.
var benchStore struct {
	once sync.Once
	s    *Store
	cs   []word.Content
	ps   []word.PLID
}

func populatedBenchStore() (*Store, []word.Content, []word.PLID) {
	benchStore.once.Do(func() {
		benchStore.s = New(Config{LineBytes: 16, BucketBits: 18, DataWays: 12})
		benchStore.cs, benchStore.ps = fillEveryBucket(benchStore.s, 4)
	})
	return benchStore.s, benchStore.cs, benchStore.ps
}

const benchBatch = 64

// BenchmarkStoreLookupBatch is the write-wave shape: each batch looks up
// 32 resident lines (dedup hits) and 32 fresh ones (allocations), then
// releases all 64, which frees the fresh lines again. ns/line covers a
// line's lookup and its release.
func BenchmarkStoreLookupBatch(b *testing.B) {
	s, resident, _ := populatedBenchStore()
	rng := rand.New(rand.NewSource(1))
	cs := make([]word.Content, benchBatch)
	plids := make([]word.PLID, benchBatch)
	existed := make([]bool, benchBatch)
	fresh := uint64(1) << 40
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cs {
			if j%2 == 0 {
				cs[j] = resident[rng.Intn(len(resident))]
			} else {
				fresh++
				cs[j] = counterLeaf(2, fresh)
			}
		}
		s.LookupBatchInto(cs, plids, existed)
		for _, p := range plids {
			s.Release(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/line")
}

// BenchmarkStoreReadBatch reads 64 random resident lines per batch.
func BenchmarkStoreReadBatch(b *testing.B) {
	s, _, resident := populatedBenchStore()
	rng := rand.New(rand.NewSource(2))
	ps := make([]word.PLID, benchBatch)
	out := make([]word.Content, benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ps {
			ps[j] = resident[rng.Intn(len(resident))]
		}
		s.ReadBatchInto(ps, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/line")
}
