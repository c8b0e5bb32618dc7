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
// row, with every bucket holding one line. Every bucket is still small
// then: the table has carved exactly one small record per bucket, at most
// 0.4x what full-width records would cost. Where the table is on the
// heap, the live heap per bucket — directory included — stays within
// 1.5x the DRAM row it stands for (16 ways of LineBytes). Where it is
// reserved outside the heap, the heap holds the directory, the chunk
// headers and the Store and nothing else.
func TestHostFootprintPerBucket(t *testing.T) {
	for _, lineBytes := range []int{16, 32, 64} {
		cfg := Config{LineBytes: lineBytes, BucketBits: 12, DataWays: 12}
		buckets := uint64(1) << cfg.BucketBits
		before := heapAlloc()
		s := New(cfg)
		fillEveryBucket(s, 1)
		grew := float64(heapAlloc() - before)
		t.Logf("%d B lines: %.0f heap bytes per bucket for a %d B row", lineBytes, grew/float64(buckets), 16*lineBytes)
		limit := 1.5 * 16 * float64(lineBytes) * float64(buckets)
		if s.table != nil {
			// 16 KB of slack covers size-class rounding, the bound unlock
			// method values and this test's own log lines; the records
			// themselves would be 512 KB or more.
			limit = float64(len(s.dir)*int(unsafe.Sizeof(s.dir[0])) +
				len(s.chunks)*int(unsafe.Sizeof(s.chunks[0])) + int(unsafe.Sizeof(*s)) + 16<<10)
		}
		if grew > limit {
			t.Errorf("%d B lines: heap grew %.0f bytes, limit %.0f (row is %d B, table reserved: %v)",
				lineBytes, grew, limit, 16*lineBytes, s.table != nil)
		}
		ts := s.TableStats()
		smallBytes, fullBytes := uint64(s.geos[small].units())*64, uint64(s.geos[full].units())*64
		if ts.TouchedBytes != buckets*smallBytes || ts.FullBuckets != 0 {
			t.Errorf("%d B lines: one line per bucket touched %d bytes and grew %d buckets, want %d bytes and none",
				lineBytes, ts.TouchedBytes, ts.FullBuckets, buckets*smallBytes)
		}
		ratio := float64(ts.TouchedBytes) / float64(buckets*fullBytes)
		t.Logf("%d B lines: %d B small / %d B full records, touched %.2fx of full width", lineBytes, smallBytes, fullBytes, ratio)
		if ratio > 0.4 {
			t.Errorf("%d B lines: touched %.2fx of a full-width table, want <= 0.4x", lineBytes, ratio)
		}
		if ts.TouchedBytes > ts.ReservedBytes {
			t.Errorf("%d B lines: touched %d of %d reserved bytes", lineBytes, ts.TouchedBytes, ts.ReservedBytes)
		}
		runtime.KeepAlive(s)
	}
}

// TestGrowthRecyclesSmallRecord: a bucket's fifth line grows it to full
// width without moving a way, and the small record it vacated is the one
// the next bucket of its stripe to be touched gets — the table carves
// nothing new for it.
func TestGrowthRecyclesSmallRecord(t *testing.T) {
	s := New(Config{LineBytes: 16, BucketBits: 8, DataWays: 12})
	const bkt = 5
	cs := contentsFor(s, []uint64{bkt, bkt + numStripes}, 5)
	var ps []word.PLID
	for i, c := range cs[bkt] {
		p, existed := s.Lookup(c)
		if existed || p != s.plidFor(bkt, i) {
			t.Fatalf("line %d: PLID %#x existed=%v, want fresh way %d", i, uint64(p), existed, i)
		}
		ps = append(ps, p)
	}
	smallBytes, fullBytes := uint64(s.geos[small].units())*64, uint64(s.geos[full].units())*64
	ts := s.TableStats()
	if ts.FullBuckets != 1 || ts.TouchedBytes != smallBytes+fullBytes {
		t.Fatalf("after the fifth line: %+v, want 1 full bucket and %d touched bytes", ts, smallBytes+fullBytes)
	}
	for i, p := range ps {
		if got := s.Read(p); got != cs[bkt][i] {
			t.Fatalf("way %d reads %v after growth, want %v", i, got, cs[bkt][i])
		}
	}
	s.Lookup(cs[bkt+numStripes][0])
	if got := s.TableStats().TouchedBytes; got != ts.TouchedBytes {
		t.Fatalf("touching a second bucket of the stripe carved %d bytes; the vacated small record should serve it", got-ts.TouchedBytes)
	}
	if err := s.CheckConsistency(map[word.PLID]uint64{
		ps[0]: 1, ps[1]: 1, ps[2]: 1, ps[3]: 1, ps[4]: 1, mustPLID(s, cs[bkt+numStripes][0]): 1,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestInstallLineGrowsBucket: recovery restoring a PLID past the small
// width into a fresh store grows the bucket on the spot, and the content
// is then found at exactly that PLID.
func TestInstallLineGrowsBucket(t *testing.T) {
	s := New(Config{LineBytes: 16, BucketBits: 8, DataWays: 12})
	c := counterLeaf(2, 7)
	bkt := s.BucketIndex(c)
	p := s.plidFor(bkt, 9)
	if err := s.InstallLine(p, c, 1); err != nil {
		t.Fatal(err)
	}
	s.FinishRestore()
	if n := s.TableStats().FullBuckets; n != 1 {
		t.Fatalf("install at way 9 grew %d buckets, want 1", n)
	}
	got, existed := s.Lookup(c)
	if !existed || got != p {
		t.Fatalf("Lookup = %#x existed=%v, want the installed %#x", uint64(got), existed, uint64(p))
	}
	if err := s.CheckConsistency(map[word.PLID]uint64{p: 2}); err != nil {
		t.Fatal(err)
	}
}

// contentsFor returns n distinct contents hashing to each of the given
// buckets.
func contentsFor(s *Store, bkts []uint64, n int) map[uint64][]word.Content {
	out := make(map[uint64][]word.Content, len(bkts))
	for _, b := range bkts {
		out[b] = nil
	}
	for i, need := uint64(0), len(bkts); need > 0; i++ {
		c := counterLeaf(s.arity, i)
		b := s.BucketIndex(c)
		if cs, ok := out[b]; ok && len(cs) < n {
			out[b] = append(cs, c)
			if len(out[b]) == n {
				need--
			}
		}
	}
	return out
}

// TestBucketTableStaysLazy: a paper-scale table (2^20 buckets, ~350 MB if
// committed) costs its directory plus the records actually carved — in
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
	if ts := s.TableStats(); ts.TouchedBytes > ts.ReservedBytes/256 {
		t.Errorf("1000 lines touched %d of %d table bytes", ts.TouchedBytes, ts.ReservedBytes)
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
