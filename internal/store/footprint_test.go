package store

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/word"
)

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
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

// TestHostFootprintPerBucket bounds what the simulator spends to model a
// row: with every bucket populated, the live host heap per bucket —
// directory included — stays within 1.5x the DRAM row it stands for
// (16 ways of LineBytes).
func TestHostFootprintPerBucket(t *testing.T) {
	for _, lineBytes := range []int{16, 32, 64} {
		cfg := Config{LineBytes: lineBytes, BucketBits: 12, DataWays: 12}
		before := heapAlloc()
		s := New(cfg)
		fillEveryBucket(s, 1)
		after := heapAlloc()
		perBucket := float64(after-before) / float64(uint64(1)<<cfg.BucketBits)
		t.Logf("%d B lines: %.0f host bytes per bucket for a %d B row", lineBytes, perBucket, 16*lineBytes)
		if limit := 1.5 * 16 * float64(lineBytes); perBucket > limit {
			t.Errorf("%d B lines: %.0f host bytes per bucket, limit %.0f (row is %d B)",
				lineBytes, perBucket, limit, 16*lineBytes)
		}
		runtime.KeepAlive(s)
	}
}

// TestBucketTableStaysLazy: a paper-scale table (2^20 buckets, ~350 MB if
// committed) costs its directory plus the groups actually touched.
func TestBucketTableStaysLazy(t *testing.T) {
	before := heapAlloc()
	s := New(Config{LineBytes: 16, BucketBits: 20, DataWays: 12})
	for i := uint64(0); i < 1000; i++ {
		s.Lookup(counterLeaf(2, i))
	}
	if grew := heapAlloc() - before; grew > 16<<20 {
		t.Fatalf("2^20-bucket store holding 1000 lines committed %d MB", grew>>20)
	}
	runtime.KeepAlive(s)
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
