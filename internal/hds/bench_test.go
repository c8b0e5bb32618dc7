package hds

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/segment"
)

// hicampdConfig is hicampd's machine geometry: 16 B lines, 2^18
// buckets, a 256 KB 16-way LLC.
var hicampdConfig = core.Config{LineBytes: 16, BucketBits: 18, DataWays: 12, CacheLines: (256 << 10) / 16, CacheWays: 16}

// windowMap loads a map of keys bindings to 256 B values (a unique
// 16-byte header, then a slice of an HTML corpus whose 16-byte lines
// deduplicate across values, as the served benchmark's values do). It
// returns the keys' names and fill, which rewrites a value buffer with a
// fresh value for key.
func windowMap(tb testing.TB, h *Heap, keys int) (mp *Map, names [][]byte, fill func(dst []byte, key int)) {
	const valueBytes = 256
	mp = NewMap(h)
	var corpus []byte
	for _, page := range datagen.HTMLCorpus("apply", 64, 4096, 1).Items {
		corpus = append(corpus, page...)
		for len(corpus)%16 != 0 {
			corpus = append(corpus, ' ')
		}
	}
	starts := (len(corpus) - valueBytes) / 16
	rng := rand.New(rand.NewPCG(45, 1))
	seq := uint64(0)
	fill = func(dst []byte, key int) {
		seq++
		binary.LittleEndian.PutUint64(dst, uint64(key))
		binary.LittleEndian.PutUint64(dst[8:], seq)
		copy(dst[16:], corpus[rng.IntN(starts)*16:])
	}
	names = make([][]byte, keys)
	for i := range names {
		names[i] = []byte(fmt.Sprintf("k:apply:%07d", i))
	}
	pairs := make([]Pair, keys)
	flat := make([]byte, keys*valueBytes)
	for i := range pairs {
		v := flat[i*valueBytes : (i+1)*valueBytes]
		fill(v, i)
		pairs[i] = Pair{Key: names[i], Value: v}
	}
	if err := mp.Apply(pairs, ApplyOptions{}); err != nil {
		tb.Fatal(err)
	}
	return mp, names, fill
}

// BenchmarkApplyWindow is a served set_write window at hicampd's machine
// geometry over a map of 20 000 keys: each Apply overwrites 64 uniformly
// chosen keys with fresh 256 B values. It reports host time and
// simulated DRAM accesses per pair.
func BenchmarkApplyWindow(b *testing.B) {
	const keys, window = 20000, 64
	h := NewHeap(hicampdConfig)
	mp, names, fill := windowMap(b, h, keys)
	rng := rand.New(rand.NewPCG(46, 1))
	pairs := make([]Pair, window)
	for i := range pairs {
		pairs[i].Value = make([]byte, 256)
	}
	b.ReportAllocs()
	b.ResetTimer()
	dram := h.M.Stats().DRAMAccesses()
	for range b.N {
		for i := range pairs {
			k := rng.IntN(keys)
			fill(pairs[i].Value, k)
			pairs[i].Key = names[k]
		}
		if err := mp.Apply(pairs, ApplyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/pair")
	b.ReportMetric(float64(h.M.Stats().DRAMAccesses()-dram)/float64(b.N*window), "dram/pair")
}

// BenchmarkReadWindow is a served mget_read window at hicampd's machine
// geometry over a map of 30 000 keys bound to 256 B values: each
// GetBytesAtInto reads 64 requests of 4 uniformly chosen keys through one
// pinned snapshot. It reports host time and simulated DRAM accesses per
// key.
func BenchmarkReadWindow(b *testing.B) {
	const keys, window = 30000, 64 * 4
	h := NewHeap(hicampdConfig)
	mp, names, _ := windowMap(b, h, keys)
	rng := rand.New(rand.NewPCG(47, 1))
	batch := make([][]byte, window)
	var r ReadBuf
	b.ReportAllocs()
	b.ResetTimer()
	dram := h.M.Stats().DRAMAccesses()
	for range b.N {
		for i := range batch {
			batch[i] = names[rng.IntN(keys)]
		}
		seg, _, err := mp.SnapshotEntry()
		if err != nil {
			b.Fatal(err)
		}
		mp.GetBytesAtInto(seg, batch, &r)
		segment.ReleaseSeg(h.M, seg)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/key")
	b.ReportMetric(float64(h.M.Stats().DRAMAccesses()-dram)/float64(b.N*window), "dram/key")
}
