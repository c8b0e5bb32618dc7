package hds

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// BenchmarkApplyWindow is a served set_write window at hicampd's machine
// geometry — 16 B lines, 2^18 buckets, a 256 KB 16-way LLC — over a map
// of 20 000 keys: each Apply overwrites 64 uniformly chosen keys with
// fresh 256 B values (a unique 16-byte header, then a slice of an HTML
// corpus whose 16-byte lines deduplicate across values, as the served
// benchmark's values do). It reports host time per pair.
func BenchmarkApplyWindow(b *testing.B) {
	const keys, window, valueBytes = 20000, 64, 256
	h := NewHeap(core.Config{LineBytes: 16, BucketBits: 18, DataWays: 12, CacheLines: (256 << 10) / 16, CacheWays: 16})
	mp := NewMap(h)
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
	fill := func(dst []byte, key int) {
		seq++
		binary.LittleEndian.PutUint64(dst, uint64(key))
		binary.LittleEndian.PutUint64(dst[8:], seq)
		copy(dst[16:], corpus[rng.IntN(starts)*16:])
	}
	names := make([][]byte, keys)
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
		b.Fatal(err)
	}
	pairs = pairs[:window]
	b.ReportAllocs()
	b.ResetTimer()
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
}
