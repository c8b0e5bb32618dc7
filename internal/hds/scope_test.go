package hds

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/word"
)

// Every published update and every read runs in its own netting scope,
// which defers only RC-line accounting. Concurrent Apply and CompareApply
// on one map, raced by readers on GetBytesAtInto, must therefore leave
// reference counts exact (RC == live walk at quiescence) and publish the
// root PLID a serial replay of the same updates reaches, while every read
// returns bytes some update bound to its key. CI runs this at
// -cpu=1,2,4, with and without -race.
func TestScopedUpdatesConcurrentMatchSerialReplay(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	const workers, rounds, keysPer = 4, 10, 6
	rng := rand.New(rand.NewSource(34))
	plan := make([][][]Pair, workers)
	for w := range plan {
		for r := 0; r < rounds; r++ {
			pairs := make([]Pair, 1+rng.Intn(4))
			for i := range pairs {
				v := make([]byte, 8+rng.Intn(56))
				rng.Read(v)
				pairs[i] = Pair{Key: []byte(fmt.Sprintf("w%d/k%d", w, rng.Intn(keysPer))), Value: v}
			}
			plan[w] = append(plan[w], pairs)
		}
	}

	// Every key's possible values, for the readers' check.
	bound := make(map[string]map[string]bool)
	var keys [][]byte
	for w := range plan {
		for _, pairs := range plan[w] {
			for _, p := range pairs {
				if bound[string(p.Key)] == nil {
					bound[string(p.Key)] = make(map[string]bool)
					keys = append(keys, p.Key)
				}
				bound[string(p.Key)][string(p.Value)] = true
			}
		}
	}

	const readers = 2
	var wg, rwg sync.WaitGroup
	stop := make(chan struct{})
	rerrs := make([]error, readers)
	for rd := 0; rd < readers; rd++ {
		rwg.Add(1)
		go func(rd int) {
			defer rwg.Done()
			var r ReadBuf
			for {
				select {
				case <-stop:
					return
				default:
				}
				seg, _, err := mp.SnapshotEntry()
				if err != nil {
					rerrs[rd] = err
					return
				}
				mp.GetBytesAtInto(seg, keys, &r)
				segment.ReleaseSeg(h.M, seg)
				for i, k := range keys {
					if r.Found[i] && !bound[string(k)][string(r.Vals[i])] {
						rerrs[rd] = fmt.Errorf("key %q read %x, which no update bound", k, r.Vals[i])
						return
					}
				}
			}
		}(rd)
	}
	errs := make([]error, workers)
	for w := range plan {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r, pairs := range plan[w] {
				if r%2 == 0 {
					errs[w] = mp.Apply(pairs, ApplyOptions{})
				} else {
					orig, size, err := mp.SnapshotEntry()
					if err != nil {
						errs[w] = err
						return
					}
					errs[w] = mp.CompareApply(orig, size, pairs, ApplyOptions{})
					segment.ReleaseSeg(h.M, orig)
				}
				if errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for rd, err := range rerrs {
		if err != nil {
			t.Fatalf("reader %d: %v", rd, err)
		}
	}

	replay := NewMap(h)
	for w := range plan {
		for _, pairs := range plan[w] {
			if err := replay.Apply(pairs, ApplyOptions{}); err != nil {
				t.Fatalf("replay: %v", err)
			}
		}
	}
	got, _, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := replay.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	segment.ReleaseSeg(h.M, got)
	segment.ReleaseSeg(h.M, want)
	if got != want {
		t.Fatalf("concurrent root %+v, serial replay %+v", got, want)
	}

	external := make(map[word.PLID]uint64)
	for _, de := range h.SM.Dump() {
		if de.E.Seg.Root != word.Zero {
			external[de.E.Seg.Root]++
		}
	}
	if err := h.M.CheckConsistency(external); err != nil {
		t.Fatal(err)
	}
}

// A read through GetBytesAtInto over a populated map charges no RC-line
// access: building the keys, retaining the values under the caller's
// snapshot pin and releasing both net to zero per key. Every key and
// value root keeps its count, and RC == live walk. The LLC is flushed
// first, so every RC-line access would miss: the same hand-offs issued
// on the bare machine show the traffic the scope nets away.
func TestReadScopeChargesNoRCTraffic(t *testing.T) {
	for _, cfg := range []core.Config{
		{LineBytes: 16, BucketBits: 10, DataWays: 12},
		core.TestConfig(),
	} {
		h := NewHeap(cfg)
		mp := NewMap(h)
		pairs := make([]Pair, 48)
		keys := make([][]byte, 0, 2*len(pairs))
		for i := range pairs {
			pairs[i] = Pair{Key: []byte(fmt.Sprintf("key-%02d", i)), Value: []byte(fmt.Sprintf("value %02d, a few lines long", i))}
			keys = append(keys, pairs[i].Key)
		}
		if err := mp.Apply(pairs, ApplyOptions{}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, keys[:8]...) // duplicates ride the same read
		seg, _, err := mp.SnapshotEntry()
		if err != nil {
			t.Fatal(err)
		}
		var r ReadBuf
		mp.GetBytesAtInto(seg, keys, &r)
		counts := make(map[word.PLID]uint64)
		for i, k := range keys {
			ks := NewString(h, k)
			counts[ks.Key()] = 0
			ks.Release(h)
			counts[r.Strs[i].Seg.Root] = 0
		}
		for p := range counts {
			counts[p] = h.M.RefCount(p)
		}

		h.M.FlushCache() // no dirty RC line left for the read's fills to write back
		before := h.M.Stats().Store
		mp.GetBytesAtInto(seg, keys, &r)
		if d := h.M.Stats().Store.RCTraffic() - before.RCTraffic(); d != 0 {
			t.Errorf("cache %d: scoped read charged %d RC-line accesses, want 0", cfg.CacheLines, d)
		}
		for i := range keys {
			if !r.Found[i] || string(r.Vals[i]) != string(pairs[i%len(pairs)].Value) {
				t.Fatalf("cache %d: key %q read %q, %v", cfg.CacheLines, keys[i], r.Vals[i], r.Found[i])
			}
		}
		for p, want := range counts {
			if got := h.M.RefCount(p); got != want {
				t.Errorf("cache %d: root %#x count %d after the read, want %d", cfg.CacheLines, p, got, want)
			}
		}
		external := map[word.PLID]uint64{seg.Root: 1}
		for _, de := range h.SM.Dump() {
			if de.E.Seg.Root != word.Zero {
				external[de.E.Seg.Root]++
			}
		}
		if err := h.M.CheckConsistency(external); err != nil {
			t.Errorf("cache %d: %v", cfg.CacheLines, err)
		}

		// The same hand-offs issued on the bare machine.
		h.M.FlushCache()
		before = h.M.Stats().Store
		ks := NewStringsInto(h, keys, nil)
		vals, found := mp.GetManyAtInto(seg, ks, nil, nil)
		for i := range ks {
			ks[i].Release(h)
			if found[i] {
				vals[i].Release(h)
			}
		}
		if h.M.Stats().Store.RCTraffic() == before.RCTraffic() {
			t.Errorf("cache %d: the unscoped read charged no RC traffic; the test cannot see netting", cfg.CacheLines)
		}
		segment.ReleaseSeg(h.M, seg)
	}
}
