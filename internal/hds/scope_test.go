package hds

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/segment"
	"repro/internal/word"
)

// Every published update runs in its own netting scope, which defers only
// RC-line accounting. Concurrent Apply and CompareApply on one map must
// therefore leave reference counts exact (RC == live walk at quiescence)
// and publish the root PLID a serial replay of the same updates reaches.
// CI runs this at -cpu=1,2,4, with and without -race.
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

	var wg sync.WaitGroup
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
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
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
