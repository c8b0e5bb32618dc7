package hds

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/segment"
)

func TestApplyErrorOnDup(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	pairs := []Pair{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("a"), Value: []byte("3")},
	}
	if err := mp.Apply(pairs, ApplyOptions{ErrorOnDup: true}); err != ErrDuplicateKey {
		t.Fatalf("Apply with dup = %v, want ErrDuplicateKey", err)
	}
	if n := mp.Len(); n != 0 {
		t.Fatalf("rejected batch mutated the map: %d entries", n)
	}
	if err := mp.Apply(pairs[:2], ApplyOptions{ErrorOnDup: true}); err != nil {
		t.Fatalf("Apply without dup: %v", err)
	}
	if n := mp.Len(); n != 2 {
		t.Fatalf("map len %d, want 2", n)
	}

	o := NewOrdered(h)
	items := []Item{{Key: 1, Value: []byte("x")}, {Key: 1, Value: []byte("y")}}
	if err := o.Apply(items, ApplyOptions{ErrorOnDup: true}); err != ErrDuplicateKey {
		t.Fatalf("Ordered.Apply with dup = %v, want ErrDuplicateKey", err)
	}
	if err := o.Apply(items[:1], ApplyOptions{ErrorOnDup: true}); err != nil {
		t.Fatalf("Ordered.Apply without dup: %v", err)
	}
}

// TestConcurrentApplyMergeStress drives concurrent Apply batches on one
// map (disjoint key ranges, values large enough to keep growing the
// segment) so merge-first conflict resolution and height-aligned rebases
// run under real interleavings; run with -race -cpu=1,4 in CI. Every
// batch must land without application-visible retry errors.
func TestConcurrentApplyMergeStress(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	const workers, batches, perBatch = 4, 12, 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				pairs := make([]Pair, perBatch)
				for k := range pairs {
					pairs[k] = Pair{
						Key:   []byte(fmt.Sprintf("w%d-b%d-k%d", g, b, k)),
						Value: []byte(fmt.Sprintf("value-%d-%d-%d", g, b, k)),
					}
				}
				if err := mp.Apply(pairs, ApplyOptions{}); err != nil {
					t.Errorf("worker %d batch %d: %v", g, b, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < workers; g++ {
		for b := 0; b < batches; b++ {
			for k := 0; k < perBatch; k++ {
				key := NewString(h, []byte(fmt.Sprintf("w%d-b%d-k%d", g, b, k)))
				v, ok := mp.Get(key)
				want := fmt.Sprintf("value-%d-%d-%d", g, b, k)
				if !ok || string(v.Bytes(h)) != want {
					t.Fatalf("key w%d-b%d-k%d: ok=%v got %q want %q",
						g, b, k, ok, v.Bytes(h), want)
				}
				v.Release(h)
				key.Release(h)
			}
		}
	}
	if n := mp.Len(); n != workers*batches*perBatch {
		t.Fatalf("map len %d, want %d", n, workers*batches*perBatch)
	}
}

// Apply must surface the wave-commit counters: one batch of k fresh keys
// rebuilds k*2 value/length word paths plus key words, in one wave.
func TestApplyReportsWaveStats(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	pairs := make([]Pair, 32)
	for i := range pairs {
		pairs[i] = Pair{
			Key:   []byte(fmt.Sprintf("stat:%03d", i)),
			Value: []byte(fmt.Sprintf("payload %d", i)),
		}
	}
	var st segment.WriteStats
	if err := mp.Apply(pairs, ApplyOptions{Stats: &st}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if st.Updates != uint64(len(pairs)*4) {
		t.Fatalf("Updates = %d, want %d (4 slot words per pair)", st.Updates, len(pairs)*4)
	}
	if st.WaveLevels == 0 || st.PathsRebuilt == 0 {
		t.Fatalf("empty wave counters: %+v", st)
	}
}

func TestApplyNoMerge(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	pairs := []Pair{{Key: []byte("k1"), Value: []byte("v1")}, {Key: []byte("k2"), Value: []byte("v2")}}
	if err := mp.Apply(pairs, ApplyOptions{NoMerge: true}); err != nil {
		t.Fatalf("Apply NoMerge: %v", err)
	}
	k := NewString(h, []byte("k2"))
	got, ok := mp.Get(k)
	if !ok || string(got.Bytes(h)) != "v2" {
		t.Fatalf("NoMerge batch lost a binding")
	}
	got.Release(h)
	k.Release(h)
}

// TestConcurrentApplyScan races bulk Apply batches against Get and
// snapshot scans on one shared map (run under -race -cpu=1,4 in CI):
// writers contend on a shared key range so merge conflicts and retries
// fire, readers must always observe consistent snapshots.
func TestConcurrentApplyScan(t *testing.T) {
	h := heap()
	mp := NewMap(h)

	const writers, rounds, span = 3, 8, 16
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				pairs := make([]Pair, span)
				for i := range pairs {
					// Half the keys are shared across writers (forced
					// same-slot conflicts), half are private.
					if i%2 == 0 {
						pairs[i] = Pair{
							Key:   []byte(fmt.Sprintf("shared:%02d", i)),
							Value: []byte(fmt.Sprintf("writer %d round %d item %d", g, round, i)),
						}
					} else {
						pairs[i] = Pair{
							Key:   []byte(fmt.Sprintf("w%d:%02d", g, i)),
							Value: []byte(fmt.Sprintf("private %d round %d", i, round)),
						}
					}
				}
				if err := mp.Apply(pairs, ApplyOptions{}); err != nil {
					t.Errorf("writer %d round %d: %v", g, round, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2*rounds; round++ {
				k := NewString(h, []byte(fmt.Sprintf("shared:%02d", (round*2)%span)))
				if v, ok := mp.Get(k); ok {
					if len(v.Bytes(h)) == 0 {
						t.Error("present key with empty value")
					}
					v.Release(h)
				}
				k.Release(h)
				if err := mp.BytesScan(func(key, val []byte) bool { return true }); err != nil {
					t.Errorf("BytesScan: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every private key must hold its writer's final-round value; shared
	// keys hold some writer's final-round value (merge keeps last commit).
	for g := 0; g < writers; g++ {
		for i := 1; i < span; i += 2 {
			k := NewString(h, []byte(fmt.Sprintf("w%d:%02d", g, i)))
			v, ok := mp.Get(k)
			if !ok {
				t.Fatalf("private key w%d:%02d missing", g, i)
			}
			if want := fmt.Sprintf("private %d round %d", i, rounds-1); string(v.Bytes(h)) != want {
				t.Fatalf("w%d:%02d = %q, want %q", g, i, v.Bytes(h), want)
			}
			v.Release(h)
			k.Release(h)
		}
	}
}
