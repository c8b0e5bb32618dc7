package hds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/segment"
)

func TestGetManyMatchesSequentialGet(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	pairs := make([]Pair, 64)
	for i := range pairs {
		pairs[i] = Pair{
			Key:   []byte(fmt.Sprintf("key-%03d", i)),
			Value: bytes.Repeat([]byte(fmt.Sprintf("<val %03d>", i)), 1+i%7),
		}
	}
	if err := mp.Apply(pairs, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}

	// Present keys, absent keys, and duplicates in one batch.
	var keys [][]byte
	var wantVal [][]byte
	var wantOK []bool
	for i := 0; i < 100; i++ {
		switch {
		case i%5 == 4:
			keys = append(keys, []byte(fmt.Sprintf("missing-%03d", i)))
			wantVal, wantOK = append(wantVal, nil), append(wantOK, false)
		default:
			p := pairs[(i*13)%len(pairs)]
			keys = append(keys, p.Key)
			wantVal, wantOK = append(wantVal, p.Value), append(wantOK, true)
		}
	}
	seg, _, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, seg)
	var r ReadBuf
	mp.GetBytesAtInto(seg, keys, &r)
	for i := range keys {
		if r.Found[i] != wantOK[i] {
			t.Fatalf("key %d: found = %v, want %v", i, r.Found[i], wantOK[i])
		}
		if !r.Found[i] {
			continue
		}
		k := NewString(h, keys[i])
		one, ok := mp.Get(k)
		if !ok || !r.Strs[i].Equal(one) {
			t.Fatalf("key %d: GetBytesAtInto disagrees with Get", i)
		}
		if !bytes.Equal(r.Vals[i], wantVal[i]) {
			t.Fatalf("key %d: bytes = %q, want %q", i, r.Vals[i], wantVal[i])
		}
		one.Release(h)
		k.Release(h)
	}
}

func TestGetManyEmptyAndEmptyValue(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	var r ReadBuf
	seg, _, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	if mp.GetBytesAtInto(seg, nil, &r); len(r.Vals) != 0 || len(r.Found) != 0 {
		t.Fatal("empty batch returned entries")
	}
	segment.ReleaseSeg(h.M, seg)
	k := NewString(h, []byte("key-of-empty"))
	defer k.Release(h)
	if err := mp.Set(k, NewString(h, nil)); err != nil {
		t.Fatal(err)
	}
	if seg, _, err = mp.SnapshotEntry(); err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, seg)
	mp.GetBytesAtInto(seg, [][]byte{[]byte("key-of-empty")}, &r)
	if !r.Found[0] || r.Strs[0].Len != 0 {
		t.Fatalf("empty value: found=%v len=%d", r.Found[0], r.Strs[0].Len)
	}
	if len(r.Vals[0]) != 0 {
		t.Fatal("empty value materialized non-empty")
	}
}

// TestConcurrentGetManyApply is the -race stress satellite: readers
// streaming multi-gets (GetBytesAtInto, each in its own netting scope)
// while a writer rebinds the same keys in bulk.
// Every returned value must be a committed version — either the preload
// value or some writer generation — never a torn mix.
func TestConcurrentGetManyApply(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	const nKeys = 32
	keysB := make([][]byte, nKeys)
	valueOf := func(gen int, k int) []byte {
		return []byte(fmt.Sprintf("gen %04d of key %03d, padded for a few lines", gen, k))
	}
	pairs := make([]Pair, nKeys)
	for i := range pairs {
		keysB[i] = []byte(fmt.Sprintf("stress-key-%03d", i))
		pairs[i] = Pair{Key: keysB[i], Value: valueOf(0, i)}
	}
	if err := mp.Apply(pairs, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}

	const gens = 30
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: whole-map rebinds, one generation per commit
		defer wg.Done()
		for g := 1; g <= gens; g++ {
			ps := make([]Pair, nKeys)
			for i := range ps {
				ps[i] = Pair{Key: keysB[i], Value: valueOf(g, i)}
			}
			if err := mp.Apply(ps, ApplyOptions{}); err != nil {
				t.Errorf("Apply: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var r ReadBuf
			for iter := 0; iter < 60; iter++ {
				ks := make([][]byte, 8)
				idx := make([]int, 8)
				for i := range ks {
					idx[i] = rng.Intn(nKeys)
					ks[i] = keysB[idx[i]]
				}
				seg, _, err := mp.SnapshotEntry()
				if err != nil {
					t.Error(err)
					return
				}
				mp.GetBytesAtInto(seg, ks, &r)
				segment.ReleaseSeg(h.M, seg)
				for i := range ks {
					if !r.Found[i] {
						t.Errorf("key %d vanished", idx[i])
						continue
					}
					ok := false
					for g := 0; g <= gens && !ok; g++ {
						ok = bytes.Equal(r.Vals[i], valueOf(g, idx[i]))
					}
					if !ok {
						t.Errorf("key %d: torn value %q", idx[i], r.Vals[i])
					}
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()
}
