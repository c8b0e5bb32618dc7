package hds

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

// TestBuildWaveMatchesPerStringBuilds builds one window through the
// build wave (buildPairs, level by level for every string at once) and,
// on a twin machine, through one BuildBytes per string in pair order.
// The window mixes duplicate values, an empty value, a tombstone, an
// inline-sized value, and keys and values of different heights. The wave
// may allocate lines in another order, so PLIDs can differ; what they
// hold, how many lines exist and what the counts say may not.
func TestBuildWaveMatchesPerStringBuilds(t *testing.T) {
	long := bytes.Repeat([]byte("0123456789abcdef-wave-"), 150) // ≈ 3.3 KB, a tall value
	dup := bytes.Repeat([]byte("duplicate value "), 16)
	pairs := []Pair{
		{Key: []byte("k:short"), Value: dup},
		{Key: []byte("k:a-key-long-enough-to-need-interior-lines-at-every-line-size"), Value: long},
		{Key: []byte("k:empty"), Value: nil},
		{Key: []byte("k:tombstone"), Value: []byte("ignored"), Delete: true},
		{Key: []byte("k:dup"), Value: dup},
		{Key: []byte("k:tiny"), Value: []byte{7}},
		{Key: []byte("k:short"), Value: long[:300]},
	}
	// Sixty more distinct values take the window past one wave's leaves
	// at 16 B lines, so the strings build in two waves there.
	for i := range 60 {
		pairs = append(pairs, Pair{Key: []byte(fmt.Sprint("k:more:", i)), Value: append([]byte(fmt.Sprint(i, ":")), long[:300]...)})
	}
	for _, lineBytes := range []int{16, 32, 64} {
		t.Run(fmt.Sprint(lineBytes, "B"), func(t *testing.T) {
			cfg := core.TestConfig()
			cfg.LineBytes = lineBytes
			wave, each := NewHeap(cfg), NewHeap(cfg)
			keys, vals, strs := NewMap(wave).buildPairs(wave.M, pairs)
			var eachKeys, eachVals []String
			for _, p := range pairs {
				eachKeys = append(eachKeys, NewString(each, p.Key))
				var v String
				if !p.Delete {
					v = NewString(each, p.Value)
				}
				eachVals = append(eachVals, v)
			}
			for i, p := range pairs {
				want := p.Value
				if p.Delete {
					want = nil
				}
				for _, c := range []struct {
					side     string
					h        *Heap
					key, val String
				}{{"wave", wave, keys[i], vals[i]}, {"per string", each, eachKeys[i], eachVals[i]}} {
					if got := c.key.Bytes(c.h); !bytes.Equal(got, p.Key) {
						t.Fatalf("%s: key %d reads back %q", c.side, i, got)
					}
					if got := c.val.Bytes(c.h); !bytes.Equal(got, want) {
						t.Fatalf("%s: value %d reads back %d bytes, want %d", c.side, i, len(got), len(want))
					}
				}
				if keys[i].Seg.Height != eachKeys[i].Seg.Height || vals[i].Seg.Height != eachVals[i].Seg.Height {
					t.Fatalf("pair %d: heights %d/%d (wave) vs %d/%d (per string)", i,
						keys[i].Seg.Height, vals[i].Seg.Height, eachKeys[i].Seg.Height, eachVals[i].Seg.Height)
				}
			}
			if vals[0].Seg.Root != vals[4].Seg.Root || keys[0].Seg.Root != keys[6].Seg.Root {
				t.Fatal("wave: equal strings landed on different roots")
			}
			if w, e := wave.M.LiveLines(), each.M.LiveLines(); w != e {
				t.Fatalf("live lines: wave %d, per string %d", w, e)
			}
			if w, e := wave.M.Stats().Store.Allocs, each.M.Stats().Store.Allocs; w != e {
				t.Fatalf("store allocs: wave %d, per string %d", w, e)
			}
			for _, c := range []struct {
				side       string
				h          *Heap
				keys, vals []String
			}{{"wave", wave, keys, vals}, {"per string", each, eachKeys, eachVals}} {
				held := make(map[word.PLID]uint64)
				for i := range pairs {
					for _, s := range []String{c.keys[i], c.vals[i]} {
						if s.Seg.Root != word.Zero {
							held[s.Seg.Root]++
						}
					}
				}
				if err := c.h.M.CheckConsistency(held); err != nil {
					t.Fatalf("%s: %v", c.side, err)
				}
			}
			for _, s := range strs {
				s.Release(wave)
			}
			for i := range pairs {
				eachKeys[i].Release(each)
				eachVals[i].Release(each)
			}
			if w, e := wave.M.LiveLines(), each.M.LiveLines(); w != 0 || e != 0 {
				t.Fatalf("after release: %d (wave) and %d (per string) lines live", w, e)
			}
		})
	}
}
