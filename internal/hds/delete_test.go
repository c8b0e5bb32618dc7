package hds

import (
	"fmt"
	"testing"

	"repro/internal/segment"
	"repro/internal/word"
)

// mapRoot returns the root PLID of the map's current version.
func mapRoot(t *testing.T, h *Heap, mp *Map) word.PLID {
	t.Helper()
	seg, _, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	segment.ReleaseSeg(h.M, seg)
	return seg.Root
}

// Delete is Apply of one tombstone: on twin machines holding the same
// map, Delete of a bound key and Apply of {Key, Delete: true} leave the
// same root PLID, the same live lines and equal store counters (the
// Apply side builds the key again; its lines are cached, so that build
// reaches no DRAM). Deleting a key that is absent — never bound, or
// already deleted — leaves the root as it was.
func TestMapDeleteMatchesApplyTombstone(t *testing.T) {
	pairs := make([]Pair, 48)
	for i := range pairs {
		pairs[i] = Pair{Key: []byte(fmt.Sprintf("key-%02d", i)), Value: []byte(fmt.Sprintf("a value of some length %02d", i))}
	}
	twin := func() (*Heap, *Map) {
		h := heap()
		mp := NewMap(h)
		if err := mp.Apply(pairs, ApplyOptions{}); err != nil {
			t.Fatal(err)
		}
		return h, mp
	}
	// Fresh twins per key: the Apply side's cached key build moves the
	// LLC's recency order, so later traffic on the same twins may evict
	// differently.
	for _, i := range []int{7, 0, 47, 23} {
		hd, md := twin()
		ha, ma := twin()
		key := pairs[i].Key
		kd, ka := NewString(hd, key), NewString(ha, key)
		if hd.M.Stats().Store != ha.M.Stats().Store {
			t.Fatalf("twins diverged before deleting %q", key)
		}
		if err := md.Delete(kd); err != nil {
			t.Fatal(err)
		}
		if err := ma.Apply([]Pair{{Key: key, Delete: true}}, ApplyOptions{}); err != nil {
			t.Fatal(err)
		}
		if rd, ra := mapRoot(t, hd, md), mapRoot(t, ha, ma); rd != ra {
			t.Fatalf("delete %q: root %#x, Apply tombstone root %#x", key, rd, ra)
		}
		if sd, sa := hd.M.Stats().Store, ha.M.Stats().Store; sd != sa {
			t.Fatalf("delete %q: store counters\n  Delete %+v\n  Apply  %+v", key, sd, sa)
		}
		if _, ok := md.Get(kd); ok {
			t.Fatalf("%q still bound after Delete", key)
		}
		kd.Release(hd)
		ka.Release(ha)
		if hd.M.LiveLines() != ha.M.LiveLines() {
			t.Fatalf("delete %q: %d live lines, Apply tombstone %d", key, hd.M.LiveLines(), ha.M.LiveLines())
		}
		checkLiveRC(t, hd)
	}

	hd, md := twin()
	k := NewString(hd, pairs[7].Key)
	if err := md.Delete(k); err != nil {
		t.Fatal(err)
	}
	k.Release(hd)
	for _, key := range []string{"key-07", "never-bound", "key-99"} {
		k := NewString(hd, []byte(key))
		root, live := mapRoot(t, hd, md), hd.M.LiveLines()
		if err := md.Delete(k); err != nil {
			t.Fatal(err)
		}
		if got := mapRoot(t, hd, md); got != root {
			t.Fatalf("deleting absent %q moved the root %#x -> %#x", key, root, got)
		}
		if got := hd.M.LiveLines(); got != live {
			t.Fatalf("deleting absent %q: live lines %d -> %d", key, live, got)
		}
		k.Release(hd)
	}
	checkLiveRC(t, hd)
	if n := md.Len(); n != uint64(len(pairs)-1) {
		t.Fatalf("%d keys bound, want %d", n, len(pairs)-1)
	}
}
