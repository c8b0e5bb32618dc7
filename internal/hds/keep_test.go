package hds

import (
	"fmt"
	"testing"

	"repro/internal/merge"
	"repro/internal/segment"
	"repro/internal/word"
)

// keyLeaf walks seg down to the edge of the leaf line that holds key's
// key half (its slotKey word).
func keyLeaf(h *Heap, seg segment.Seg, key String) segment.Edge {
	arity := uint64(h.M.LineWords())
	e, rel := segment.PLIDEdge(seg.Root), (slotFor(key)+slotKey)/arity*arity
	sub := seg.Capacity(int(arity))
	for lvl := seg.Height; lvl > 0; lvl-- {
		sub /= arity
		e = segment.Children(h.M, e, lvl)[rel/sub]
		rel %= sub
	}
	return e
}

// snapshotKeyLeaf returns the key-half leaf edge of key in the map's
// current version.
func snapshotKeyLeaf(t *testing.T, h *Heap, mp *Map, key String) segment.Edge {
	t.Helper()
	seg, _, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, seg)
	return keyLeaf(h, seg, key)
}

// checkLiveRC requires every line's count to equal the references the
// live DAG walk finds from the map's roots plus the held strings.
func checkLiveRC(t *testing.T, h *Heap, held ...String) {
	t.Helper()
	external := make(map[word.PLID]uint64)
	for _, de := range h.SM.Dump() {
		if de.E.Seg.Root != word.Zero {
			external[de.E.Seg.Root]++
		}
	}
	for _, s := range held {
		if s.Seg.Root != word.Zero {
			external[s.Seg.Root]++
		}
	}
	if err := h.M.CheckConsistency(external); err != nil {
		t.Fatal(err)
	}
}

// Overwriting a bound key at 16 B lines leaves its key half — one leaf
// line — standing by PLID: both key words are kept, the leaf is never
// looked up (one lookup fewer than the same words written
// unconditionally), its count does not move, and RC still equals the
// live walk.
func TestKeepIfPresentOverwriteLeavesKeyLeaf(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	pairs := make([]Pair, 32)
	for i := range pairs {
		pairs[i] = Pair{Key: []byte(fmt.Sprintf("key-%02d", i)), Value: []byte(fmt.Sprintf("value %02d", i))}
	}
	if err := mp.Apply(pairs, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	k := NewString(h, []byte("key-07"))
	defer k.Release(h)
	before := snapshotKeyLeaf(t, h, mp, k)
	if before.T != word.TagPLID || before.W == 0 {
		t.Fatalf("key half of a bound key is not a line: %+v", before)
	}
	count := h.M.RefCount(word.PLID(before.W))

	for _, overwrite := range []func(*segment.WriteStats) error{
		func(st *segment.WriteStats) error {
			return mp.Apply([]Pair{{Key: []byte("key-07"), Value: []byte("fresh")}}, ApplyOptions{Stats: st})
		},
		func(st *segment.WriteStats) error {
			seg, size, err := mp.SnapshotEntry()
			if err != nil {
				return err
			}
			defer segment.ReleaseSeg(h.M, seg)
			return mp.CompareApply(seg, size, []Pair{{Key: []byte("key-07"), Value: []byte("fresher")}}, ApplyOptions{Stats: st})
		},
	} {
		// The same slot words written unconditionally cover the slot
		// node, which then is not read, but look the key leaf up again:
		// the kept key half trades that lookup for the slot node's read.
		seg, _, err := mp.SnapshotEntry()
		if err != nil {
			t.Fatal(err)
		}
		v := NewString(h, []byte("plain"))
		plain := bindUpdates(nil, k, v)
		for i := range plain {
			plain[i].Keep = false
		}
		next, pst := segment.WriteBatch(h.M, seg, plain)
		for _, s := range []segment.Seg{next, seg, v.Seg} {
			segment.ReleaseSeg(h.M, s)
		}

		var st segment.WriteStats
		if err := overwrite(&st); err != nil {
			t.Fatal(err)
		}
		if st.Kept != 2 {
			t.Fatalf("kept %d key words, want 2 (stats %+v)", st.Kept, st)
		}
		if st.Lookups+1 != pst.Lookups || st.LineReads != pst.LineReads+1 {
			t.Fatalf("overwrite: %d lookups, %d reads; unconditional key half: %d, %d (want one lookup more, one read fewer)",
				st.Lookups, st.LineReads, pst.Lookups, pst.LineReads)
		}
		if after := snapshotKeyLeaf(t, h, mp, k); after != before {
			t.Fatalf("key leaf moved: %+v -> %+v", before, after)
		}
		if got := h.M.RefCount(word.PLID(before.W)); got != count {
			t.Fatalf("key leaf count %d, want %d", got, count)
		}
		checkLiveRC(t, h, k)
	}
	if got, _ := getString(t, h, mp, "key-07"); got != "fresher" {
		t.Fatalf("key-07 = %q, want fresher", got)
	}
	// Set writes the same slot words through the same wave.
	setString(t, h, mp, "key-07", "freshest")
	if after := snapshotKeyLeaf(t, h, mp, k); after != before {
		t.Fatalf("Set moved the key leaf: %+v -> %+v", before, after)
	}
	checkLiveRC(t, h, k)
}

// A set and a delete of one key in one window end as the later of the
// two says, whether the key was bound before or not, and the map's root
// equals that of a map that only ever saw the final bindings (history
// independence).
func TestKeepIfPresentSetDeleteOneWindow(t *testing.T) {
	set := Pair{Key: []byte("k"), Value: []byte("v")}
	del := Pair{Key: []byte("k"), Delete: true}
	for _, tc := range []struct {
		name      string
		bound     bool
		window    []Pair
		wantBound bool
	}{
		{"bound, set then delete", true, []Pair{set, del}, false},
		{"bound, delete then set", true, []Pair{del, set}, true},
		{"absent, set then delete", false, []Pair{set, del}, false},
		{"absent, delete then set", false, []Pair{del, set}, true},
	} {
		h := heap()
		mp, replay := NewMap(h), NewMap(h)
		other := Pair{Key: []byte("other"), Value: []byte("o")}
		start := []Pair{other}
		if tc.bound {
			start = append(start, Pair{Key: []byte("k"), Value: []byte("old")})
		}
		if err := mp.Apply(start, ApplyOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := mp.Apply(tc.window, ApplyOptions{}); err != nil {
			t.Fatal(err)
		}
		final := []Pair{other}
		if tc.wantBound {
			final = append(final, set)
		}
		if err := replay.Apply(final, ApplyOptions{}); err != nil {
			t.Fatal(err)
		}
		got, ok := getString(t, h, mp, "k")
		if ok != tc.wantBound || ok && got != "v" {
			t.Fatalf("%s: k = %q, %v; want bound %v", tc.name, got, ok, tc.wantBound)
		}
		a, _, _ := mp.SnapshotEntry()
		b, _, _ := replay.SnapshotEntry()
		segment.ReleaseSeg(h.M, a)
		segment.ReleaseSeg(h.M, b)
		if a != b {
			t.Fatalf("%s: root %+v, a map holding only the final bindings has %+v", tc.name, a, b)
		}
		checkLiveRC(t, h)
	}
}

// Inserting a fresh key writes its key half: the key's bytes scan back,
// and the map pins the key string after the caller drops it.
func TestKeepIfPresentInsertBindsKeyHalf(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	setString(t, h, mp, "neighbour", "n")
	if err := mp.Apply([]Pair{{Key: []byte("fresh-key"), Value: []byte("v")}}, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	k := NewString(h, []byte("fresh-key"))
	defer k.Release(h)
	if e := snapshotKeyLeaf(t, h, mp, k); e.IsZero() {
		t.Fatal("fresh key's key half is absent")
	}
	if n := h.M.RefCount(k.Key()); n < 2 {
		t.Fatalf("key root count %d: the map does not pin the key", n)
	}
	found := false
	if err := mp.BytesScan(func(key, val []byte) bool {
		found = found || string(key) == "fresh-key" && string(val) == "v"
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("fresh-key does not scan back with its key bytes")
	}
	checkLiveRC(t, h, k)
}

// A CompareApply against a snapshot whose key was deleted since still
// conflicts: the kept key half equals the snapshot's, so the merge
// takes the deletion there, but the value half changed on both sides.
func TestKeepIfPresentCompareApplyDeletedKey(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	setString(t, h, mp, "k", "v0")
	seg, size, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, seg)
	k := NewString(h, []byte("k"))
	if err := mp.Delete(k); err != nil {
		t.Fatal(err)
	}
	k.Release(h)
	err = mp.CompareApply(seg, size, []Pair{{Key: []byte("k"), Value: []byte("v1")}}, ApplyOptions{})
	if err != merge.ErrConflict {
		t.Fatalf("CompareApply over a deleted key = %v, want merge.ErrConflict", err)
	}
	if _, ok := getString(t, h, mp, "k"); ok {
		t.Fatal("the conflicted CompareApply rebound the deleted key")
	}
	checkLiveRC(t, h, String{Seg: seg})
}
