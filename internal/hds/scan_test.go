package hds

import (
	"fmt"
	"testing"

	"repro/internal/segment"
)

// fillMap inserts n deterministic bindings and returns the expected
// contents.
func fillMap(t *testing.T, h *Heap, mp *Map, n int) map[string]string {
	t.Helper()
	want := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := fmt.Sprintf("value-%04d-%s", i, string(make([]byte, i%40)))
		ks := NewString(h, []byte(k))
		vs := NewString(h, []byte(v))
		if err := mp.Set(ks, vs); err != nil {
			t.Fatal(err)
		}
		ks.Release(h)
		vs.Release(h)
		want[k] = v
	}
	return want
}

type pair struct{ k, v string }

func forEachPairs(t *testing.T, h *Heap, mp *Map) []pair {
	t.Helper()
	var out []pair
	if err := mp.ForEach(func(key, val String) bool {
		out = append(out, pair{string(key.Bytes(h)), string(val.Bytes(h))})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMapForEachMatchesGet(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	want := fillMap(t, h, mp, 150)
	got := forEachPairs(t, h, mp)
	if len(got) != len(want) {
		t.Fatalf("ForEach yielded %d bindings, want %d", len(got), len(want))
	}
	for _, p := range got {
		if want[p.k] != p.v {
			t.Fatalf("ForEach: key %q -> %q, want %q", p.k, p.v, want[p.k])
		}
		delete(want, p.k)
	}
	if len(want) != 0 {
		t.Fatalf("ForEach missed %d bindings", len(want))
	}
}

// TestMapScanVariantsAgree pins that BytesScan emits exactly ForEach's
// sequence — same pairs, same ascending slot order.
func TestMapScanVariantsAgree(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	fillMap(t, h, mp, 300)
	want := forEachPairs(t, h, mp)

	var viaBytes []pair
	if err := mp.BytesScan(func(key, val []byte) bool {
		viaBytes = append(viaBytes, pair{string(key), string(val)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(viaBytes) != fmt.Sprint(want) {
		t.Fatalf("BytesScan order/content diverges from ForEach (%d vs %d pairs)", len(viaBytes), len(want))
	}
}

func TestMapScanEarlyStop(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	fillMap(t, h, mp, 200)
	for name, run := range map[string]func(stop int) int{
		"ForEach": func(stop int) int {
			calls := 0
			mp.ForEach(func(key, val String) bool { calls++; return calls < stop })
			return calls
		},
		"BytesScan": func(stop int) int {
			calls := 0
			mp.BytesScan(func(key, val []byte) bool { calls++; return calls < stop })
			return calls
		},
	} {
		if got := run(5); got != 5 {
			t.Fatalf("%s: early stop made %d calls, want 5", name, got)
		}
	}
}

func TestMapDiffReportsExactlyTheChanges(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	fillMap(t, h, mp, 120)
	old, err := mp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, old)

	set := func(k, v string) {
		ks, vs := NewString(h, []byte(k)), NewString(h, []byte(v))
		if err := mp.Set(ks, vs); err != nil {
			t.Fatal(err)
		}
		ks.Release(h)
		vs.Release(h)
	}
	del := func(k string) {
		ks := NewString(h, []byte(k))
		if err := mp.Delete(ks); err != nil {
			t.Fatal(err)
		}
		ks.Release(h)
	}
	wantAdded := map[string]string{}
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("new-%d", i), fmt.Sprintf("new-value-%d", i)
		set(k, v)
		wantAdded[k] = v
	}
	wantChanged := map[string]string{}
	for i := 0; i < 5; i++ {
		k, v := fmt.Sprintf("key-%04d", i*7), fmt.Sprintf("rewritten-%d", i)
		set(k, v)
		wantChanged[k] = v
	}
	wantDeleted := map[string]bool{}
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("key-%04d", 100+i)
		del(k)
		wantDeleted[k] = true
	}

	st, err := mp.Diff(old, func(d MapDelta) bool {
		k := string(d.Key.Bytes(h))
		switch {
		case wantAdded[k] != "":
			if d.HasBefore || !d.HasAfter || string(d.After.Bytes(h)) != wantAdded[k] {
				t.Fatalf("added key %q: bad delta %+v", k, d)
			}
			delete(wantAdded, k)
		case wantChanged[k] != "":
			if !d.HasBefore || !d.HasAfter || string(d.After.Bytes(h)) != wantChanged[k] {
				t.Fatalf("changed key %q: bad delta", k)
			}
			delete(wantChanged, k)
		case wantDeleted[k]:
			if !d.HasBefore || d.HasAfter {
				t.Fatalf("deleted key %q: bad delta %+v", k, d)
			}
			delete(wantDeleted, k)
		default:
			t.Fatalf("diff reported unchanged key %q", k)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantAdded)+len(wantChanged)+len(wantDeleted) != 0 {
		t.Fatalf("diff missed changes: added %v changed %v deleted %v", wantAdded, wantChanged, wantDeleted)
	}
	if st.SubDAGSkips == 0 {
		t.Fatalf("no sub-DAG skips across near-identical snapshots: %+v", st)
	}
}

func TestDiffSnapshotsIdentical(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	fillMap(t, h, mp, 64)
	snap, err := mp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, snap)
	st := DiffSnapshots(h, snap, snap, func(d MapDelta) bool {
		t.Fatalf("identical snapshots produced a delta")
		return false
	})
	if st.LineReads != 0 {
		t.Fatalf("identical snapshots read %d lines, want 0", st.LineReads)
	}
}

// TestOrderedRangeMatchesGet pins the streamed Range rewrite against the
// point-read path: same elements, same order, same values.
func TestOrderedRangeMatchesGet(t *testing.T) {
	h := heap()
	o := NewOrdered(h)
	keys := []uint64{0, 1, 5, 63, 64, 1000, 4096, 70000}
	for _, k := range keys {
		v := NewString(h, []byte(fmt.Sprintf("at-%d", k)))
		if err := o.Put(k, v); err != nil {
			t.Fatal(err)
		}
		v.Release(h)
	}
	var got []uint64
	err := o.Range(0, func(key uint64, val String) bool {
		got = append(got, key)
		want, ok := o.Get(key)
		if !ok {
			t.Fatalf("Range key %d missing from Get", key)
		}
		if string(val.Bytes(h)) != string(want.Bytes(h)) {
			t.Fatalf("Range key %d value mismatch", key)
		}
		want.Release(h)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(keys) {
		t.Fatalf("Range keys = %v, want %v", got, keys)
	}
}
