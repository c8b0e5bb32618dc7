package hds

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/segmap"
	"repro/internal/segment"
)

// Snapshot returns a stable point-in-time view of the map segment; the
// caller owns the returned root (release it with segment.ReleaseSeg).
func (mp *Map) Snapshot() (segment.Seg, error) {
	e, err := mp.h.SM.Load(segmap.ReadOnlyRef(mp.vsid))
	if err != nil {
		return segment.Seg{}, err
	}
	return e.Seg, nil
}

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

func scanPairs(t *testing.T, mp *Map) []pair {
	t.Helper()
	var out []pair
	if err := mp.BytesScan(func(key, val []byte) bool {
		out = append(out, pair{string(key), string(val)})
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
	got := scanPairs(t, mp)
	if len(got) != len(want) {
		t.Fatalf("BytesScan yielded %d bindings, want %d", len(got), len(want))
	}
	for _, p := range got {
		if want[p.k] != p.v {
			t.Fatalf("BytesScan: key %q -> %q, want %q", p.k, p.v, want[p.k])
		}
		delete(want, p.k)
	}
	if len(want) != 0 {
		t.Fatalf("BytesScan missed %d bindings", len(want))
	}
}

// TestMapScanVariantsAgree pins BytesScan against point reads: it emits
// exactly the bindings Get finds, in ascending slot (key-PLID) order.
func TestMapScanVariantsAgree(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	type slotted struct {
		slot uint64
		p    pair
	}
	var want []slotted
	for k := range fillMap(t, h, mp, 300) {
		ks := NewString(h, []byte(k))
		v, ok := mp.Get(ks)
		if !ok {
			t.Fatalf("Get(%q) missing", k)
		}
		want = append(want, slotted{slotFor(ks), pair{k, string(v.Bytes(h))}})
		v.Release(h)
		ks.Release(h)
	}
	slices.SortFunc(want, func(a, b slotted) int { return cmp.Compare(a.slot, b.slot) })
	var wantPairs []pair
	for _, w := range want {
		wantPairs = append(wantPairs, w.p)
	}
	if got := scanPairs(t, mp); fmt.Sprint(got) != fmt.Sprint(wantPairs) {
		t.Fatalf("BytesScan order/content diverges from Get in slot order (%d vs %d pairs)", len(got), len(wantPairs))
	}
}

func TestMapScanEarlyStop(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	fillMap(t, h, mp, 200)
	calls := 0
	mp.BytesScan(func(key, val []byte) bool { calls++; return calls < 5 })
	if calls != 5 {
		t.Fatalf("BytesScan: early stop made %d calls, want 5", calls)
	}
}

// TestOrderedRangeMatchesGet pins Range's next-non-zero walk against the
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
