package hds

import (
	"fmt"
	"testing"
)

// Bulk load must land on the same canonical segment as sequential sets:
// same bindings → same map DAG root, regardless of how it was built.
func TestApplyMatchesSequentialSet(t *testing.T) {
	h := heap()
	pairs := make([]Pair, 50)
	for i := range pairs {
		pairs[i] = Pair{
			Key:   []byte(fmt.Sprintf("user:%04d", i)),
			Value: []byte(fmt.Sprintf("profile-data-for-user-%d with some shared suffix content", i)),
		}
	}

	seq := NewMap(h)
	for _, p := range pairs {
		k, v := NewString(h, p.Key), NewString(h, p.Value)
		if err := seq.Set(k, v); err != nil {
			t.Fatalf("Set: %v", err)
		}
		k.Release(h)
		v.Release(h)
	}

	bulk := NewMap(h)
	if err := bulk.Apply(pairs, ApplyOptions{}); err != nil {
		t.Fatalf("Apply: %v", err)
	}

	seqSeg, err := h.SM.Load(seq.vsid)
	if err != nil {
		t.Fatalf("load seq: %v", err)
	}
	bulkSeg, err := h.SM.Load(bulk.vsid)
	if err != nil {
		t.Fatalf("load bulk: %v", err)
	}
	if !seqSeg.Seg.Equal(bulkSeg.Seg) {
		t.Fatalf("bulk map root %#x/h%d != sequential %#x/h%d",
			bulkSeg.Seg.Root, bulkSeg.Seg.Height, seqSeg.Seg.Root, seqSeg.Seg.Height)
	}
	h.M.Release(seqSeg.Seg.Root)
	h.M.Release(bulkSeg.Seg.Root)

	for _, p := range pairs {
		k := NewString(h, p.Key)
		got, ok := bulk.Get(k)
		if !ok {
			t.Fatalf("bulk map missing key %q", p.Key)
		}
		if string(got.Bytes(h)) != string(p.Value) {
			t.Fatalf("key %q: got %q want %q", p.Key, got.Bytes(h), p.Value)
		}
		got.Release(h)
		k.Release(h)
	}
}

func TestApplyDuplicateKeysLastWins(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	err := mp.Apply([]Pair{
		{Key: []byte("k"), Value: []byte("first")},
		{Key: []byte("k"), Value: []byte("second")},
	}, ApplyOptions{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	k := NewString(h, []byte("k"))
	got, ok := mp.Get(k)
	if !ok || string(got.Bytes(h)) != "second" {
		t.Fatalf("duplicate key: got %q ok=%v, want %q", got.Bytes(h), ok, "second")
	}
	got.Release(h)
	k.Release(h)
	if n := mp.Len(); n != 1 {
		t.Fatalf("map len %d, want 1", n)
	}
}

func TestOrderedApplyMatchesSequentialPut(t *testing.T) {
	h := heap()
	items := make([]Item, 40)
	for i := range items {
		items[i] = Item{
			Key:   uint64(i * 17),
			Value: []byte(fmt.Sprintf("event payload %d", i)),
		}
	}

	seq := NewOrdered(h)
	for _, it := range items {
		v := NewString(h, it.Value)
		if err := seq.Put(it.Key, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
		v.Release(h)
	}

	bulk := NewOrdered(h)
	if err := bulk.Apply(items, ApplyOptions{}); err != nil {
		t.Fatalf("Apply: %v", err)
	}

	seqSeg, _ := h.SM.Load(seq.vsid)
	bulkSeg, _ := h.SM.Load(bulk.vsid)
	if !seqSeg.Seg.Equal(bulkSeg.Seg) {
		t.Fatalf("bulk ordered root %#x != sequential %#x", bulkSeg.Seg.Root, seqSeg.Seg.Root)
	}
	h.M.Release(seqSeg.Seg.Root)
	h.M.Release(bulkSeg.Seg.Root)

	var walked int
	err := bulk.Range(0, func(key uint64, val String) bool {
		want := items[walked]
		if key != want.Key || string(val.Bytes(h)) != string(want.Value) {
			t.Fatalf("walk %d: got %d/%q want %d/%q", walked, key, val.Bytes(h), want.Key, want.Value)
		}
		walked++
		return true
	})
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if walked != len(items) {
		t.Fatalf("walked %d elements, want %d", walked, len(items))
	}
}
