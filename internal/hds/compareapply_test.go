package hds

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/merge"
	"repro/internal/segment"
)

// setString is a test helper: bind key -> value through the per-key path.
func setString(t *testing.T, h *Heap, mp *Map, key, val string) {
	t.Helper()
	k, v := NewString(h, []byte(key)), NewString(h, []byte(val))
	if err := mp.Set(k, v); err != nil {
		t.Fatalf("Set(%q): %v", key, err)
	}
	k.Release(h)
	v.Release(h)
}

func getString(t *testing.T, h *Heap, mp *Map, key string) (string, bool) {
	t.Helper()
	k := NewString(h, []byte(key))
	defer k.Release(h)
	v, ok := mp.Get(k)
	if !ok {
		return "", false
	}
	defer v.Release(h)
	return string(v.Bytes(h)), true
}

// CompareApply against the current snapshot publishes like Apply.
func TestCompareApplyFreshSnapshot(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	setString(t, h, mp, "a", "one")

	seg, size, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, seg)
	if err := mp.CompareApply(seg, size, []Pair{{Key: []byte("a"), Value: []byte("two")}}, ApplyOptions{}); err != nil {
		t.Fatalf("CompareApply: %v", err)
	}
	if got, _ := getString(t, h, mp, "a"); got != "two" {
		t.Fatalf("a = %q, want two", got)
	}
}

// The CAS->merge mapping the network front end relies on: a publish
// whose snapshot went stale to *disjoint* concurrent writes rebases
// through the three-way merge and succeeds; both updates survive.
func TestCompareApplyStaleDisjointRebases(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	setString(t, h, mp, "mine", "v0")
	setString(t, h, mp, "theirs", "v0")

	seg, size, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, seg)

	// Interleaved commit to a different key makes the snapshot stale.
	setString(t, h, mp, "theirs", "v1")

	if err := mp.CompareApply(seg, size, []Pair{{Key: []byte("mine"), Value: []byte("v1")}}, ApplyOptions{}); err != nil {
		t.Fatalf("stale disjoint CompareApply should rebase, got %v", err)
	}
	if got, _ := getString(t, h, mp, "mine"); got != "v1" {
		t.Fatalf("mine = %q, want v1", got)
	}
	if got, _ := getString(t, h, mp, "theirs"); got != "v1" {
		t.Fatalf("theirs = %q, want v1 (interleaved write lost in rebase)", got)
	}
}

// A concurrent write to the *same* key is a true conflict: merge-update
// must refuse to silently drop either value.
func TestCompareApplySameKeyConflicts(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	setString(t, h, mp, "k", "v0")

	seg, size, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, seg)

	setString(t, h, mp, "k", "their-v1")

	err = mp.CompareApply(seg, size, []Pair{{Key: []byte("k"), Value: []byte("my-v1")}}, ApplyOptions{})
	if !errors.Is(err, merge.ErrConflict) {
		t.Fatalf("same-key CompareApply = %v, want merge.ErrConflict", err)
	}
	if got, _ := getString(t, h, mp, "k"); got != "their-v1" {
		t.Fatalf("k = %q, want their-v1 (conflicting publish must not land)", got)
	}
}

// ChangedSince sees what the merge cannot: an interleaved write of the
// very bytes a stale CompareApply would write. Disjoint writes leave the
// key unchanged, and A→B→A reads as unchanged by construction.
func TestChangedSince(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	setString(t, h, mp, "k", "v0")
	setString(t, h, mp, "other", "v0")
	seg, _, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, seg)
	k := NewString(h, []byte("k"))
	defer k.Release(h)

	setString(t, h, mp, "other", "v1")
	if mp.ChangedSince(seg, k) {
		t.Fatal("a write to another key changed k")
	}
	setString(t, h, mp, "k", "same")
	if !mp.ChangedSince(seg, k) {
		t.Fatal("a write to k left it unchanged")
	}
	setString(t, h, mp, "k", "v0")
	if mp.ChangedSince(seg, k) {
		t.Fatal("A→B→A: content-unique versions cannot tell it from no write")
	}
}

// NoMerge is the strict compare-and-swap: any interleaved commit — even
// to an unrelated key — fails the publish with ErrStale.
func TestCompareApplyNoMergeStale(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	setString(t, h, mp, "a", "v0")
	seg, size, err := mp.SnapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, seg)
	setString(t, h, mp, "b", "v0")

	err = mp.CompareApply(seg, size, []Pair{{Key: []byte("a"), Value: []byte("v1")}}, ApplyOptions{NoMerge: true})
	if !errors.Is(err, ErrStale) {
		t.Fatalf("NoMerge stale CompareApply = %v, want ErrStale", err)
	}
	if got, _ := getString(t, h, mp, "a"); got != "v0" {
		t.Fatalf("a = %q, want v0", got)
	}
}

// Delete pairs ride the same wave commit as bindings: one Apply batch
// can set and unbind in a single published version, and tombstones for
// absent keys are no-ops that do not grow the map.
func TestApplyDeleteTombstones(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	if err := mp.Apply([]Pair{
		{Key: []byte("keep"), Value: []byte("k")},
		{Key: []byte("drop"), Value: []byte("d")},
	}, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}

	if err := mp.Apply([]Pair{
		{Key: []byte("drop"), Delete: true},
		{Key: []byte("new"), Value: []byte("n")},
		{Key: []byte("absent"), Delete: true},
	}, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}

	if _, ok := getString(t, h, mp, "drop"); ok {
		t.Fatal("drop still bound after tombstone")
	}
	if got, _ := getString(t, h, mp, "new"); got != "n" {
		t.Fatalf("new = %q, want n", got)
	}
	if got, _ := getString(t, h, mp, "keep"); got != "k" {
		t.Fatalf("keep = %q, want k", got)
	}
	if n := mp.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
}

// Within one batch the later entry for a slot wins, including across the
// set/delete boundary in both directions — the overlay's last-wins rule.
func TestApplyDeleteLastWins(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	if err := mp.Apply([]Pair{
		{Key: []byte("a"), Value: []byte("a1")},
		{Key: []byte("a"), Delete: true},
		{Key: []byte("b"), Delete: true}, // absent, then bound below
		{Key: []byte("b"), Value: []byte("b1")},
	}, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := getString(t, h, mp, "a"); ok {
		t.Fatal("a bound; trailing tombstone should win")
	}
	if got, _ := getString(t, h, mp, "b"); got != "b1" {
		t.Fatalf("b = %q, want b1", got)
	}

	// The corner the capacity skip must not break: a set that grows the
	// map beyond the snapshot's capacity, then a tombstone for the same
	// new key in the same batch — the tombstone still wins.
	mp2 := NewMap(h)
	if err := mp2.Apply([]Pair{
		{Key: []byte("grow"), Value: []byte("g1")},
		{Key: []byte("grow"), Delete: true},
	}, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := getString(t, h, mp2, "grow"); ok {
		t.Fatal("grow bound; same-batch tombstone after growth should win")
	}
}

// Tombstone-only batches over absent keys publish nothing: the map's
// version (root) must not move.
func TestApplyDeleteAbsentIsNoOp(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	setString(t, h, mp, "x", "v")
	before, err := mp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, before)

	pairs := make([]Pair, 8)
	for i := range pairs {
		pairs[i] = Pair{Key: []byte(fmt.Sprintf("missing-%d", i)), Delete: true}
	}
	if err := mp.Apply(pairs, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	after, err := mp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer segment.ReleaseSeg(h.M, after)
	if !before.Equal(after) {
		t.Fatalf("absent-key tombstones moved the root: %v -> %v", before, after)
	}
}

// GetManyAtInto against a pinned snapshot must keep answering from that
// version while the live map moves on, and its values must outlive the
// snapshot's release.
func TestGetManyAtPinnedSnapshot(t *testing.T) {
	h := heap()
	mp := NewMap(h)
	setString(t, h, mp, "k1", "old1")
	setString(t, h, mp, "k2", "old2")

	seg, err := mp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	setString(t, h, mp, "k1", "new1")
	k1, k2 := NewString(h, []byte("k1")), NewString(h, []byte("k2"))
	defer k1.Release(h)
	defer k2.Release(h)

	vals, found := mp.GetManyAtInto(seg, []String{k1, k2}, nil, nil)
	for i, ok := range found {
		if !ok {
			t.Fatalf("key %d missing under snapshot", i)
		}
	}
	segment.ReleaseSeg(h.M, seg) // values retained: must survive this
	if got := string(vals[0].Bytes(h)); got != "old1" {
		t.Fatalf("snapshot read k1 = %q, want old1", got)
	}
	if got := string(vals[1].Bytes(h)); got != "old2" {
		t.Fatalf("snapshot read k2 = %q, want old2", got)
	}
	for i := range vals {
		vals[i].Release(h)
	}
	if got, _ := getString(t, h, mp, "k1"); got != "new1" {
		t.Fatalf("live read k1 = %q, want new1", got)
	}
}
