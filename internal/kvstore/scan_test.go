package kvstore

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

func fillServer(t *testing.T, s *HicampServer, n int) map[string]string {
	t.Helper()
	want := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("scan-key-%04d", i)
		v := fmt.Sprintf("scan-value-%04d-%s", i, string(bytes.Repeat([]byte{'x'}, i%50)))
		if err := s.Set([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	return want
}

func TestServerScanMatchesGet(t *testing.T) {
	s := NewHicampServer(testCfg())
	want := fillServer(t, s, 200)
	got := map[string]string{}
	var order []string
	if err := s.Scan(func(key, value []byte) bool {
		got[string(key)] = string(value)
		order = append(order, string(key))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Scan yielded %d pairs, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Scan: key %q -> %q, want %q", k, got[k], v)
		}
	}

	// Keys must list the same keys in the same order.
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	var keyStrs []string
	for _, k := range keys {
		keyStrs = append(keyStrs, string(k))
	}
	if fmt.Sprint(keyStrs) != fmt.Sprint(order) {
		t.Fatal("Keys diverges from Scan order")
	}
}

func TestServerScanEarlyStop(t *testing.T) {
	s := NewHicampServer(testCfg())
	fillServer(t, s, 100)
	calls := 0
	if err := s.Scan(func(key, value []byte) bool {
		calls++
		return calls < 7
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 7 {
		t.Fatalf("early-stopped Scan made %d calls, want 7", calls)
	}
}

func TestReplicatorShipsIncrementalDeltas(t *testing.T) {
	s := NewHicampServer(testCfg())
	fillServer(t, s, 150)
	r, err := NewReplicator(s)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Round 1: no changes yet.
	rep, err := r.Delta(func(e DeltaEntry) bool {
		t.Fatalf("unchanged store shipped %q", e.Key)
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed != 0 || rep.Diff.LineReads != 0 {
		t.Fatalf("no-op delta: %+v", rep)
	}

	// Round 2: a few updates, one insert, one delete.
	s.Set([]byte("scan-key-0003"), []byte("rewritten"))
	s.Set([]byte("brand-new"), []byte("fresh"))
	s.Delete([]byte("scan-key-0100"))
	wantTouched := map[string]bool{"scan-key-0003": true, "brand-new": true, "scan-key-0100": true}

	got := map[string]DeltaEntry{}
	rep, err = r.Delta(func(e DeltaEntry) bool {
		got[string(e.Key)] = DeltaEntry{Key: append([]byte(nil), e.Key...), Value: append([]byte(nil), e.Value...), Deleted: e.Deleted}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed != len(wantTouched) || len(got) != len(wantTouched) {
		t.Fatalf("delta shipped %d entries (%v), want %d", rep.Changed, keysOf(got), len(wantTouched))
	}
	if e := got["scan-key-0003"]; e.Deleted || string(e.Value) != "rewritten" {
		t.Fatalf("update entry wrong: %+v", e)
	}
	if e := got["brand-new"]; e.Deleted || string(e.Value) != "fresh" {
		t.Fatalf("insert entry wrong: %+v", e)
	}
	if e := got["scan-key-0100"]; !e.Deleted || e.Value != nil && len(e.Value) != 0 {
		t.Fatalf("delete entry wrong: %+v", e)
	}
	if rep.Diff.SubDAGSkips == 0 {
		t.Fatalf("delta walk recorded no sub-DAG skips: %+v", rep.Diff)
	}

	// Round 3: the snapshot advanced, so a repeat delta is empty.
	rep, err = r.Delta(func(e DeltaEntry) bool {
		t.Fatalf("already-shipped change re-shipped: %q", e.Key)
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed != 0 {
		t.Fatalf("repeat delta shipped %d entries", rep.Changed)
	}
}

func keysOf(m map[string]DeltaEntry) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
