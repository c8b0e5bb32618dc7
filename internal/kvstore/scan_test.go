package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/hds"
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

// TestServerScanMatchesGet walks the server's root map in one streamed
// pass (hds.Map.BytesScan) and checks it yields exactly the pairs Set
// stored, each equal to a point Read, in ascending key-PLID (slot)
// order.
func TestServerScanMatchesGet(t *testing.T) {
	s := NewHicampServer(testCfg())
	want := fillServer(t, s, 200)
	got := map[string]string{}
	var order []string
	if err := s.Map().BytesScan(func(key, value []byte) bool {
		got[string(key)] = string(value)
		order = append(order, string(key))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan yielded %d pairs, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("scan: key %q -> %q, want %q", k, got[k], v)
		}
		if rv, ok := get(s, []byte(k)); !ok || string(rv) != v {
			t.Fatalf("read: key %q -> %q,%v, want %q", k, rv, ok, v)
		}
	}

	for i := 1; i < len(order); i++ {
		a := hds.NewString(s.Heap, []byte(order[i-1]))
		b := hds.NewString(s.Heap, []byte(order[i]))
		if a.Key() >= b.Key() {
			t.Fatalf("scan order: %q (PLID %#x) before %q (PLID %#x)", order[i-1], a.Key(), order[i], b.Key())
		}
		a.Release(s.Heap)
		b.Release(s.Heap)
	}
}

func TestServerScanEarlyStop(t *testing.T) {
	s := NewHicampServer(testCfg())
	fillServer(t, s, 100)
	calls := 0
	if err := s.Map().BytesScan(func(key, value []byte) bool {
		calls++
		return calls < 7
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 7 {
		t.Fatalf("early-stopped scan made %d calls, want 7", calls)
	}
}
