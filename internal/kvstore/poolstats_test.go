package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/pool"
)

// Pins the scratch-pool registry under server traffic. Two invariants,
// both exact because internal/pool's freelists never drain with the GC:
//
//   - Accounting balances: at quiescence every borrow has been
//     released, so Hits+Misses+Oversize == Returned per pool. An
//     engine that leaks a borrowed buffer breaks this immediately.
//   - Traffic registers: server operations drive the wave engines, so
//     the aggregate acquisition count must move across a Set/Read/scan
//     burst. A pool surface wired to dead counters breaks this.
func TestHicampServerPoolStats(t *testing.T) {
	s := NewHicampServer(testCfg())
	before := acquisitions(pool.Snapshot())

	for i := 0; i < 32; i++ {
		k := []byte(fmt.Sprintf("poolstats-key-%d", i))
		v := []byte(fmt.Sprintf("poolstats-value-%d-0123456789abcdef", i))
		if err := s.Set(k, v); err != nil {
			t.Fatal(err)
		}
		if got, ok := get(s, k); !ok || string(got) != string(v) {
			t.Fatalf("get %q = %q, %v", k, got, ok)
		}
	}
	n := 0
	if err := s.Map().BytesScan(func(key, value []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 32 {
		t.Fatalf("scan saw %d pairs, want 32", n)
	}

	after := pool.Snapshot()
	if len(after) == 0 {
		t.Fatal("pool.Snapshot returned no registered pools")
	}
	for i := 1; i < len(after); i++ {
		if after[i-1].Name >= after[i].Name {
			t.Errorf("snapshot unsorted: %q before %q", after[i-1].Name, after[i].Name)
		}
	}
	for _, ps := range after {
		if got, want := ps.Hits+ps.Misses+ps.Oversize, ps.Returned; got != want {
			t.Errorf("pool %s: hits+misses+oversize = %d but returned = %d — a borrow leaked",
				ps.Name, got, want)
		}
	}
	if acquisitions(after) <= before {
		t.Error("server traffic moved no pool counter; the engines are not using the pools")
	}
}

func acquisitions(snap []pool.PoolStats) uint64 {
	var total uint64
	for _, ps := range snap {
		total += ps.Hits + ps.Misses + ps.Oversize
	}
	return total
}
