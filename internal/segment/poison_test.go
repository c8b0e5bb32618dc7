package segment

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/word"
)

// White-box pins for the retention bounds in the pooled wave state: a
// dedup table grown past its bound by one oversized call must not
// survive into the freelist, where it would pin memory (and, for a table
// emptied whole rather than by the slots its keys filled, tax every
// later, typically much smaller, engine call with its O(grown capacity)
// clear cost). This was a live bug: one 65536-key bulk load made every
// subsequent single-key WriteBatch ~30x slower, forever, through a
// retained Go map alone.

func TestCanonBatchResetDropsOversizedDedupMap(t *testing.T) {
	b := canonBatchPool.Get()
	b.firstAt = make([]int32, 1<<17)
	canonBatchPool.Put(b) // runs the pooled reset
	b2 := canonBatchPool.Get()
	defer canonBatchPool.Put(b2)
	if b2 == b && b2.firstAt != nil {
		t.Fatal("oversized dedup index survived the pool round trip")
	}
}

// TestCanonBatchDedupIndexEmptiedBySlots: a level leaves the dedup index
// empty, so a table kept across levels and windows never reports a
// duplicate from an earlier one, and a level with many duplicates of a
// few contents resolves them all to their twins' lines.
func TestCanonBatchDedupIndexEmptiedBySlots(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	arity := m.LineWords()
	leaf := func(i int) []Edge {
		es := make([]Edge, arity)
		for j := range es {
			es[j] = Edge{W: 1<<62 | uint64(i)<<40 | uint64(j), T: word.TagRaw} // too wide to inline
		}
		return es
	}
	cb := AcquireCanonBatch(m)
	defer cb.Close()
	for round := 0; round < 3; round++ {
		out := make([]Edge, 3000)
		for i := range out {
			cb.Leaf(leaf(round*10+i%7), &out[i])
		}
		if got := cb.Resolve(); got != 7 {
			t.Fatalf("round %d: %d lookups for 7 distinct leaves", round, got)
		}
		for i, e := range out {
			if e != out[i%7] {
				t.Fatalf("round %d: leaf %d resolved to %v, its twin to %v", round, i, e, out[i%7])
			}
		}
		for _, at := range cb.firstAt {
			if at != 0 {
				t.Fatalf("round %d: the dedup index kept a slot", round)
			}
		}
		releaseAll(m, out)
	}
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked", live)
	}
}

// TestScannerResetDropsOversizedDedupMap: the scanner's dedup index,
// grown past pool.KeepIndexKeys by one oversized scan, goes back to the
// pool as the zero Index, while one of steady-state size keeps its table
// and comes back empty.
func TestScannerResetDropsOversizedDedupMap(t *testing.T) {
	sc := scannerPool.Get()
	defer scannerPool.Put(sc)
	for i := 0; i <= pool.KeepIndexKeys; i++ {
		sc.at.Number(uint64(i + 1))
	}
	resetScanner(sc)
	if !reflect.ValueOf(sc.at).IsZero() {
		t.Fatal("oversized scan dedup index survived reset")
	}
	sc.at.Number(1)
	resetScanner(sc)
	if reflect.ValueOf(sc.at).IsZero() {
		t.Fatal("steady-state index dropped its table instead of emptying it")
	}
	if n, seen := sc.at.Number(2); n != 0 || seen {
		t.Fatalf("index not emptied by reset: numbered (%d, %v)", n, seen)
	}
}
