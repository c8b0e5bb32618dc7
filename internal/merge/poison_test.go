package merge

import (
	"reflect"
	"testing"

	"repro/internal/pool"
)

// White-box pin for the merger's index retention bound, mirroring the
// segment package's poison tests: the descent's read-dedup index is at
// its widest when the walk ends, and an oversized one must go back to
// the pool as the zero Index rather than pin its table for every later
// merge.
func TestMergerResetDropsOversizedReadMap(t *testing.T) {
	w := mergerPool.Get()
	defer mergerPool.Put(w)
	for i := 0; i <= pool.KeepIndexKeys; i++ {
		w.readAt.Number(uint64(i + 1))
	}
	resetMerger(w)
	if !reflect.ValueOf(w.readAt).IsZero() {
		t.Fatal("oversized read-dedup index survived reset")
	}
	w.readAt.Number(1)
	resetMerger(w)
	if reflect.ValueOf(w.readAt).IsZero() {
		t.Fatal("steady-state index dropped its table instead of emptying it")
	}
	if n, seen := w.readAt.Number(2); n != 0 || seen {
		t.Fatalf("index not emptied by reset: numbered (%d, %v)", n, seen)
	}
}
