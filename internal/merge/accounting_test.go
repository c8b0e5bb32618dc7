package merge

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/word"
)

// Simulated-DRAM accounting pins for the merge rebase engine, following
// the WriteBatch twin-machine discipline: identical machines replay
// identical preloads (PLIDs are allocation-order-dependent, so only
// machines with identical histories are comparable), the LLC is ample so
// neither path is charged for capacity misses, and the cache is flushed
// after the measured operation so deferred writebacks are included.

func ampleMachine(lineBytes int) *core.Machine {
	return core.NewMachine(core.Config{
		LineBytes: lineBytes, BucketBits: 16, DataWays: 12,
		CacheLines: 1 << 15, CacheWays: 8,
	})
}

func dram(m *core.Machine, fn func()) uint64 {
	m.ResetStats()
	fn()
	m.FlushCache()
	return m.Stats().Store.Total()
}

// mergeTriple builds, on one machine, an orig of n random words plus mod
// and cur versions carrying k disjoint single-word updates each. The
// updates land on adjacent words of the same k leaf lines (mod the even
// word, cur the odd), so the merge cannot resolve by sub-DAG skipping
// near the root: it must co-walk all k root-to-leaf paths and word-merge
// the k leaves — the worst case for a fixed number of changed paths.
func mergeTriple(m *core.Machine, n, k int, seed int64) (orig, mod, cur segment.Seg) {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = rng.Uint64() % 1000
	}
	// BuildWords runs one serialized schedule, so the twins' allocations
	// (hence their row-buffer and overflow charges) cannot drift apart.
	orig = segment.BuildWords(m, ws, nil)
	ups := func(off int) []segment.Update {
		out := make([]segment.Update, k)
		for i := range out {
			out[i] = segment.Update{
				Idx: uint64((n/k)*i + off),
				W:   rng.Uint64()%1000 + 2000,
				T:   word.TagRaw,
			}
		}
		return out
	}
	mod, _ = segment.WriteBatch(m, orig, ups(0))
	cur, _ = segment.WriteBatch(m, orig, ups(1))
	// Flush so the preload's deferred writebacks are not charged to the
	// measured merge window (dram flushes after the measured op).
	m.FlushCache()
	return orig, mod, cur
}

// TestMergeAccountingPin is the twin-machine pin that the wave rebase
// never charges more simulated DRAM than the recursive reference walker
// on the same input: same line reads (deduped per level rather than per
// node), same lookups, same reference-count traffic.
func TestMergeAccountingPin(t *testing.T) {
	const lineBytes, n, k = 64, 8192, 24
	ma, mb := ampleMachine(lineBytes), ampleMachine(lineBytes)
	oa, da, ca := mergeTriple(ma, n, k, 1)
	ob, db, cb := mergeTriple(mb, n, k, 1)

	var wave, serial segment.Seg
	var err error
	waveDram := dram(ma, func() {
		wave, err = Merge(ma, oa, da, ca, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	serialDram := dram(mb, func() {
		serial, err = MergeSerial(mb, ob, db, cb, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !wave.Equal(serial) {
		t.Fatalf("wave %#x != serial %#x on twin machines", wave.Root, serial.Root)
	}
	if waveDram > serialDram {
		t.Fatalf("wave merge charged %d DRAM accesses, serial %d — wave must not cost more",
			waveDram, serialDram)
	}
	t.Logf("merge DRAM: wave %d, serial %d", waveDram, serialDram)
}

// TestMergeDRAMFlatAcrossSize pins the §2.4/§3.4 claim the contention
// benchmark measures: merged-commit DRAM cost is proportional to the
// changed paths, not the segment size. The same k-update merge on a 16×
// larger segment must cost well under 16× the DRAM (the walk only
// descends changed paths; untouched sub-DAGs pass by PLID comparison).
func TestMergeDRAMFlatAcrossSize(t *testing.T) {
	const lineBytes, k = 64, 16
	measure := func(n int) uint64 {
		m := ampleMachine(lineBytes)
		orig, mod, cur := mergeTriple(m, n, k, 7)
		var err error
		d := dram(m, func() {
			_, err = Merge(m, orig, mod, cur, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	small := measure(4096)
	big := measure(16 * 4096)
	if big*2 >= small*16 {
		t.Fatalf("merge DRAM grew with segment size: %d @4096 words vs %d @65536 words",
			small, big)
	}
	t.Logf("merge DRAM: %d @4096 words, %d @65536 words (16× size)", small, big)
}
