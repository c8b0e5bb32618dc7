package segment

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/word"
)

// Scheduling-independence pins. DRAM accounting is a function of the
// serialized memory-operation schedule, so a large build must charge the
// same counters and land on the same root PLIDs whatever GOMAXPROCS the
// process runs at. Both fixtures have levels of more than a thousand
// lines, the size at which builds once fanned out across goroutines and
// their counters and roots varied run to run at -cpu=2. CI runs the suite
// at -cpu=1,2,4, with and without -race. The constants were recorded at
// -cpu=1 on the commit before builds became serial.

// accountingMachine is a 16 B-line machine with a 256-line LLC, small
// enough that a build's lookups miss, evict and write back.
func accountingMachine() *core.Machine {
	return core.NewMachine(core.Config{LineBytes: 16, BucketBits: 14, DataWays: 12, CacheLines: 256, CacheWays: 4})
}

type accountingPin struct {
	root  word.PLID
	stats core.Stats // after the root is released and the LLC flushed
}

// buildWordsAccounting builds 16 384 seeded words with the package-level
// BuildWords: three quarters full-width random words, one quarter drawn
// from four repeated values (two of them inline-packable), so the levels
// mix real lines, inline leaves and within-level duplicates.
func buildWordsAccounting(t *testing.T) accountingPin {
	m := accountingMachine()
	rng := rand.New(rand.NewSource(3016))
	repeated := [4]uint64{1, 2, 0xdeadbeefcafe, 3 << 50}
	ws := make([]uint64, 16384)
	for i := range ws {
		if rng.Intn(4) == 0 {
			ws[i] = repeated[rng.Intn(len(repeated))]
		} else {
			ws[i] = rng.Uint64()
		}
	}
	s := BuildWords(m, ws, nil)
	if got := readWordsBulk(m, s, 0, uint64(len(ws))); len(got) != len(ws) || got[0] != ws[0] || got[len(ws)-1] != ws[len(ws)-1] {
		t.Fatalf("BuildWords does not read back its input")
	}
	return finishAccounting(t, m, s.Root)
}

// quadAccounting canonicalizes a quad tree the way spmv.BuildQTS does on
// 2-word lines: 1 024 2x2 blocks of float64 bits become 2 048 leaves
// (CanonLeaves), one node per block, then each level combines four
// quadrant edges through two CanonNodes passes until one root remains.
func quadAccounting(t *testing.T) accountingPin {
	m := accountingMachine()
	rng := rand.New(rand.NewSource(3017))
	const blocks = 1024
	ws := make([]uint64, 4*blocks)
	for i := range ws {
		if rng.Intn(4) != 0 {
			ws[i] = math.Float64bits(float64(1 + rng.Intn(40)))
		}
	}
	rows := CanonLeaves(m, ws) // top, bot per block
	edges := CanonNodes(m, rows)
	releaseAll(m, rows)
	for len(edges) > 1 {
		halves := CanonNodes(m, edges) // left, right per parent
		parents := CanonNodes(m, halves)
		releaseAll(m, halves)
		releaseAll(m, edges)
		edges = parents
	}
	return finishAccounting(t, m, materializeRoot(m, edges[0]))
}

func finishAccounting(t *testing.T, m *core.Machine, root word.PLID) accountingPin {
	t.Helper()
	m.Release(root)
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked", live)
	}
	m.FlushCache()
	return accountingPin{root: root, stats: m.Stats()}
}

func TestBuildAccountingIndependentOfProcs(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T) accountingPin
		want accountingPin
	}{
		{"BuildWords", buildWordsAccounting, accountingPin{root: 0x94b4, stats: core.Stats{
			Store: store.Stats{SigReads: 0x3df8, SigWrites: 0x3df8, DataReads: 0x3dc2, LookupReads: 0x26, DataWrites: 0x3df8,
				RCReads: 0xb829, RCWrites: 0xf535, DeallocOps: 0x3df8, Lookups: 0x3df8, LookupHits: 0x0, Allocs: 0x3df8,
				Frees: 0x3df8, FalseSig: 0x26, Overflows: 0x0},
			Cache:     cachesim.Stats{Hits: 0x8e7, Misses: 0x170ef, Inserts: 0x170ef, Evictions: 0x16fef, DirtyEvts: 0x1322d},
			LookupOps: 0x3df8, ReadOps: 0x3df8}}},
		{"CanonLeavesNodes", quadAccounting, accountingPin{root: 0x9d31, stats: core.Stats{
			Store: store.Stats{SigReads: 0xb19, SigWrites: 0xb19, DataReads: 0x0, LookupReads: 0x0, DataWrites: 0xaf3,
				RCReads: 0x27ec, RCWrites: 0x32d6, DeallocOps: 0xb19, Lookups: 0xb19, LookupHits: 0x0, Allocs: 0xb19,
				Frees: 0xb19, FalseSig: 0x0, Overflows: 0x0},
			Cache:     cachesim.Stats{Hits: 0xa5c, Misses: 0x3def, Inserts: 0x3def, Evictions: 0x3cef, DirtyEvts: 0x3cef},
			LookupOps: 0xb19, ReadOps: 0x0}}},
	} {
		got := tc.run(t)
		if got != tc.want {
			t.Errorf("%s: accounting moved\n got %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}
