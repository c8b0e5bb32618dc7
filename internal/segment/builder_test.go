package segment

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/word"
)

// randWords produces a word slice with zero runs and repeated blocks, the
// shapes that exercise zero elision, inlining, compaction and within-level
// dedup.
func randWords(rng *rand.Rand, n int) []uint64 {
	ws := make([]uint64, n)
	i := 0
	for i < n {
		run := 1 + rng.Intn(16)
		if run > n-i {
			run = n - i
		}
		switch rng.Intn(4) {
		case 0: // zero run
			i += run
		case 1: // small values (inline-packable leaves)
			for j := 0; j < run; j++ {
				ws[i+j] = uint64(rng.Intn(200))
			}
			i += run
		case 2: // repeat of an earlier block (dedup fodder)
			if i > run {
				copy(ws[i:i+run], ws[i-run:i])
			} else {
				ws[i] = rng.Uint64()
			}
			i += run
		default: // full-width random
			for j := 0; j < run; j++ {
				ws[i+j] = rng.Uint64()
			}
			i += run
		}
	}
	return ws
}

func TestBuilderMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, m := range machines(t) {
		arity := m.LineWords()
		// 1023 and 1025 leaves straddle the level size at which builds
		// once fanned out across goroutines.
		sizes := []int{1, arity, arity + 1, 63, 257, 1023 * arity, 1024*arity + 1, 4096}
		for _, n := range sizes {
			ws := randWords(rng, n)
			want := BuildWordsSerial(m, ws, nil)
			got := BuildWords(m, ws, nil)
			if !got.Equal(want) {
				t.Fatalf("arity %d n=%d: bulk root %#x/h%d != serial %#x/h%d",
					arity, n, got.Root, got.Height, want.Root, want.Height)
			}
			// Rebuild while the first build still holds every line: the
			// batch lookups now hit, and the root is the same.
			again := BuildWords(m, ws, nil)
			if !again.Equal(want) {
				t.Fatalf("arity %d n=%d: rebuild root %#x != %#x",
					arity, n, again.Root, want.Root)
			}
			ReleaseSeg(m, want)
			ReleaseSeg(m, got)
			ReleaseSeg(m, again)
			if live := m.LiveLines(); live != 0 {
				t.Fatalf("arity %d n=%d: %d lines leaked after release", arity, n, live)
			}
		}
	}
}

func TestBuilderSparseMatchesSerial(t *testing.T) {
	// Mostly-zero inputs drive the zero-elision and path-compaction arms.
	for _, m := range machines(t) {
		ws := make([]uint64, 5000)
		ws[0] = 7
		ws[1234] = 0xdeadbeef
		ws[4999] = 1
		want := BuildWordsSerial(m, ws, nil)
		got := BuildWords(m, ws, nil)
		if !got.Equal(want) {
			t.Fatalf("arity %d: sparse bulk root %#x != serial %#x", m.LineWords(), got.Root, want.Root)
		}
		ReleaseSeg(m, want)
		ReleaseSeg(m, got)
		if live := m.LiveLines(); live != 0 {
			t.Fatalf("arity %d: %d lines leaked", m.LineWords(), live)
		}
	}
}

// TestBuilderBuildBytesMatchesPackage: BuildBytes is BuildWords over the
// little-endian packing of its bytes, so its root is the serial oracle's
// over the same words.
func TestBuilderBuildBytesMatchesPackage(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	data := make([]byte, 1023)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	want := BuildWordsSerial(m, packWords(data), nil)
	got := BuildBytes(m, data)
	if !got.Equal(want) {
		t.Fatalf("BuildBytes roots differ: %#x vs %#x", got.Root, want.Root)
	}
	ReleaseSeg(m, want)
	ReleaseSeg(m, got)
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked", live)
	}
}

// packWords packs b into fresh words. packWordsLE writes every word of
// its destination, so it starts from stale ones, as pooled scratch does.
func packWords(b []byte) []uint64 {
	ws := make([]uint64, (len(b)+7)/8)
	for i := range ws {
		ws[i] = ^uint64(0)
	}
	packWordsLE(ws, b)
	return ws
}

func TestPackWordsLE(t *testing.T) {
	// The binary.LittleEndian fast path must agree with the byte-shift
	// definition on every alignment, including the empty string.
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 33; n++ {
		bs := make([]byte, n)
		rng.Read(bs)
		got := packWords(bs)
		want := make([]uint64, (n+7)/8)
		for i := range bs {
			want[i/8] |= uint64(bs[i]) << (8 * (i % 8))
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d words, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d word %d: %#x want %#x", n, i, got[i], want[i])
			}
		}
	}
}

func TestBatchLookupChargesLikeSerialLookup(t *testing.T) {
	// At the store (no LLC in the way), the same fresh contents cost the
	// same Stats.Total() whether looked up one at a time or in one batch:
	// batching coalesces lock round trips, not simulated DRAM accesses.
	// (Machine-level totals can differ between orders because LLC eviction
	// timing shifts; the store's accounting must not.)
	mkContents := func(s *store.Store) []word.Content {
		rng := rand.New(rand.NewSource(11))
		cs := make([]word.Content, 600)
		for i := range cs {
			c := word.NewContent(s.LineWords())
			for j := 0; j < s.LineWords(); j++ {
				c.W[j] = rng.Uint64()
			}
			cs[i] = c
		}
		return cs
	}
	cfg := store.Config{LineBytes: 32, BucketBits: 8, DataWays: 12}

	sSerial := store.New(cfg)
	for _, c := range mkContents(sSerial) {
		sSerial.LookupTo(c, sSerial.OnRCTouch)
	}
	serial := sSerial.StatsSnapshot()

	sBulk := store.New(cfg)
	sBulk.LookupBatch(mkContents(sBulk))
	bulk := sBulk.StatsSnapshot()

	if bulk.Total() != serial.Total() {
		t.Fatalf("batch DRAM total %d != serial %d for identical fresh contents\nserial: %+v\nbulk:   %+v",
			bulk.Total(), serial.Total(), serial, bulk)
	}
	if bulk.Allocs != serial.Allocs || bulk.Lookups != serial.Lookups {
		t.Fatalf("batch allocs/lookups %d/%d != serial %d/%d",
			bulk.Allocs, bulk.Lookups, serial.Allocs, serial.Lookups)
	}
}

// --- materializeRoot edge-tag coverage -----------------------------------

func TestMaterializeRootZero(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	before := m.LiveLines()
	if p := materializeRoot(m, ZeroEdge); p != word.Zero {
		t.Fatalf("zero edge materialized to %#x", p)
	}
	if m.LiveLines() != before {
		t.Fatalf("zero materialization allocated lines")
	}
}

func TestMaterializeRootPLID(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	c := word.NewContent(m.LineWords())
	c.W[0] = 0xfeedface00000001 // too wide to inline
	p := m.LookupLine(c)
	before := m.LiveLines()
	root := materializeRoot(m, PLIDEdge(p))
	if root != p {
		t.Fatalf("PLID edge materialized to %#x, want %#x", root, p)
	}
	if m.LiveLines() != before {
		t.Fatalf("PLID materialization allocated lines")
	}
	m.Release(root)
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked", live)
	}
}

func TestMaterializeRootInline(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	arity := m.LineWords()
	vals := make([]uint64, arity)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	w, ok := word.PackInline(vals, arity)
	if !ok {
		t.Fatalf("small values must pack inline")
	}
	before := m.LiveLines()
	root := materializeRoot(m, Edge{W: w, T: word.TagInline})
	if root == word.Zero {
		t.Fatalf("inline edge materialized to zero")
	}
	got := m.ReadLine(root)
	for i := range vals {
		if got.W[i] != vals[i] || got.T[i] != word.TagRaw {
			t.Fatalf("word %d: got %#x/%v want %#x/raw", i, got.W[i], got.T[i], vals[i])
		}
	}
	if m.LiveLines() != before+1 {
		t.Fatalf("inline materialization allocated %d lines, want 1", m.LiveLines()-before)
	}
	m.Release(root)
	if m.LiveLines() != before {
		t.Fatalf("inline root release leaked lines")
	}
}

func TestMaterializeRootCompactSingleStep(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	arity := m.LineWords()
	leafWs := make([]uint64, arity)
	leafTs := make([]word.Tag, arity)
	leafWs[0] = 0xabcdef0123456789 // forces a real leaf line
	leaf := CanonLeaf(m, leafWs, leafTs)
	if leaf.T != word.TagPLID {
		t.Fatalf("leaf edge tag %v, want plid", leaf.T)
	}

	kids := make([]Edge, arity)
	kids[arity-1] = leaf
	e := CanonNode(m, kids) // single child: compacts
	leaf.Release(m)
	if e.T != word.TagCompact {
		t.Fatalf("single-child node tag %v, want compact", e.T)
	}

	root := materializeRoot(m, e)
	c := m.ReadLine(root)
	if c.T[arity-1] != word.TagPLID || c.W[arity-1] != uint64(leaf.W) {
		t.Fatalf("materialized root word %d = %#x/%v, want leaf PLID %#x",
			arity-1, c.W[arity-1], c.T[arity-1], leaf.W)
	}
	m.Release(root)
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked", live)
	}
}

func TestMaterializeRootCompactMultiStep(t *testing.T) {
	// A two-deep single-child chain compacts into one edge with a two-step
	// path; materializing it must expand only the top node, leaving the
	// rest of the chain as a compact word inside the new root line.
	m := core.NewMachine(core.TestConfig())
	arity := m.LineWords()
	leafWs := make([]uint64, arity)
	leafTs := make([]word.Tag, arity)
	leafWs[0] = 0x123456789abcdef0
	leaf := CanonLeaf(m, leafWs, leafTs)

	kids := make([]Edge, arity)
	kids[1] = leaf
	mid := CanonNode(m, kids)
	leaf.Release(m)

	kids = make([]Edge, arity)
	kids[0] = mid
	top := CanonNode(m, kids)
	mid.Release(m)
	if top.T != word.TagCompact {
		t.Fatalf("chained node tag %v, want compact", top.T)
	}
	_, path := word.DecodeCompact(top.W, arity, m.PLIDBits())
	if len(path) != 2 || path[0] != 0 || path[1] != 1 {
		t.Fatalf("compact path %v, want [0 1]", path)
	}

	root := materializeRoot(m, top)
	c := m.ReadLine(root)
	if c.T[0] != word.TagCompact {
		t.Fatalf("root word 0 tag %v, want compact (rest of chain)", c.T[0])
	}
	p, rest := word.DecodeCompact(c.W[0], arity, m.PLIDBits())
	if len(rest) != 1 || rest[0] != 1 {
		t.Fatalf("inner compact path %v, want [1]", rest)
	}
	got := m.ReadLine(p)
	if got.W[0] != leafWs[0] {
		t.Fatalf("chain does not reach the leaf: %#x", got.W[0])
	}
	m.Release(root)
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked", live)
	}
}

// --- concurrency ----------------------------------------------------------

func TestBuildersConcurrentIdenticalRoots(t *testing.T) {
	// Many goroutines over one shared machine, all building the same
	// inputs concurrently, must agree on every root and leak nothing. Run
	// with -race: this is the store/LLC/build interleaving stress.
	m := core.NewMachine(core.Config{
		LineBytes: 32, BucketBits: 12, DataWays: 12, CacheLines: 512, CacheWays: 4,
	})
	rng := rand.New(rand.NewSource(100))
	inputs := make([][]uint64, 4)
	for i := range inputs {
		inputs[i] = randWords(rng, 4*(1000+i*16)) // 1 000 to 1 048 leaves
	}

	const goroutines = 8
	roots := make([][]Seg, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			segs := make([]Seg, len(inputs))
			for i, ws := range inputs {
				segs[i] = BuildWords(m, ws, nil)
			}
			roots[g] = segs
		}(g)
	}
	wg.Wait()

	for i := range inputs {
		want := roots[0][i]
		for g := 1; g < goroutines; g++ {
			if !roots[g][i].Equal(want) {
				t.Fatalf("goroutine %d input %d: root %#x != %#x", g, i, roots[g][i].Root, want.Root)
			}
		}
	}
	for g := range roots {
		for _, s := range roots[g] {
			ReleaseSeg(m, s)
		}
	}
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked after concurrent builds", live)
	}
}
