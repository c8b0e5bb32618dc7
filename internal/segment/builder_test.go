package segment

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/word"
)

// MemoSize returns the number of memoized lines.
func (b *Builder) MemoSize() int { return len(b.memo) }

// randWords produces a word slice with zero runs and repeated blocks, the
// shapes that exercise zero elision, inlining, compaction and the memo.
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
		case 2: // repeat of an earlier block (memo / dedup fodder)
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
			b := NewBuilder(m, 1)
			got := b.BuildWords(ws, nil)
			if !got.Equal(want) {
				t.Fatalf("arity %d n=%d: bulk root %#x/h%d != serial %#x/h%d",
					arity, n, got.Root, got.Height, want.Root, want.Height)
			}
			// Rebuild through the now-warm memo: still the same root.
			again := b.BuildWords(ws, nil)
			if !again.Equal(want) {
				t.Fatalf("arity %d n=%d: memoized rebuild root %#x != %#x",
					arity, n, again.Root, want.Root)
			}
			// The memo-less package-level build, at every size.
			one := BuildWords(m, ws, nil)
			if !one.Equal(want) {
				t.Fatalf("arity %d n=%d: BuildWords root %#x != %#x", arity, n, one.Root, want.Root)
			}
			ReleaseSeg(m, one)
			ReleaseSeg(m, want)
			ReleaseSeg(m, got)
			ReleaseSeg(m, again)
			b.Close()
			if live := m.LiveLines(); live != 0 {
				t.Fatalf("arity %d n=%d: %d lines leaked after release+Close", arity, n, live)
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
		b := NewBuilder(m, 0)
		got := b.BuildWords(ws, nil)
		if !got.Equal(want) {
			t.Fatalf("arity %d: sparse bulk root %#x != serial %#x", m.LineWords(), got.Root, want.Root)
		}
		ReleaseSeg(m, want)
		ReleaseSeg(m, got)
		b.Close()
		if live := m.LiveLines(); live != 0 {
			t.Fatalf("arity %d: %d lines leaked", m.LineWords(), live)
		}
	}
}

func TestBuilderBuildBytesMatchesPackage(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	data := make([]byte, 1023)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	want := BuildBytes(m, data)
	b := NewBuilder(m, 0)
	got := b.BuildBytes(data)
	if !got.Equal(want) {
		t.Fatalf("BuildBytes roots differ: %#x vs %#x", got.Root, want.Root)
	}
	ReleaseSeg(m, want)
	ReleaseSeg(m, got)
	b.Close()
}

func TestPackWordsLE(t *testing.T) {
	// The binary.LittleEndian fast path must agree with the byte-shift
	// definition on every alignment, including the empty string.
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 33; n++ {
		bs := make([]byte, n)
		rng.Read(bs)
		got := packWordsLE(bs)
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

func TestBuilderMemoHitsSkipLookups(t *testing.T) {
	// A memo hit must not charge phantom DRAM lookups: rebuilding content
	// the memo already holds performs zero lookup-by-content operations.
	m := core.NewMachine(core.TestConfig())
	rng := rand.New(rand.NewSource(9))
	ws := make([]uint64, 2048)
	for i := range ws {
		ws[i] = rng.Uint64() // full-width so every leaf needs a real line
	}
	b := NewBuilder(m, 1)
	first := b.BuildWords(ws, nil)
	before := m.Stats().Store
	second := b.BuildWords(ws, nil)
	after := m.Stats().Store
	if d := after.Lookups - before.Lookups; d != 0 {
		t.Fatalf("memoized rebuild reached DRAM with %d lookups", d)
	}
	if d := after.LookupTraffic() - before.LookupTraffic(); d != 0 {
		t.Fatalf("memoized rebuild charged %d lookup-traffic accesses", d)
	}
	if !first.Equal(second) {
		t.Fatalf("memoized rebuild changed root: %#x vs %#x", second.Root, first.Root)
	}
	ReleaseSeg(m, first)
	ReleaseSeg(m, second)
	b.Close()
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked", live)
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

func TestBuilderMemoHoldsNoRefs(t *testing.T) {
	// The memo records content→PLID associations without references:
	// releasing the only segment frees every line even while the memo
	// still remembers them, and the now-stale entries must fail
	// revalidation and fall back to real lookups on the next build.
	m := core.NewMachine(core.TestConfig())
	b := NewBuilder(m, 0)
	payload := []byte("content remembered by the memo but owned only by the segment")
	seg := b.BuildBytes(payload)
	if b.MemoSize() == 0 {
		t.Fatalf("expected memo entries after a build")
	}
	ReleaseSeg(m, seg)
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("memo pinned %d lines after segment release", live)
	}
	again := b.BuildBytes(payload)
	want := BuildWordsSerial(m, packWordsLE(payload), nil)
	if !again.Equal(want) {
		t.Fatalf("rebuild through a stale memo produced root %#x, want %#x",
			again.Root, want.Root)
	}
	ReleaseSeg(m, again)
	ReleaseSeg(m, want)
	b.Close()
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked after Close", live)
	}
}

// TestBuilderMemoInsertsUntilCap pins the memo policy: a long-lived
// Builder over content that never repeats records every miss — well past
// the point where a hit-rate policy would have given up on it — until the
// table holds memoCap entries, after which it keeps serving lookups and
// stops learning.
func TestBuilderMemoInsertsUntilCap(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	b := NewBuilder(m, 1)
	defer b.Close()
	if b.memoCap != defaultMemoCap {
		t.Fatalf("memo cap %d, want %d", b.memoCap, defaultMemoCap)
	}
	rng := rand.New(rand.NewSource(21))
	ws := make([]uint64, 512)
	build := func() {
		for i := range ws {
			ws[i] = rng.Uint64()
		}
		ReleaseSeg(m, b.BuildWords(ws, nil))
	}
	// The first build creates the table, so its level-0 inserts have no
	// consultation to pair with; count from there.
	build()
	s0 := b.Stats()
	for b.Stats().MemoLookups-s0.MemoLookups < 1<<15 {
		build()
	}
	st := b.Stats()
	if got, want := st.MemoInserts-s0.MemoInserts, (st.MemoLookups-s0.MemoLookups)-(st.MemoHits-s0.MemoHits); got != want {
		t.Fatalf("memo inserted %d of %d misses over fresh content: %+v", got, want, st)
	}

	// Past the cap only a stale entry's slot (its line was freed and the
	// entry dropped on revalidation) takes a new insert.
	b.memoCap = b.MemoSize() + 10
	build()
	build()
	after := b.Stats()
	if b.MemoSize() != b.memoCap {
		t.Fatalf("memo holds %d entries, cap %d", b.MemoSize(), b.memoCap)
	}
	misses := (after.MemoLookups - st.MemoLookups) - (after.MemoHits - st.MemoHits)
	if inserts := after.MemoInserts - st.MemoInserts; inserts >= misses/2 {
		t.Fatalf("full memo recorded %d of %d misses", inserts, misses)
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
	// Many Builders over one shared machine, all building the same inputs
	// concurrently, must agree on every root and leak nothing. Run with
	// -race: this is the store/LLC/builder interleaving stress.
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
			b := NewBuilder(m, 1)
			defer b.Close()
			segs := make([]Seg, len(inputs))
			for i, ws := range inputs {
				segs[i] = b.BuildWords(ws, nil)
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
