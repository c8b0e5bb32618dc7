package pool

import (
	"sync"
	"testing"
)

// TestSliceStatsPinned drives a fixed Get/Release sequence and pins the
// resulting Stats struct exactly, in the bytepool exemplar's style:
// the counters are deterministic because freelists are mutex stacks the
// GC never drains.
func TestSliceStatsPinned(t *testing.T) {
	p := NewSlice[uint64]("test.u64")

	var sc Scratch
	a := p.Get(&sc, 10)   // miss (bin 64)
	b := p.Get(&sc, 100)  // miss (bin 128)
	c := p.Get(&sc, 4096) // miss (bin 4096)
	if len(a) != 10 || len(b) != 100 || len(c) != 4096 {
		t.Fatalf("lengths: %d %d %d", len(a), len(b), len(c))
	}
	if cap(a) != minBinSize || cap(b) != 128 || cap(c) != 4096 {
		t.Fatalf("bin caps: %d %d %d", cap(a), cap(b), cap(c))
	}
	sc.Release()

	want := Stats{Hits: 0, Misses: 3, Oversize: 0, Returned: 3}
	if got := p.Stats(); got != want {
		t.Fatalf("after first round: got %+v want %+v", got, want)
	}

	// Same shapes again: all hits.
	var sc2 Scratch
	_ = p.Get(&sc2, 17)   // hit (bin 64)
	_ = p.Get(&sc2, 128)  // hit (bin 128)
	_ = p.Get(&sc2, 2049) // hit (bin 4096)
	sc2.Release()

	want = Stats{Hits: 3, Misses: 3, Oversize: 0, Returned: 6}
	if got := p.Stats(); got != want {
		t.Fatalf("after second round: got %+v want %+v", got, want)
	}

	// Per-bin rows: bin 64 and 128 each saw one miss, one hit, two puts.
	snap := p.Snapshot()
	if snap.Name != "test.u64" {
		t.Fatalf("name %q", snap.Name)
	}
	for _, bin := range snap.Bins {
		switch bin.Size {
		case 64, 128, 4096:
			if bin.Hits != 1 || bin.Misses != 1 || bin.Returned != 2 {
				t.Fatalf("bin %d: %+v", bin.Size, bin)
			}
		default:
			if bin.Hits != 0 || bin.Misses != 0 || bin.Returned != 0 {
				t.Fatalf("untouched bin %d: %+v", bin.Size, bin)
			}
		}
	}
}

// TestOversizeFallsThrough pins that requests above the largest bin are
// plain allocations: counted in Oversize, never retained by a freelist.
func TestOversizeFallsThrough(t *testing.T) {
	p := NewSlice[byte]("test.oversize")
	var sc Scratch
	s := p.Get(&sc, maxBinSize+1)
	if len(s) != maxBinSize+1 {
		t.Fatalf("len %d", len(s))
	}
	sc.Release()

	want := Stats{Hits: 0, Misses: 0, Oversize: 1, Returned: 1}
	if got := p.Stats(); got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}

	// Again: still no pooling — a second oversize is a second Oversize,
	// and no bin recorded traffic.
	var sc2 Scratch
	_ = p.Get(&sc2, maxBinSize+1)
	sc2.Release()
	want = Stats{Hits: 0, Misses: 0, Oversize: 2, Returned: 2}
	if got := p.Stats(); got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
	for _, bin := range p.Snapshot().Bins {
		if bin.Hits+bin.Misses+bin.Returned != 0 {
			t.Fatalf("oversize leaked into bin %d: %+v", bin.Size, bin)
		}
	}
}

// TestZeroLengthAcquire pins that zero-length borrows work and land in
// the smallest bin.
func TestZeroLengthAcquire(t *testing.T) {
	p := NewSlice[int]("test.zerolen")
	var sc Scratch
	s := p.Get(&sc, 0)
	if len(s) != 0 {
		t.Fatalf("len %d", len(s))
	}
	s = append(s, 1, 2, 3) // capacity comes from the bin
	if cap(s) != minBinSize {
		t.Fatalf("cap %d, want bin size %d", cap(s), minBinSize)
	}
	sc.Release()
	want := Stats{Misses: 1, Returned: 1}
	if got := p.Stats(); got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

// TestGetZeroedAndStaleGet pins the contents contract: Get returns stale
// contents after reuse, GetZeroed returns zeroes.
func TestGetZeroedAndStaleGet(t *testing.T) {
	p := NewSlice[uint64]("test.stale")
	var sc Scratch
	s := p.Get(&sc, 8)
	for i := range s {
		s[i] = 0xdead
	}
	sc.Release()

	var sc2 Scratch
	s2 := p.Get(&sc2, 8)
	if s2[0] != 0xdead {
		t.Fatalf("expected stale contents, got %#x", s2[0])
	}
	sc2.Release()

	var sc3 Scratch
	s3 := p.GetZeroed(&sc3, 8)
	for i, v := range s3 {
		if v != 0 {
			t.Fatalf("GetZeroed[%d] = %#x", i, v)
		}
	}
	sc3.Release()
}

// TestClearOnPut pins that pointerful pools scrub buffers when they go
// dormant.
func TestClearOnPut(t *testing.T) {
	p := NewSlice[*int]("test.ptrclear", WithClearOnPut())
	var sc Scratch
	x := 7
	s := p.Get(&sc, 4)
	s[0] = &x
	sc.Release()

	var sc2 Scratch
	s2 := p.Get(&sc2, 4)
	if s2[0] != nil {
		t.Fatal("dormant buffer kept a pointer alive")
	}
	sc2.Release()
}

// TestIndexEmptiedNotReallocated pins the index contract: keys are
// numbered 0, 1, 2, ... in first-insertion order (across table growth),
// and a returned index comes back empty with its grown table kept.
func TestIndexEmptiedNotReallocated(t *testing.T) {
	before := indexes.Stats()
	var sc Scratch
	x := GetIndex(&sc)
	for i := uint64(0); i < 1000; i++ {
		k := i * 0x10001 // spread and collide in the low bits
		if n, seen := x.Number(k); n != int(i) || seen {
			t.Fatalf("key %d numbered (%d, %v), want (%d, false)", i, n, seen, i)
		}
		if n, seen := x.Number(k); n != int(i) || !seen {
			t.Fatalf("key %d renumbered (%d, %v)", i, n, seen)
		}
	}
	grown := len(x.slots)
	sc.Release()

	var sc2 Scratch
	x2 := GetIndex(&sc2)
	if x2 != x || len(x2.slots) != grown {
		t.Fatalf("reused index: same %v, table %d, want %d", x2 == x, len(x2.slots), grown)
	}
	for _, n := range x2.slots {
		if n != 0 {
			t.Fatal("reset left a slot filled")
		}
	}
	if n, seen := x2.Number(5 * 0x10001); n != 0 || seen {
		t.Fatalf("first key after reset numbered (%d, %v)", n, seen)
	}
	sc2.Release()

	got := indexes.Stats()
	got.Hits -= before.Hits
	got.Misses -= before.Misses
	got.Returned -= before.Returned
	if got.Hits+got.Misses != 2 || got.Returned != 2 {
		t.Fatalf("index pool counters moved by %+v", got)
	}
}

// TestIndexResetDropsOversized pins the index retention bound: an index
// at or under KeepIndexKeys keeps its table, one past it drops it.
func TestIndexResetDropsOversized(t *testing.T) {
	var small, big Index
	small.Number(1)
	small.Reset()
	if small.slots == nil {
		t.Fatal("small index dropped its table")
	}
	for i := uint64(0); i <= KeepIndexKeys; i++ {
		big.Number(i)
	}
	big.Reset()
	if big.slots != nil || big.keys != nil {
		t.Fatal("oversized index kept its table")
	}
	if n, seen := big.Number(7); n != 0 || seen {
		t.Fatalf("dropped index numbered (%d, %v)", n, seen)
	}
}

// TestIndexPoolDropsOversized pins the same bound end to end: returning
// an index grown past KeepIndexKeys hands the next borrower an index
// with no table.
func TestIndexPoolDropsOversized(t *testing.T) {
	var sc Scratch
	x := GetIndex(&sc)
	for i := uint64(0); i <= KeepIndexKeys; i++ {
		x.Number(i)
	}
	sc.Release()
	var sc2 Scratch
	x2 := GetIndex(&sc2)
	defer sc2.Release()
	if x2 == x && x2.slots != nil {
		t.Fatal("index grown past KeepIndexKeys kept its table through the pool")
	}
}

// TestItemPoolResets pins the item pool: reset runs on Put, capacity of
// member slices survives the round trip.
func TestItemPoolResets(t *testing.T) {
	type node struct {
		vals []int
		live bool
	}
	p := NewItems[node]("test.item", func(n *node) {
		n.vals = n.vals[:0]
		n.live = false
	})
	n := p.Get()
	n.vals = append(n.vals, 1, 2, 3)
	n.live = true
	grown := cap(n.vals)
	p.Put(n)

	n2 := p.Get()
	if n2.live || len(n2.vals) != 0 {
		t.Fatalf("reset did not run: %+v", n2)
	}
	if cap(n2.vals) != grown {
		t.Fatalf("member capacity lost: %d vs %d", cap(n2.vals), grown)
	}
	p.Put(n2)
	want := Stats{Hits: 1, Misses: 1, Returned: 2}
	if got := p.Stats(); got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

// TestScratchReleasesAll pins that one Scratch can track buffers from
// several pools of different kinds and returns all of them.
func TestScratchReleasesAll(t *testing.T) {
	ps := NewSlice[uint64]("test.multi.u64")
	pb := NewSlice[byte]("test.multi.byte")
	returned := indexes.Stats().Returned
	var sc Scratch
	_ = ps.Get(&sc, 5)
	_ = pb.GetCap(&sc, 300)
	_ = GetIndex(&sc)
	_ = ps.Get(&sc, 5000)
	sc.Release()

	if got := ps.Stats().Returned; got != 2 {
		t.Fatalf("u64 returned %d", got)
	}
	if got := pb.Stats().Returned; got != 1 {
		t.Fatalf("byte returned %d", got)
	}
	if got := indexes.Stats().Returned - returned; got != 1 {
		t.Fatalf("index returned %d", got)
	}
	// Double release is a no-op.
	sc.Release()
	if got := ps.Stats().Returned; got != 2 {
		t.Fatalf("double release changed counters: %d", got)
	}
}

// TestOwnedBufHandoff pins the cross-goroutine ownership path: GetBuf on
// one goroutine, Release on another.
func TestOwnedBufHandoff(t *testing.T) {
	p := NewSlice[int]("test.handoff")
	ch := make(chan *Buf[int], 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			b := p.GetBuf(256)
			for j := range b.S {
				b.S[j] = i
			}
			ch <- b
		}
		close(ch)
	}()
	sum := 0
	for b := range ch {
		sum += b.S[0]
		b.Release()
	}
	wg.Wait()
	if sum != 0+1+2+3 {
		t.Fatalf("sum %d", sum)
	}
	st := p.Stats()
	if st.Returned != 4 || st.Hits+st.Misses != 4 {
		t.Fatalf("stats %+v", st)
	}
}

// TestConcurrentStress hammers one pool from many goroutines; run it
// under -race -cpu=1,4 (CI does) to pin the freelists race-clean.
func TestConcurrentStress(t *testing.T) {
	ps := NewSlice[uint64]("test.stress.u64")
	returned := indexes.Stats().Returned
	const goroutines = 10
	const rounds = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var sc Scratch
				s := ps.Get(&sc, (g+1)*37%3000)
				for i := range s {
					s[i] = uint64(g)
				}
				GetIndex(&sc).Number(uint64(r))
				b := ps.GetBuf(64)
				b.S[0] = uint64(r)
				b.Release()
				sc.Release()
			}
		}(g)
	}
	wg.Wait()
	st := ps.Stats()
	if st.Hits+st.Misses != goroutines*rounds*2 {
		t.Fatalf("acquire count: %+v", st)
	}
	if st.Returned != goroutines*rounds*2 {
		t.Fatalf("returned count: %+v", st)
	}
	if got := indexes.Stats().Returned - returned; got != goroutines*rounds {
		t.Fatalf("index returned %d", got)
	}
}

// TestRegistrySnapshot pins that constructed pools appear in the global
// snapshot, sorted by name.
func TestRegistrySnapshot(t *testing.T) {
	_ = NewSlice[int]("test.zz.reg")
	_ = NewItems[int]("test.aa.reg", nil)
	snap := Snapshot()
	var sawA, sawZ bool
	for i, ps := range snap {
		if i > 0 && snap[i-1].Name > ps.Name {
			t.Fatalf("snapshot unsorted at %d: %q > %q", i, snap[i-1].Name, ps.Name)
		}
		sawA = sawA || ps.Name == "test.aa.reg"
		sawZ = sawZ || ps.Name == "test.zz.reg"
	}
	if !sawA || !sawZ {
		t.Fatal("registered pools missing from snapshot")
	}
}

// TestBinIndex pins the bin boundary arithmetic.
func TestBinIndex(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{4096, 6}, {65536, numBins - 1}, {65537, -1}, {1 << 20, -1},
	}
	for _, c := range cases {
		if got := binIndex(c.n); got != c.want {
			t.Fatalf("binIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
