package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/word"
)

// Regression: the overflow-hit path of Lookup used to charge LookupReads
// without registering the access with the row tracker, under-counting the
// bucket row's activity. The chain read must touch the bucket's row like
// every other access of the lookup protocol.
func TestOverflowHitTouchesBucketRow(t *testing.T) {
	s := New(Config{LineBytes: 16, BucketBits: 4, DataWays: 1})
	rng := rand.New(rand.NewSource(11))
	// Fill well past 16 buckets x 1 way so some lines land in overflow.
	var ovContent word.Content
	found := false
	for i := 0; i < 200; i++ {
		c := word.NewContent(2)
		c.W[0], c.W[1] = rng.Uint64(), rng.Uint64()
		p, _ := s.Lookup(c)
		if s.isOverflow(p) {
			ovContent, found = c, true
		}
	}
	if !found {
		t.Fatal("setup: no overflow-resident line")
	}

	// Warm the row tracker: one hit-lookup opens the bucket's row.
	if _, existed := s.Lookup(ovContent); !existed {
		t.Fatal("overflow line not found")
	}
	before := s.RowStats()
	beforeReads := s.StatsSnapshot().LookupReads
	// The second identical lookup must stay entirely in the open bucket
	// row: the signature read AND the overflow chain read are both row
	// touches (>= 2 row hits, 0 new activations). Before the fix the
	// chain read was invisible to the tracker and only one touch showed.
	if _, existed := s.Lookup(ovContent); !existed {
		t.Fatal("overflow line not found on repeat")
	}
	after := s.RowStats()
	if got := s.StatsSnapshot().LookupReads - beforeReads; got == 0 {
		t.Fatal("overflow hit did not charge a LookupRead")
	}
	if acts := after.Activations - before.Activations; acts != 0 {
		t.Fatalf("repeat lookup opened %d rows; all accesses belong to the open bucket row", acts)
	}
	if hits := after.RowHits - before.RowHits; hits < 2 {
		t.Fatalf("repeat lookup registered %d row touches, want >= 2 (sig read + overflow chain read)", hits)
	}
	// Drop the extra refs the two hit-lookups took.
	s.Release(mustPLID(s, ovContent))
	s.Release(mustPLID(s, ovContent))
}

func mustPLID(s *Store, c word.Content) word.PLID {
	p, existed := s.Lookup(c)
	if !existed {
		panic("content vanished")
	}
	s.Release(p) // undo the lookup's retain; caller releases the real ref
	return p
}

// buildChain creates a linear DAG of depth levels over a distinctive leaf
// and returns the root PLID. Interior nodes hold the only reference to
// their child, so releasing the root frees the whole chain.
func buildChain(s *Store, tag uint64, depth int) word.PLID {
	c := word.NewContent(s.LineWords())
	c.W[0], c.W[1] = tag, ^tag
	p, _ := s.Lookup(c)
	for i := 0; i < depth; i++ {
		parent := word.NewContent(s.LineWords())
		parent.W[0], parent.T[0] = uint64(p), word.TagPLID
		parent.W[1] = tag ^ uint64(i)<<32
		np, _ := s.Lookup(parent) // retains p for the new line
		s.Release(p)              // drop the build ref
		p = np
	}
	return p
}

// Stress: goroutines concurrently build and release overlapping DAGs —
// every goroutine's chains bottom out in a small shared set of leaves, so
// stripe locks, reference counts and the dedup index all contend. The
// striped store must neither leak nor double-free, and CheckConsistency
// must hold at quiescence. Run with -race.
func TestConcurrentLookupRelease(t *testing.T) {
	s := New(Config{LineBytes: 16, BucketBits: 6, DataWays: 4})
	const goroutines = 8
	const rounds = 60

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			var held []word.PLID
			for i := 0; i < rounds; i++ {
				// Shared tag space: goroutines collide on the same contents,
				// exercising the dedup path and rc contention — and the tag
				// cycle (3) is shorter than the held window (6), so every
				// goroutine re-looks-up leaves it still holds alive,
				// guaranteeing dedup hits however the scheduler interleaves.
				tag := uint64(i % 3)
				p := buildChain(s, tag, 1+(i/3)%4)
				held = append(held, p)
				if len(held) > 6 {
					s.Release(held[0])
					held = held[1:]
				}
			}
			for _, p := range held {
				s.Release(p)
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if live := s.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked after concurrent churn", live)
	}
	if err := s.CheckConsistency(nil); err != nil {
		t.Fatal(err)
	}
	st := s.StatsSnapshot()
	if st.LookupHits == 0 {
		t.Fatal("overlapping DAGs never deduplicated")
	}
}

// Batches under concurrency: goroutines look up two-level DAGs through
// LookupBatchInto — a batch of leaves shared across goroutines, then a
// batch of parents naming them, so each fresh parent's child is retained
// by retainAll, overflow lines among them — while they release earlier
// DAGs. A batch holds several stripes at once; none may deadlock, leak
// or double-free, and CheckConsistency must hold at quiescence. Run with
// -race.
func TestConcurrentLookupBatchRelease(t *testing.T) {
	s := New(Config{LineBytes: 16, BucketBits: 4, DataWays: 2})
	const goroutines, rounds, width = 6, 40, 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			leaves, parents := make([]word.Content, width), make([]word.Content, width)
			lp, pp, existed := make([]word.PLID, width), make([]word.PLID, width), make([]bool, width)
			var held []word.PLID
			for i := 0; i < rounds; i++ {
				for j := range leaves {
					leaves[j] = word.NewContent(2)
					leaves[j].W[0], leaves[j].W[1] = uint64(j+i%5)+1, 7
				}
				s.LookupBatchInto(leaves, lp, existed)
				for j := range parents {
					parents[j] = word.NewContent(2)
					parents[j].W[0], parents[j].T[0] = uint64(lp[j]), word.TagPLID
					parents[j].W[1] = uint64(g % 2)
				}
				s.LookupBatchInto(parents, pp, existed)
				for _, p := range lp {
					s.Release(p)
				}
				held = append(held, pp...)
				if len(held) > 3*width {
					for _, p := range held[:width] {
						s.Release(p)
					}
					held = held[width:]
				}
			}
			for _, p := range held {
				s.Release(p)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if live := s.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked after concurrent batches", live)
	}
	if err := s.CheckConsistency(nil); err != nil {
		t.Fatal(err)
	}
	if st := s.StatsSnapshot(); st.Overflows == 0 || st.LookupHits == 0 {
		t.Fatalf("%d overflow allocations and %d dedup hits, want some of each", st.Overflows, st.LookupHits)
	}
}

// Stress the overflow area specifically: tiny bucket space so most lines
// spill, with concurrent alloc/dedup/release traffic through ovMu.
func TestConcurrentOverflowChurn(t *testing.T) {
	s := New(Config{LineBytes: 16, BucketBits: 4, DataWays: 1})
	const goroutines = 6
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Hold every looked-up line until the end of the pass: 60
			// distinct contents against 16 buckets x 1 way guarantees
			// overflow spills whatever the interleaving.
			var held []word.PLID
			for i := 0; i < 80; i++ {
				c := word.NewContent(2)
				// Overlapping contents across goroutines.
				c.W[0], c.W[1] = uint64(i%20)+1, uint64(g%3)
				p, _ := s.Lookup(c)
				if got := s.Read(p); got != c {
					panic(fmt.Sprintf("read %v != %v", got, c))
				}
				held = append(held, p)
			}
			for _, p := range held {
				s.Release(p)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if live := s.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked", live)
	}
	if err := s.CheckConsistency(nil); err != nil {
		t.Fatal(err)
	}
	if s.StatsSnapshot().Overflows == 0 {
		t.Fatal("expected overflow traffic with 4 buckets x 1 way")
	}
}

// Growth under concurrency: writers push a handful of buckets — two of
// them sharing a stripe — past the small width, up to full width and into
// overflow, while readers Read, batch-read, Retain and Release the lines
// those buckets held before they grew. Run with -race -cpu=1,2,4.
// Afterwards every line still reads its content, and CheckConsistency and
// a ForEachLive count agree with what the test holds.
func TestGrowthUnderConcurrentAccess(t *testing.T) {
	s := New(Config{LineBytes: 16, BucketBits: 8, DataWays: 12})
	bkts := []uint64{3, 3 + numStripes, 17, 42}
	const perBucket = 16 // 12 ways, then 4 overflow lines each
	cs := contentsFor(s, bkts, perBucket)

	// The older lines: two per bucket, allocated before any growth.
	var old []word.PLID
	var oldContent []word.Content
	for _, b := range bkts {
		for _, c := range cs[b][:2] {
			p, _ := s.Lookup(c)
			old, oldContent = append(old, p), append(oldContent, c)
		}
	}

	const writers, readers = 4, 4
	start := make(chan struct{})
	done := make(chan struct{})
	newPLIDs := make([][]word.PLID, writers)
	var wg, rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			// Writer w takes every writers-th remaining content of every
			// bucket, so all writers allocate into each bucket at once.
			for i := 2 + w; i < perBucket; i += writers {
				for _, b := range bkts {
					c := cs[b][i]
					p, existed := s.Lookup(c)
					if existed {
						panic(fmt.Sprintf("fresh content %v already resident", c))
					}
					if got := s.Read(p); got != c {
						panic(fmt.Sprintf("PLID %#x reads %v, want %v", uint64(p), got, c))
					}
					newPLIDs[w] = append(newPLIDs[w], p)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			<-start
			out := make([]word.Content, len(old))
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, p := range old {
					if got := s.Read(p); got != oldContent[i] {
						panic(fmt.Sprintf("old PLID %#x reads %v, want %v", uint64(p), got, oldContent[i]))
					}
					s.Retain(p)
					if s.RefCount(p) < 2 {
						panic("retained line lost its reference")
					}
					s.Release(p)
				}
				s.ReadBatchInto(old, out)
				for i := range out {
					if out[i] != oldContent[i] {
						panic(fmt.Sprintf("batch read of %#x = %v, want %v", uint64(old[i]), out[i], oldContent[i]))
					}
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
	close(done)
	rg.Wait()

	held := make(map[word.PLID]uint64)
	for i, p := range old {
		held[p]++
		if got := s.Read(p); got != oldContent[i] {
			t.Fatalf("old PLID %#x reads %v, want %v", uint64(p), got, oldContent[i])
		}
	}
	for _, ps := range newPLIDs {
		for _, p := range ps {
			held[p]++
		}
	}
	if want := len(bkts) * perBucket; len(held) != want {
		t.Fatalf("%d distinct PLIDs, want %d", len(held), want)
	}
	for _, b := range bkts {
		for _, c := range cs[b] {
			p, existed := s.Lookup(c)
			if !existed || held[p] == 0 {
				t.Fatalf("content %v resolves to %#x (existed %v), not a held PLID", c, uint64(p), existed)
			}
			s.Release(p)
		}
	}
	if err := s.CheckConsistency(held); err != nil {
		t.Fatal(err)
	}
	walked := 0
	s.ForEachLive(func(p word.PLID, _ word.Content, rc uint64) bool {
		if rc != held[p] {
			t.Errorf("ForEachLive: %#x rc %d, want %d", uint64(p), rc, held[p])
		}
		walked++
		return true
	})
	if walked != len(held) || s.LiveLines() != uint64(len(held)) {
		t.Fatalf("ForEachLive visited %d lines, LiveLines %d, want %d", walked, s.LiveLines(), len(held))
	}
	ts := s.TableStats()
	if ts.FullBuckets != uint64(len(bkts)) || s.StatsSnapshot().Overflows == 0 {
		t.Fatalf("grew %d buckets with %d overflow allocations, want %d buckets and some overflow",
			ts.FullBuckets, s.StatsSnapshot().Overflows, len(bkts))
	}
	for p, n := range held {
		for ; n > 0; n-- {
			s.Release(p)
		}
	}
	if live := s.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked", live)
	}
}
