package kvstore

import (
	"testing"

	"repro/internal/segment"
)

// Registering the same (map, root) twice must reuse the live pin: hot
// read traffic on an unchanged version may not churn the bounded
// registry, or a client's in-flight gets→cas pin would be evicted by
// unrelated reads and the cas answered EXISTS spuriously. Eviction is
// LRU, so a refreshed pin outlives a colder one.
func TestTokenRegistryDedupAndLRU(t *testing.T) {
	store := NewHicampServer(testCfg())
	mp := store.NamespaceFor([]byte("k"))
	if err := store.Set([]byte("k"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	reg := newTokenRegistry(store.Heap, 2)
	defer reg.close()

	snap := func() (segment.Seg, uint64) {
		t.Helper()
		seg, size, err := mp.SnapshotEntry()
		if err != nil {
			t.Fatal(err)
		}
		return seg, size
	}

	segA, sizeA := snap()
	tokA := reg.Register(mp, segA, sizeA)
	segA2, sizeA2 := snap()
	if tok := reg.Register(mp, segA2, sizeA2); tok != tokA {
		t.Fatalf("same-root registration minted token %d, want %d reused", tok, tokA)
	}

	if err := store.Set([]byte("k2"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	segB, sizeB := snap()
	tokB := reg.Register(mp, segB, sizeB)
	if tokB == tokA {
		t.Fatalf("distinct roots share token %d", tokB)
	}

	// Refresh A to the hot end via a dedup hit (Acquire's reference is
	// handed to Register), then overflow the cap with a third root: the
	// eviction must take B — the coldest — not the refreshed A.
	pinA, ok := reg.Acquire(tokA)
	if !ok {
		t.Fatal("tokA vanished before cap was reached")
	}
	if tok := reg.Register(mp, pinA.seg, pinA.size); tok != tokA {
		t.Fatalf("dedup refresh minted token %d, want %d", tok, tokA)
	}
	if err := store.Set([]byte("k3"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	segC, sizeC := snap()
	tokC := reg.Register(mp, segC, sizeC)

	if _, ok := reg.Acquire(tokB); ok {
		t.Fatal("coldest pin survived past-cap registration")
	}
	for _, tok := range []uint64{tokA, tokC} {
		p, ok := reg.Acquire(tok)
		if !ok {
			t.Fatalf("token %d evicted, want live", tok)
		}
		segment.ReleaseSeg(store.Heap.M, p.seg)
	}
}
