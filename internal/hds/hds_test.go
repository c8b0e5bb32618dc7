package hds

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/iterreg"
	"repro/internal/segment"
)

func heap() *Heap { return NewHeap(core.TestConfig()) }

func TestStringRoundTripAndEquality(t *testing.T) {
	h := heap()
	a := NewString(h, []byte("the quick brown fox"))
	b := NewString(h, []byte("the quick brown fox"))
	c := NewString(h, []byte("the quick brown cat"))
	if string(a.Bytes(h)) != "the quick brown fox" {
		t.Fatalf("bytes = %q", a.Bytes(h))
	}
	if !a.Equal(b) {
		t.Fatal("equal strings compare unequal")
	}
	if a.Key() != b.Key() {
		t.Fatal("equal strings have different keys (dedup broken)")
	}
	if a.Equal(c) {
		t.Fatal("different strings compare equal")
	}
}

func TestStringPrefixNotEqual(t *testing.T) {
	h := heap()
	a := NewString(h, []byte("prefix"))
	b := NewString(h, []byte("prefix plus more"))
	if a.Equal(b) {
		t.Fatal("prefix equals longer string")
	}
}

func TestArrayBasics(t *testing.T) {
	h := heap()
	a := NewArray(h)
	for i := uint64(0); i < 20; i++ {
		if _, err := a.Append(i * 10); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() != 20 {
		t.Fatalf("len = %d", a.Len())
	}
	if a.At(7) != 70 {
		t.Fatalf("At(7) = %d", a.At(7))
	}
	if err := a.Set(1000, 42); err != nil {
		t.Fatal(err)
	}
	if a.At(1000) != 42 || a.Len() != 1001 {
		t.Fatal("sparse set/growth broken")
	}
	if a.At(500) != 0 {
		t.Fatal("hole not zero")
	}
}

func TestArraySnapshotStability(t *testing.T) {
	h := heap()
	a := NewArray(h)
	a.Append(1)
	seg, size, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a.Append(2)
	if size != 1 {
		t.Fatalf("snapshot size = %d", size)
	}
	it := iterreg.NewSegmentIterator(h.M, seg)
	if v, _ := it.Load(1); v != 0 {
		t.Fatal("snapshot sees later append")
	}
	segment.ReleaseSeg(h.M, seg)
}

func TestMapGetSetDelete(t *testing.T) {
	h := heap()
	m := NewMap(h)
	k := NewString(h, []byte("user:42"))
	v := NewString(h, []byte(`{"name":"Ada","karma":9001}`))
	if _, ok := m.Get(k); ok {
		t.Fatal("empty map returned a value")
	}
	if err := m.Set(k, v); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Get(k)
	if !ok {
		t.Fatal("set key not found")
	}
	if string(got.Bytes(h)) != `{"name":"Ada","karma":9001}` {
		t.Fatalf("value = %q", got.Bytes(h))
	}
	got.Release(h)
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
	if err := m.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(k); ok {
		t.Fatal("deleted key still present")
	}
	if m.Len() != 0 {
		t.Fatalf("len after delete = %d", m.Len())
	}
}

func TestMapOverwrite(t *testing.T) {
	h := heap()
	m := NewMap(h)
	k := NewString(h, []byte("key"))
	m.Set(k, NewString(h, []byte("old value")))
	m.Set(k, NewString(h, []byte("new value")))
	got, ok := m.Get(k)
	if !ok || string(got.Bytes(h)) != "new value" {
		t.Fatalf("got %q, %v", got.Bytes(h), ok)
	}
	got.Release(h)
}

func TestMapManyKeys(t *testing.T) {
	h := heap()
	m := NewMap(h)
	const n = 200
	for i := 0; i < n; i++ {
		k := NewString(h, []byte(fmt.Sprintf("key-%04d", i)))
		v := NewString(h, []byte(fmt.Sprintf("value payload number %d", i)))
		if err := m.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Len(); got != n {
		t.Fatalf("len = %d, want %d", got, n)
	}
	for i := 0; i < n; i += 17 {
		k := NewString(h, []byte(fmt.Sprintf("key-%04d", i)))
		v, ok := m.Get(k)
		if !ok {
			t.Fatalf("key %d missing", i)
		}
		if want := fmt.Sprintf("value payload number %d", i); string(v.Bytes(h)) != want {
			t.Fatalf("value[%d] = %q", i, v.Bytes(h))
		}
		v.Release(h)
	}
}

func TestMapConcurrentDisjointSets(t *testing.T) {
	// §4.3/§4.4: concurrent inserts of different keys proceed with
	// merge-update, no lost updates.
	h := heap()
	m := NewMap(h)
	const workers, each = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := NewString(h, []byte(fmt.Sprintf("w%d-key%d", g, i)))
				v := NewString(h, []byte(fmt.Sprintf("w%d-val%d", g, i)))
				if err := m.Set(k, v); err != nil {
					t.Errorf("set: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.Len(); got != workers*each {
		t.Fatalf("len = %d, want %d (lost updates)", got, workers*each)
	}
}

func TestMapSnapshotReaderUnaffectedByWrites(t *testing.T) {
	h := heap()
	m := NewMap(h)
	k := NewString(h, []byte("config"))
	m.Set(k, NewString(h, []byte("v1")))
	snap, err := iterreg.Open(h.M, h.SM, m.ReadOnlyVSID())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	m.Set(k, NewString(h, []byte("v2")))
	got, ok := GetBytesFrom(h, snap, []byte("config"))
	if !ok || string(got) != "v1" {
		t.Fatalf("snapshot read %q, %v; want v1", got, ok)
	}
}

func TestCounterConcurrentAdds(t *testing.T) {
	h := heap()
	c := NewCounter(h)
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.Add(3, 1); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(3); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	if got := c.Value(0); got != 0 {
		t.Fatalf("untouched counter = %d", got)
	}
}

// TestCounterIdenticalConcurrentDeltas: every worker adds the same delta to
// the same counter from the same start line, so racing adds build
// identical versions — the case a merge-update publish absorbs. None may
// be lost.
func TestCounterIdenticalConcurrentDeltas(t *testing.T) {
	h := heap()
	c := NewCounter(h)
	const workers, each = 8, 200
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				if _, err := c.Add(0, 1); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := c.Value(0); got != workers*each {
		t.Fatalf("counter = %d, want %d: identical deltas were absorbed", got, workers*each)
	}
}

func TestQueueFIFO(t *testing.T) {
	h := heap()
	q := NewQueue(h)
	for i := 0; i < 10; i++ {
		if err := q.Enqueue(NewString(h, []byte(fmt.Sprintf("item-%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 10 {
		t.Fatalf("len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		s, ok, err := q.Dequeue()
		if err != nil || !ok {
			t.Fatalf("dequeue %d: %v %v", i, ok, err)
		}
		if want := fmt.Sprintf("item-%d", i); string(s.Bytes(h)) != want {
			t.Fatalf("dequeued %q, want %q", s.Bytes(h), want)
		}
		s.Release(h)
	}
	if _, ok, _ := q.Dequeue(); ok {
		t.Fatal("empty queue dequeued something")
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	h := heap()
	q := NewQueue(h)
	const producers, items = 4, 20
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				if err := q.Enqueue(NewString(h, []byte(fmt.Sprintf("p%d-%d", p, i)))); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	seen := make(map[string]bool)
	var mu sync.Mutex
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, ok, err := q.Dequeue()
				if err != nil {
					t.Errorf("dequeue: %v", err)
					return
				}
				if !ok {
					return
				}
				mu.Lock()
				key := string(s.Bytes(h))
				if seen[key] {
					t.Errorf("item %q dequeued twice", key)
				}
				seen[key] = true
				mu.Unlock()
				s.Release(h)
			}
		}()
	}
	wg.Wait()
	if len(seen) != producers*items {
		t.Fatalf("dequeued %d distinct items, want %d", len(seen), producers*items)
	}
}

// TestQueueConcurrentEqualStrings: producers of equal strings (and of
// empty ones, which store no root at all) racing for one tail write
// identical changes; each enqueue must still land in a slot of its own.
func TestQueueConcurrentEqualStrings(t *testing.T) {
	h := heap()
	q := NewQueue(h)
	const producers, items = 8, 50
	start := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s := NewString(h, []byte("the same string"))
			if p%2 == 1 {
				s = NewString(h, nil)
			}
			<-start
			for i := 0; i < items; i++ {
				if err := q.Enqueue(s); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
			s.Release(h)
		}(p)
	}
	close(start)
	wg.Wait()
	if got := q.Len(); got != producers*items {
		t.Fatalf("len = %d, want %d: equal enqueues were absorbed", got, producers*items)
	}
	count := make(map[string]int)
	for {
		s, ok, err := q.Dequeue()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count[string(s.Bytes(h))]++
		s.Release(h)
	}
	if count["the same string"] != producers*items/2 || count[""] != producers*items/2 || len(count) != 2 {
		t.Fatalf("dequeued %v, want %d of each of two strings", count, producers*items/2)
	}
}

func TestMapValueLifetimeAcrossDelete(t *testing.T) {
	// A value fetched before a delete must stay readable (snapshot +
	// explicit retain) after the map drops it.
	h := heap()
	m := NewMap(h)
	k := NewString(h, []byte("ephemeral"))
	m.Set(k, NewString(h, []byte("long enough value to span multiple lines of memory")))
	v, ok := m.Get(k)
	if !ok {
		t.Fatal("missing")
	}
	m.Delete(k)
	if string(v.Bytes(h)) != "long enough value to span multiple lines of memory" {
		t.Fatal("value corrupted after delete")
	}
	v.Release(h)
}

func TestHeapObjectsReleaseCleanly(t *testing.T) {
	h := heap()
	m := NewMap(h)
	k := NewString(h, []byte("k"))
	v := NewString(h, []byte("v"))
	m.Set(k, v)
	k.Release(h)
	v.Release(h)
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	q := NewQueue(h)
	s := NewString(h, []byte("queued"))
	q.Enqueue(s)
	s.Release(h)
	if err := q.Release(); err != nil {
		t.Fatal(err)
	}
	if live := h.M.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked after releasing all objects", live)
	}
}
