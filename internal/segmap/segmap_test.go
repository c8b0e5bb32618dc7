package segmap

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/word"
)

func setup(t *testing.T) (*core.Machine, *Map) {
	t.Helper()
	m := core.NewMachine(core.TestConfig())
	return m, New(m)
}

func mkSeg(m *core.Machine, s string) segment.Seg {
	return segment.BuildBytes(m, []byte(s))
}

func TestCreateLoad(t *testing.T) {
	m, sm := setup(t)
	seg := mkSeg(m, "hello segment map")
	v := sm.Create(Entry{Seg: seg, Size: 17})
	e, err := sm.Load(v)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Seg.Equal(seg) || e.Size != 17 {
		t.Fatalf("loaded %+v", e)
	}
	segment.ReleaseSeg(m, e.Seg)
}

func TestLoadRetainsSnapshot(t *testing.T) {
	// Snapshot isolation: a loaded segment must survive a concurrent
	// commit that replaces (and would otherwise reclaim) the old DAG.
	m, sm := setup(t)
	v := sm.Create(Entry{Seg: mkSeg(m, "version one of the data")})
	snap, _ := sm.Load(v)
	old, _ := sm.Load(v)
	if !sm.CAS(v, old.Seg, mkSeg(m, "version two of the data"), 23) {
		t.Fatal("CAS failed")
	}
	segment.ReleaseSeg(m, old.Seg)
	// The snapshot must still read as version one.
	got := segment.ReadBytes(m, snap.Seg, 0, 23)
	if string(got) != "version one of the data" {
		t.Fatalf("snapshot corrupted: %q", got)
	}
	segment.ReleaseSeg(m, snap.Seg)
	if err := m.CheckConsistency(sm.externalRefs()); err != nil {
		t.Fatal(err)
	}
}

func TestCASConflictFails(t *testing.T) {
	m, sm := setup(t)
	base := mkSeg(m, "base")
	v := sm.Create(Entry{Seg: base})
	winner := mkSeg(m, "winner")
	if !sm.CAS(v, base, winner, 6) {
		t.Fatal("first CAS failed")
	}
	loser := mkSeg(m, "loser")
	if sm.CAS(v, base, loser, 5) {
		t.Fatal("stale CAS succeeded")
	}
	segment.ReleaseSeg(m, loser) // failed CAS leaves ownership with caller
	e, _ := sm.Load(v)
	if string(segment.ReadBytes(m, e.Seg, 0, 6)) != "winner" {
		t.Fatal("wrong version visible")
	}
	segment.ReleaseSeg(m, e.Seg)
}

func TestReadOnlyRefCannotUpdate(t *testing.T) {
	m, sm := setup(t)
	base := mkSeg(m, "protected")
	v := sm.Create(Entry{Seg: base})
	ro := ReadOnlyRef(v)
	if !IsReadOnly(ro) || IsReadOnly(v) {
		t.Fatal("capability bits wrong")
	}
	e, err := sm.Load(ro)
	if err != nil {
		t.Fatal("read-only load must work:", err)
	}
	segment.ReleaseSeg(m, e.Seg)
	next := mkSeg(m, "attack!!!")
	if sm.CAS(ro, base, next, 9) {
		t.Fatal("CAS through read-only reference succeeded")
	}
	segment.ReleaseSeg(m, next)
	if err := sm.Delete(ro); err == nil {
		t.Fatal("delete through read-only reference succeeded")
	}
}

func TestDeleteReleasesRoot(t *testing.T) {
	m, sm := setup(t)
	v := sm.Create(Entry{Seg: mkSeg(m, "to be deleted, content long enough to use lines")})
	if m.LiveLines() == 0 {
		t.Fatal("setup: no lines")
	}
	if err := sm.Delete(v); err != nil {
		t.Fatal(err)
	}
	if m.LiveLines() != 0 {
		t.Fatalf("%d lines leaked after delete", m.LiveLines())
	}
	if _, err := sm.Load(v); err == nil {
		t.Fatal("load of deleted VSID succeeded")
	}
}

func TestBatchAtomicCommit(t *testing.T) {
	// §2.3: multiple segments updated by one atomic commit.
	m, sm := setup(t)
	v1 := sm.Create(Entry{Seg: mkSeg(m, "account A: 100")})
	v2 := sm.Create(Entry{Seg: mkSeg(m, "account B: 50")})
	b := sm.Begin()
	e1, _ := b.Load(v1)
	e2, _ := b.Load(v2)
	segment.ReleaseSeg(m, e1.Seg)
	segment.ReleaseSeg(m, e2.Seg)
	b.Store(v1, Entry{Seg: mkSeg(m, "account A: 70"), Size: 14})
	b.Store(v2, Entry{Seg: mkSeg(m, "account B: 80"), Size: 13})
	if !b.Commit() {
		t.Fatal("batch commit failed")
	}
	g1, _ := sm.Load(v1)
	g2, _ := sm.Load(v2)
	if string(segment.ReadBytes(m, g1.Seg, 0, 13)) != "account A: 70" {
		t.Fatalf("v1 = %q", segment.ReadBytes(m, g1.Seg, 0, 13))
	}
	if string(segment.ReadBytes(m, g2.Seg, 0, 13)) != "account B: 80" {
		t.Fatalf("v2 = %q", segment.ReadBytes(m, g2.Seg, 0, 13))
	}
	segment.ReleaseSeg(m, g1.Seg)
	segment.ReleaseSeg(m, g2.Seg)
}

func TestBatchConflictAbortsAll(t *testing.T) {
	m, sm := setup(t)
	v1 := sm.Create(Entry{Seg: mkSeg(m, "x1")})
	v2 := sm.Create(Entry{Seg: mkSeg(m, "x2")})
	b := sm.Begin()
	e1, _ := b.Load(v1)
	segment.ReleaseSeg(m, e1.Seg)
	b.Store(v1, Entry{Seg: mkSeg(m, "b1")})
	b.Store(v2, Entry{Seg: mkSeg(m, "b2")})
	// Interleaving writer commits to v1 before the batch.
	cur, _ := sm.Load(v1)
	if !sm.CAS(v1, cur.Seg, mkSeg(m, "i1"), 2) {
		t.Fatal("interleaving CAS failed")
	}
	segment.ReleaseSeg(m, cur.Seg)
	if b.Commit() {
		t.Fatal("conflicting batch committed")
	}
	// v2 must be untouched by the failed batch.
	g2, _ := sm.Load(v2)
	if string(segment.ReadBytes(m, g2.Seg, 0, 2)) != "x2" {
		t.Fatal("failed batch partially applied")
	}
	segment.ReleaseSeg(m, g2.Seg)
}

func TestConcurrentCASOneWinnerPerRound(t *testing.T) {
	m, sm := setup(t)
	v := sm.Create(Entry{Seg: mkSeg(m, "counter: 0")})
	var wg sync.WaitGroup
	wins := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				old, _ := sm.Load(v)
				next := segment.BuildBytes(m, []byte("counter: g"+string(rune('0'+g))))
				if sm.CAS(v, old.Seg, next, 11) {
					wins[g]++
				} else {
					segment.ReleaseSeg(m, next)
				}
				segment.ReleaseSeg(m, old.Seg)
			}
		}(g)
	}
	wg.Wait()
	ok, fail := sm.CASStats()
	if ok+fail != 8*50 {
		t.Fatalf("CAS attempts %d+%d != 400", ok, fail)
	}
	if ok == 0 {
		t.Fatal("no CAS ever succeeded")
	}
	if err := m.CheckConsistency(sm.externalRefs()); err != nil {
		t.Fatal(err)
	}
}

// externalRefs reports the root references the map currently owns, for
// consistency checking in tests.
func (sm *Map) externalRefs() map[word.PLID]uint64 {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	ext := make(map[word.PLID]uint64)
	for _, s := range sm.slots {
		if s.used && s.e.Seg.Root != word.Zero {
			ext[s.e.Seg.Root]++
		}
	}
	return ext
}
