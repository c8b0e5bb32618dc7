package segmap

import (
	"sync"
	"testing"

	"repro/internal/segment"
	"repro/internal/word"
)

// Regression: Batch.Store used to accept a weak-alias VSID and silently
// follow it to the target at commit, letting a non-updating reference
// mutate the entry it aliased. A weak VSID must be rejected at Store,
// exactly like Map.CAS rejects it.
func TestBatchStoreRejectsWeakVSID(t *testing.T) {
	m, sm := setup(t)
	v := sm.Create(Entry{Seg: mkSeg(m, "guarded target")})
	w := sm.CreateWeakAlias(v)

	b := sm.Begin()
	evil := mkSeg(m, "smuggled write!")
	if err := b.Store(w, Entry{Seg: evil, Size: 15}); err == nil {
		b.Abort()
		t.Fatal("batch store through weak VSID accepted")
	}
	// The rejected store leaves ownership with the caller.
	segment.ReleaseSeg(m, evil)
	b.Abort()

	e, _ := sm.Load(v)
	if string(segment.ReadBytes(m, e.Seg, 0, 14)) != "guarded target" {
		t.Fatalf("target mutated through weak alias: %q",
			segment.ReadBytes(m, e.Seg, 0, 14))
	}
	segment.ReleaseSeg(m, e.Seg)

	snap := sm.Snapshot()
	if snap.Total.Denied == 0 {
		t.Fatal("capability denial not recorded in Snapshot")
	}
	if err := m.CheckConsistency(sm.externalRefs()); err != nil {
		t.Fatal(err)
	}
}

// A batch that mixes a valid store with a weak-VSID store must still
// commit the valid one after the weak store errors out.
func TestBatchWeakRejectionDoesNotPoisonBatch(t *testing.T) {
	m, sm := setup(t)
	v := sm.Create(Entry{Seg: mkSeg(m, "aa")})
	w := sm.CreateWeakAlias(v)

	b := sm.Begin()
	bad := mkSeg(m, "xx")
	if err := b.Store(w, Entry{Seg: bad}); err == nil {
		t.Fatal("weak store accepted")
	}
	segment.ReleaseSeg(m, bad)
	b.Store(v, Entry{Seg: mkSeg(m, "bb"), Size: 2})
	if !b.Commit() {
		t.Fatal("commit of remaining valid store failed")
	}
	e, _ := sm.Load(v)
	if string(segment.ReadBytes(m, e.Seg, 0, 2)) != "bb" {
		t.Fatal("valid store lost")
	}
	segment.ReleaseSeg(m, e.Seg)
}

// Regression: CreateWeakAlias of a VSID that is itself a weak alias used
// to record the alias *slot* as its target. Deleting the intermediate
// alias then wrongly zeroed the second-level alias while the base segment
// was still live — and deleting the base left the second-level alias
// resurrecting through a dangling chain. The chain must be resolved to
// the base target at creation.
func TestWeakAliasOfWeakAliasTracksBaseTarget(t *testing.T) {
	m, sm := setup(t)
	v := sm.Create(Entry{Seg: mkSeg(m, "base segment data")})
	w1 := sm.CreateWeakAlias(v)
	w2 := sm.CreateWeakAlias(w1)

	// Deleting the intermediate alias must NOT affect w2: its target is
	// the base entry, which is still live.
	if err := sm.Delete(w1); err != nil {
		t.Fatal(err)
	}
	e, err := sm.Load(w2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seg.Root == word.Zero {
		t.Fatal("alias-of-alias zeroed by intermediate alias deletion")
	}
	if string(segment.ReadBytes(m, e.Seg, 0, 17)) != "base segment data" {
		t.Fatalf("alias-of-alias reads %q", segment.ReadBytes(m, e.Seg, 0, 17))
	}
	segment.ReleaseSeg(m, e.Seg)

	// Deleting the base must zero w2 like any weak reference.
	if err := sm.Delete(v); err != nil {
		t.Fatal(err)
	}
	e, err = sm.Load(w2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seg.Root != word.Zero {
		t.Fatal("alias-of-alias survived base target deletion")
	}
	if m.LiveLines() != 0 {
		t.Fatal("alias chain kept the segment alive")
	}
}

// An alias of an already-zeroed alias must itself read as zero, not
// resurrect through slot reuse of the base target.
func TestWeakAliasOfDeadAliasStaysZero(t *testing.T) {
	m, sm := setup(t)
	v := sm.Create(Entry{Seg: mkSeg(m, "short-lived")})
	w1 := sm.CreateWeakAlias(v)
	if err := sm.Delete(v); err != nil {
		t.Fatal(err)
	}
	// w1 now reads zero; a new alias chained through it must too — even
	// after the base slot is reused by an unrelated entry.
	w2 := sm.CreateWeakAlias(w1)
	v2 := sm.Create(Entry{Seg: mkSeg(m, "new occupant")})
	e, err := sm.Load(w2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seg.Root != word.Zero {
		t.Fatal("alias of dead alias resurrected against slot reuse")
	}
	if err := sm.Delete(v2); err != nil {
		t.Fatal(err)
	}
}

// Snapshot must expose per-VSID commit/conflict/denial/abort counters and
// keep Total monotone across entry deletion.
func TestSnapshotTelemetry(t *testing.T) {
	m, sm := setup(t)
	v := sm.Create(Entry{Seg: mkSeg(m, "t0")})

	// One commit, one conflict, one denial, one abort.
	old, _ := sm.Load(v)
	if !sm.CAS(v, old.Seg, mkSeg(m, "t1"), 2) {
		t.Fatal("CAS failed")
	}
	stale := mkSeg(m, "t2")
	if sm.CAS(v, old.Seg, stale, 2) {
		t.Fatal("stale CAS succeeded")
	}
	segment.ReleaseSeg(m, stale)
	segment.ReleaseSeg(m, old.Seg)
	ro := ReadOnlyRef(v)
	denied := mkSeg(m, "t3")
	if sm.CAS(ro, segment.Seg{}, denied, 2) {
		t.Fatal("read-only CAS succeeded")
	}
	segment.ReleaseSeg(m, denied)
	b := sm.Begin()
	b.Store(v, Entry{Seg: mkSeg(m, "t4")})
	b.Abort()

	snap := sm.Snapshot()
	st, ok := snap.PerVSID[v]
	if !ok {
		t.Fatalf("no per-VSID stats for %#x: %+v", uint64(v), snap)
	}
	if st.Commits != 1 || st.Conflicts != 1 || st.Denied != 1 {
		t.Fatalf("per-VSID stats = %+v", st)
	}
	if len(b.aborted) != 1 || b.aborted[0] != v {
		t.Fatalf("abort dropped stores for %v, want [%#x]", b.aborted, uint64(v))
	}
	if snap.Total != st {
		t.Fatalf("total %+v != per-VSID %+v with one entry", snap.Total, st)
	}
	if snap.Entries != 1 || snap.Weak != 0 {
		t.Fatalf("entries=%d weak=%d", snap.Entries, snap.Weak)
	}

	// Totals survive slot reclamation.
	if err := sm.Delete(v); err != nil {
		t.Fatal(err)
	}
	after := sm.Snapshot()
	if after.Total != st {
		t.Fatalf("total changed across delete: %+v", after.Total)
	}
	if len(after.PerVSID) != 0 {
		t.Fatal("deleted slot still listed per-VSID")
	}
}

// Stress: concurrent CAS, batch commits and deletes over an overlapping
// set of VSIDs, under the race detector. Checks that the map survives
// entry churn without leaking or corrupting reference counts.
func TestConcurrentCASBatchDelete(t *testing.T) {
	m, sm := setup(t)
	const nVSID = 6
	const rounds = 40

	vsids := make([]word.VSID, nVSID)
	for i := range vsids {
		vsids[i] = sm.Create(Entry{Seg: mkSeg(m, "seed entry number "+string(rune('0'+i)))})
	}

	var wg sync.WaitGroup
	// CAS writers over all entries.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := vsids[(g+i)%nVSID]
				old, err := sm.Load(v)
				if err != nil {
					continue // entry deleted by the churn goroutine
				}
				next := segment.BuildBytes(m, []byte("cas writer update g"+string(rune('0'+g))))
				if !sm.CAS(v, old.Seg, next, 21) {
					segment.ReleaseSeg(m, next)
				}
				segment.ReleaseSeg(m, old.Seg)
			}
		}(g)
	}
	// Batch writers over overlapping pairs.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				a, b := vsids[(g+i)%nVSID], vsids[(g+i+1)%nVSID]
				batch := sm.Begin()
				ea, err := batch.Load(a)
				if err != nil {
					batch.Abort()
					continue
				}
				segment.ReleaseSeg(m, ea.Seg)
				batch.Store(a, Entry{Seg: segment.BuildBytes(m, []byte("batch a"))})
				batch.Store(b, Entry{Seg: segment.BuildBytes(m, []byte("batch b"))})
				batch.Commit() // failure releases the buffered roots
			}
		}(g)
	}
	// Churn: delete and recreate one entry repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/2; i++ {
			v := sm.Create(Entry{Seg: segment.BuildBytes(m, []byte("churned entry"))})
			w := sm.CreateWeakAlias(v)
			if e, err := sm.Load(w); err == nil && e.Seg.Root != word.Zero {
				segment.ReleaseSeg(m, e.Seg)
			}
			sm.Delete(v)
			sm.Delete(w)
		}
	}()
	wg.Wait()

	snap := sm.Snapshot()
	if snap.Total.Commits == 0 {
		t.Fatal("no update ever committed under contention")
	}
	for _, v := range vsids {
		if err := sm.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	if m.LiveLines() != 0 {
		t.Fatalf("%d lines leaked after concurrent churn", m.LiveLines())
	}
	if err := m.CheckConsistency(nil); err != nil {
		t.Fatal(err)
	}
}
