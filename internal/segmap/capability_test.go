package segmap

import (
	"sync"
	"testing"

	"repro/internal/segment"
	"repro/internal/word"
)

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
	if snap.Entries != 1 {
		t.Fatalf("entries=%d", snap.Entries)
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
			sm.Delete(v)
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
