package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hds"
	"repro/internal/merge"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// The §2.4/§3.4 contention claim, measured: under multi-writer
// merge-update the cost of a commit tracks the *overlap* between
// concurrent updates, not the size of the shared structure.
//
// Contention is generated deterministically (the 1-CPU container rarely
// interleaves optimistic goroutines mid-update): each round, every
// writer builds its version against the same snapshot and the versions
// publish sequentially, so all but the first publish per round are
// guaranteed stale and must rebase through the merge engine — the
// paper's concurrent-set conflict model with the conflict probability
// pinned to 1. Two sweeps:
//
//   - Disjoint-range writers over growing segment sizes: every rebase
//     succeeds and the simulated-DRAM cost per commit stays flat as the
//     segment grows 16× — the wave merge only walks changed paths,
//     untouched sub-DAGs pass by PLID comparison.
//
//   - Overlapping key ranges: writers bind worker-distinct value PLIDs
//     to partially shared key sets. Shared keys are true conflicts
//     (distinct references stored into one field), so the merge aborts
//     and the batch replays against the committed version; cost and
//     throughput degrade with the overlap fraction while the disjoint
//     end commits without replays.

// DisjointRow is one segment size of the disjoint-writer sweep.
type DisjointRow struct {
	Words         uint64 // preloaded segment size
	Workers       int
	Commits       uint64 // successful MCAS publishes
	Conflicts     uint64 // CAS attempts that lost and merged
	DRAMPerCommit float64
}

// OverlapRow is one overlap fraction of the overlapping-range sweep.
type OverlapRow struct {
	Overlap      float64 // fraction of each worker's keys drawn from the shared pool
	Workers      int
	Keys         uint64 // key commits attempted (constant across fractions)
	KeysPerSec   float64
	CASConflicts uint64 // segment-map CAS losses (merge attempts)
	Replays      uint64 // commits replayed after a true merge conflict
	DRAMPerKey   float64
}

// ContentionResult carries the raw sweep rows for tests.
type ContentionResult struct {
	Disjoint []DisjointRow
	Overlap  []OverlapRow
}

// RunContention produces the contention table: the disjoint-range DRAM
// flatness sweep and the overlapping-range degradation sweep.
func RunContention(sc Scale) (Table, ContentionResult, error) {
	t := Table{
		Title: "Sec 2.4/3.4: multi-writer contention (merge-update)",
		Note:  "disjoint writers: DRAM/commit flat as the segment grows; overlapping writers: cost degrades with overlap, not size",
		Headers: []string{"sweep", "param", "workers", "commits",
			"conflicts", "cost"},
	}
	var res ContentionResult

	workers, rounds := 4, 24
	sizes := []uint64{1 << 12, 1 << 14, 1 << 16}
	if sc == ScalePaper {
		workers, rounds = 8, 100
		sizes = []uint64{1 << 12, 1 << 16, 1 << 20}
	}
	for _, words := range sizes {
		row, err := runDisjointContention(words, workers, rounds)
		if err != nil {
			return t, res, err
		}
		res.Disjoint = append(res.Disjoint, row)
		t.AddRow("disjoint", fmt.Sprintf("%d words", row.Words), u(uint64(row.Workers)),
			u(row.Commits), u(row.Conflicts),
			fmt.Sprintf("%.1f DRAM/commit", row.DRAMPerCommit))
	}

	oRounds, keysPerWkr := 16, 8
	if sc == ScalePaper {
		oRounds, keysPerWkr = 60, 16
	}
	for _, f := range []float64{0, 0.25, 0.5, 1.0} {
		row, err := runOverlapContention(f, workers, oRounds, keysPerWkr)
		if err != nil {
			return t, res, err
		}
		res.Overlap = append(res.Overlap, row)
		t.AddRow("overlap", pct(row.Overlap), u(uint64(row.Workers)),
			u(row.Keys), u(row.CASConflicts),
			fmt.Sprintf("%.0f keys/s, %d replays", row.KeysPerSec, row.Replays))
	}
	return t, res, nil
}

// runDisjointContention preloads a merge-update word segment and drives
// stale-snapshot rounds of disjoint single-word commits spread across
// the whole range, measuring simulated DRAM per successful commit.
func runDisjointContention(words uint64, workers, rounds int) (DisjointRow, error) {
	h := hds.NewHeap(core.Config{
		LineBytes: 64, BucketBits: 16, DataWays: 12,
		CacheLines: 1 << 15, CacheWays: 8, // ample LLC: capacity misses excluded
	})
	ws := make([]uint64, words)
	for i := range ws {
		ws[i] = uint64(i%251) + 1
	}
	base := segment.BuildWords(h.M, ws, nil)
	vsid := h.SM.Create(segmap.Entry{
		Seg: base, Size: words * 8, Flags: segmap.FlagMergeUpdate,
	})
	// Exclude the preload's deferred writebacks from the measured window.
	h.M.FlushCache()
	h.M.ResetStats()

	stride := words / uint64(workers*rounds)
	if stride == 0 {
		stride = 1
	}
	for r := 0; r < rounds; r++ {
		e, err := h.SM.Load(vsid)
		if err != nil {
			return DisjointRow{}, err
		}
		// Every worker builds against the same snapshot; all but the
		// first publish rebases over the round's earlier committers.
		for g := 0; g < workers; g++ {
			idx := (uint64(g*rounds+r) * stride) % words
			next, _ := segment.WriteBatch(h.M, e.Seg,
				[]segment.Update{{Idx: idx, W: uint64(g*rounds+r) + 1000, T: word.TagRaw}})
			ok, err := merge.MCAS(h.M, h.SM, vsid, e.Seg, next, words*8, nil)
			if err != nil || !ok {
				segment.ReleaseSeg(h.M, e.Seg)
				return DisjointRow{}, fmt.Errorf("disjoint worker %d round %d: ok=%v err=%v", g, r, ok, err)
			}
		}
		segment.ReleaseSeg(h.M, e.Seg)
	}
	h.M.FlushCache()
	dramTotal := h.M.Stats().Store.Total()
	okCAS, failCAS := h.SM.CASStats()
	return DisjointRow{
		Words:         words,
		Workers:       workers,
		Commits:       okCAS,
		Conflicts:     failCAS,
		DRAMPerCommit: float64(dramTotal) / float64(okCAS),
	}, nil
}

// runOverlapContention drives stale-snapshot rounds of per-key commits
// whose key sets share an overlap fraction of a common pool. Values are
// worker-distinct PLIDs, so a shared key is a true conflict: the stale
// publisher's merge aborts and the commit replays against the committed
// version (the application-level retry the paper prescribes for real
// conflicts). Replay work — and therefore cost per key — scales with
// the overlap fraction, not the structure size.
func runOverlapContention(overlap float64, workers, rounds, keysPerWkr int) (OverlapRow, error) {
	h := hds.NewHeap(core.Config{
		LineBytes: 64, BucketBits: 16, DataWays: 12,
		CacheLines: 1 << 15, CacheWays: 8,
	})
	vsid := h.SM.Create(segmap.Entry{
		Seg: segment.NewSparse(8), Flags: segmap.FlagMergeUpdate,
	})
	shared := int(overlap * float64(keysPerWkr))
	arity := uint64(h.M.LineWords())

	// Worker-distinct value references.
	vals := make([]word.PLID, workers)
	for g := range vals {
		vals[g] = h.M.LookupLine(word.ContentFromBytes(h.M.LineWords(),
			[]byte(fmt.Sprintf("value of worker %d", g))))
	}
	h.M.FlushCache()
	h.M.ResetStats()

	var replays uint64
	start := time.Now()
	for r := 0; r < rounds; r++ {
		e, err := h.SM.Load(vsid)
		if err != nil {
			return OverlapRow{}, err
		}
		// Every worker publishes its keys against the round's snapshot.
		for g := 0; g < workers; g++ {
			for k := 0; k < keysPerWkr; k++ {
				var idx uint64
				if k < shared {
					// Shared pool: the same key slots for every worker,
					// spread one per line so each conflict dirties its
					// own path.
					idx = uint64(r*keysPerWkr+k) * arity
				} else {
					// Private range per worker.
					idx = uint64(1<<16) + uint64((g*rounds+r)*keysPerWkr+k)*arity
				}
				snap, owned := e.Seg, false
				for {
					next, _ := segment.WriteBatch(h.M, snap,
						[]segment.Update{{Idx: idx, W: uint64(vals[g]), T: word.TagPLID}})
					ok, merr := merge.MCAS(h.M, h.SM, vsid, snap, next, 0, nil)
					if owned {
						segment.ReleaseSeg(h.M, snap)
						owned = false
					}
					if ok {
						break
					}
					if merr != nil && merr != merge.ErrConflict {
						segment.ReleaseSeg(h.M, e.Seg)
						return OverlapRow{}, merr
					}
					// True conflict: replay against the committed version.
					replays++
					cur, lerr := h.SM.Load(vsid)
					if lerr != nil {
						segment.ReleaseSeg(h.M, e.Seg)
						return OverlapRow{}, lerr
					}
					snap, owned = cur.Seg, true
				}
			}
		}
		segment.ReleaseSeg(h.M, e.Seg)
	}
	secs := time.Since(start).Seconds()
	h.M.FlushCache()
	dramTotal := h.M.Stats().Store.Total()
	_, failCAS := h.SM.CASStats()
	total := uint64(workers * rounds * keysPerWkr)
	return OverlapRow{
		Overlap:      overlap,
		Workers:      workers,
		Keys:         total,
		KeysPerSec:   float64(total) / secs,
		CASConflicts: failCAS,
		Replays:      replays,
		DRAMPerKey:   float64(dramTotal) / float64(total),
	}, nil
}
