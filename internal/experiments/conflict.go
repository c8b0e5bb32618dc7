package experiments

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/hds"
	"repro/internal/iterreg"
	"repro/internal/merge"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// The §5.1.1 concurrency analysis, in two parts: the paper's analytic
// model evaluated at its own parameters (checking we reproduce 2 µs
// update latency, conflict probability 0.04 at N=10^6 / 0.06 at 10^9,
// and ~200 ns merge-update latency), and a live contention run driving
// goroutines through MCAS on a shared map to measure the actual CAS
// conflict and merge-resolution rates in the simulator.

// DRAMLatency is the paper's DRAM access latency constant.
const DRAMLatency = 50e-9 // 50 ns

// AnalyticRow is one parameter point of the model.
type AnalyticRow struct {
	N          float64 // key-value pairs in the map
	LineBytes  int
	Levels     float64 // DAG levels touched by an update
	UpdateSec  float64 // 2 * levels * tDRAM
	ConflictP  float64 // updateSec / meanSetInterval
	MergeSec   float64 // geometric series ~= 4 * tDRAM
	SetPeriodS float64
}

// Analytic evaluates the paper's model: an 8-processor system at 200 K
// commands/s with a 10:1 get:set ratio issues one set every 50 µs; a map
// update reloads and regenerates log_fanout(N) levels, each costing one
// DRAM read on the way down and one lookup on the way up.
func Analytic(n float64, lineBytes int) AnalyticRow {
	fanout := float64(lineBytes / 8)
	levels := math.Log(n) / math.Log(fanout)
	update := 2 * levels * DRAMLatency
	const setPeriod = 50e-6 // one set per 50 microseconds
	return AnalyticRow{
		N:         n,
		LineBytes: lineBytes,
		Levels:    levels,
		UpdateSec: update,
		ConflictP: update / setPeriod,
		// Conflict one level below root with p=1/2, two with 1/4, ...:
		// expected merge cost 2*tDRAM*(1+1/2+1/4+...) = 4*tDRAM.
		MergeSec:   4 * DRAMLatency,
		SetPeriodS: setPeriod,
	}
}

// LiveResult reports the measured contention run.
type LiveResult struct {
	Workers        int
	UpdatesPerWkr  int
	CASAttempts    uint64
	CASConflicts   uint64
	MergesResolved uint64
	MergeFailures  uint64
	LostUpdates    int
	// Map is the segment map's conflict telemetry at the end of the run:
	// per-entry commit/conflict/denial/abort totals (segmap.Snapshot).
	Map segmap.Snapshot
}

// RunConflict produces the §5.1.1 table: analytic rows at the paper's
// parameters plus a live goroutine contention measurement.
func RunConflict(sc Scale) (Table, LiveResult, error) {
	t := Table{
		Title: "Sec 5.1.1: Concurrent update analysis",
		Note:  "analytic model at the paper's parameters; live mCAS contention below",
		Headers: []string{"N", "line", "levels", "update_us",
			"P(conflict)", "merge_ns"},
	}
	for _, n := range []float64{1e6, 1e9} {
		for _, lb := range []int{16, 32, 64} {
			r := Analytic(n, lb)
			t.AddRow(fmt.Sprintf("%.0e", r.N), u(uint64(lb)), f2(r.Levels),
				f2(r.UpdateSec*1e6), f3(r.ConflictP), f2(r.MergeSec*1e9))
		}
	}

	live, err := runLiveContention(sc)
	if err != nil {
		return t, live, err
	}
	t.AddRow("", "", "", "", "", "")
	t.AddRow("live:", fmt.Sprintf("workers=%d", live.Workers),
		fmt.Sprintf("attempts=%d", live.CASAttempts),
		fmt.Sprintf("conflicts=%d", live.CASConflicts),
		fmt.Sprintf("merged=%d", live.MergesResolved),
		fmt.Sprintf("lost=%d", live.LostUpdates))
	t.AddRow("segmap:", fmt.Sprintf("entries=%d", live.Map.Entries),
		fmt.Sprintf("commits=%d", live.Map.Total.Commits),
		fmt.Sprintf("conflicts=%d", live.Map.Total.Conflicts),
		fmt.Sprintf("denied=%d", live.Map.Total.Denied))
	return t, live, nil
}

func runLiveContention(sc Scale) (LiveResult, error) {
	workers, updates := 8, 40
	if sc == ScalePaper {
		workers, updates = 16, 250
	}
	h := hds.NewHeap(core.Config{
		LineBytes: 16, BucketBits: 16, DataWays: 12, CacheLines: 8192, CacheWays: 16,
	})
	vsid := h.SM.Create(segmap.Entry{
		Seg:   segment.NewSparse(16),
		Flags: segmap.FlagMergeUpdate,
	})

	var mu sync.Mutex
	agg := LiveResult{Workers: workers, UpdatesPerWkr: updates}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var st merge.Stats
			for i := 0; i < updates; i++ {
				e, err := h.SM.Load(vsid)
				if err != nil {
					errs <- err
					return
				}
				idx := uint64(1 + g*updates + i)
				it := iterreg.NewSegmentIterator(h.M, e.Seg)
				it.Store(idx, uint64(g+1), word.TagRaw)
				next := it.CommitSegment()
				// Register the version's full logical size: the snapshot's
				// registered size extended by this write. MCAS additionally
				// keeps the maximum across merged-in versions, so the
				// entry's size tracks the largest committed write whatever
				// the commit order.
				size := (idx + 1) * 8
				if e.Size > size {
					size = e.Size
				}
				ok, err := merge.MCAS(h.M, h.SM, vsid, e.Seg, next, size, &st)
				segment.ReleaseSeg(h.M, e.Seg)
				if err != nil || !ok {
					errs <- fmt.Errorf("worker %d: mcas ok=%v err=%v", g, ok, err)
					return
				}
			}
			mu.Lock()
			agg.MergesResolved += st.Merges - st.Failures
			agg.MergeFailures += st.Failures
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return agg, err
	}
	okCAS, failCAS := h.SM.CASStats()
	agg.CASAttempts = okCAS + failCAS
	agg.CASConflicts = failCAS
	agg.Map = h.SM.Snapshot()

	// Verify no update was lost.
	final, err := h.SM.Load(vsid)
	if err != nil {
		return agg, err
	}
	defer segment.ReleaseSeg(h.M, final.Seg)
	for g := 0; g < workers; g++ {
		for i := 0; i < updates; i++ {
			if v, _ := segment.ReadWord(h.M, final.Seg, uint64(1+g*updates+i)); v != uint64(g+1) {
				agg.LostUpdates++
			}
		}
	}
	// The registered size must reflect the largest committed write even
	// when that write's publish was rebased by a later merge.
	if want := uint64(workers*updates+1) * 8; final.Size != want {
		return agg, fmt.Errorf("registered size %d, want %d (merge dropped size)", final.Size, want)
	}
	return agg, nil
}
