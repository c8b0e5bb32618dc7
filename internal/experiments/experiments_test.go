package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestAnalyticMatchesPaperNumbers(t *testing.T) {
	// §5.1.1: N=10^6, 16-byte lines: 2*20*50ns = 2 us update time,
	// conflict probability 2us/50us = 0.04; N=10^9: 0.06; merge 200 ns.
	r := Analytic(1e6, 16)
	if math.Abs(r.UpdateSec-2e-6) > 1e-8 {
		t.Fatalf("update = %v, want 2us", r.UpdateSec)
	}
	if math.Abs(r.ConflictP-0.04) > 0.001 {
		t.Fatalf("conflict p = %v, want 0.04", r.ConflictP)
	}
	if math.Abs(r.MergeSec-200e-9) > 1e-12 {
		t.Fatalf("merge = %v, want 200ns", r.MergeSec)
	}
	r9 := Analytic(1e9, 16)
	if math.Abs(r9.ConflictP-0.06) > 0.001 {
		t.Fatalf("conflict p @1e9 = %v, want ~0.06", r9.ConflictP)
	}
	// Longer lines reduce levels and conflicts proportionally (§5.1.1).
	r64 := Analytic(1e6, 64)
	if r64.ConflictP >= r.ConflictP/2 {
		t.Fatalf("64B conflict %v not well below 16B %v", r64.ConflictP, r.ConflictP)
	}
}

func TestRunConflictLiveNoLostUpdates(t *testing.T) {
	tbl, live, err := RunConflict(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if live.LostUpdates != 0 {
		t.Fatalf("%d updates lost under contention", live.LostUpdates)
	}
	if live.MergeFailures != 0 {
		t.Fatalf("%d merge failures for disjoint updates", live.MergeFailures)
	}
	if live.CASAttempts == 0 {
		t.Fatal("no CAS attempts recorded")
	}
	if !strings.Contains(tbl.Render(), "P(conflict)") {
		t.Fatal("table missing headers")
	}
}

func TestRunContentionShape(t *testing.T) {
	tbl, res, err := RunContention(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Disjoint) < 2 || len(res.Overlap) != 4 {
		t.Fatalf("sweep shapes: %d disjoint, %d overlap", len(res.Disjoint), len(res.Overlap))
	}
	// Disjoint writers: every stale publish rebased (conflicts observed,
	// none failed) and DRAM/commit stays flat while the segment grows —
	// well under the size ratio; path depth adds only a log factor.
	first, last := res.Disjoint[0], res.Disjoint[len(res.Disjoint)-1]
	if first.Conflicts == 0 {
		t.Fatal("disjoint sweep produced no contention")
	}
	sizeRatio := float64(last.Words) / float64(first.Words)
	if last.DRAMPerCommit >= first.DRAMPerCommit*sizeRatio/4 {
		t.Fatalf("DRAM/commit grew with size: %.1f @%d words vs %.1f @%d words",
			first.DRAMPerCommit, first.Words, last.DRAMPerCommit, last.Words)
	}
	// Overlapping writers: replays scale with the overlap fraction.
	if res.Overlap[0].Replays != 0 {
		t.Fatalf("disjoint end replayed %d times", res.Overlap[0].Replays)
	}
	for i := 1; i < len(res.Overlap); i++ {
		if res.Overlap[i].Replays <= res.Overlap[i-1].Replays {
			t.Fatalf("replays not increasing with overlap: %+v", res.Overlap)
		}
	}
	if !strings.Contains(tbl.Render(), "overlap") {
		t.Fatal("table missing overlap rows")
	}
}

func TestRunTable1Shape(t *testing.T) {
	tbl, rows := RunTable1(ScaleTest)
	if len(rows) != 7 {
		t.Fatalf("%d datasets, want 7 (as in Table 1)", len(rows))
	}
	for _, r := range rows {
		if strings.Contains(r.Dataset, "images") {
			if r.Compaction[16] > 1.15 {
				t.Errorf("%s compacts %.2fx; images must not compact", r.Dataset, r.Compaction[16])
			}
		} else {
			if r.Compaction[16] < 1.2 {
				t.Errorf("%s compacts only %.2fx at 16B", r.Dataset, r.Compaction[16])
			}
			if r.Compaction[16] < r.Compaction[64] {
				t.Errorf("%s: compaction must not improve with larger lines (%.2f vs %.2f)",
					r.Dataset, r.Compaction[16], r.Compaction[64])
			}
		}
	}
	if !strings.Contains(tbl.Render(), "LS=16") {
		t.Fatal("render missing line-size columns")
	}
}

func TestRunFig6Shape(t *testing.T) {
	tbl, results, err := RunFig6(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d line sizes, want 3", len(results))
	}
	for _, r := range results {
		if r.HicampTotal() == 0 || r.ConvTotal() == 0 {
			t.Fatalf("degenerate totals at %dB", r.LineBytes)
		}
		// Paper: "the number of off-chip DRAM accesses for HICAMP is
		// comparable or smaller than for a conventional memory system".
		// With RC traffic netted per published update and per read, it
		// is at most 0.85x conventional at every line size.
		if 100*r.HicampTotal() > 85*r.ConvTotal() {
			t.Fatalf("%dB: HICAMP %d vs conv %d is above 0.85x conventional",
				r.LineBytes, r.HicampTotal(), r.ConvTotal())
		}
	}
	if !strings.Contains(tbl.Render(), "hicamp") {
		t.Fatal("bad render")
	}
}

// TestRunChunkingShape pins the chunking experiment's claim at every
// line size: content-defined chunks share what aligned segments of the
// shifted near-duplicates cannot (fewer resident lines), and a memo warm
// from the bases ingests the variants in less DRAM than a cold one.
func TestRunChunkingShape(t *testing.T) {
	tbl, rows := RunChunking(ScaleTest)
	if len(rows) != 3 {
		t.Fatalf("%d line sizes, want 3", len(rows))
	}
	for _, r := range rows {
		if r.ChunkedLines >= r.AlignedLines {
			t.Errorf("%dB: chunked ingest holds %d lines, aligned %d", r.LineBytes, r.ChunkedLines, r.AlignedLines)
		}
		if r.WarmDRAM >= r.ColdDRAM {
			t.Errorf("%dB: warm-memo ingest cost %d DRAM accesses, cold %d", r.LineBytes, r.WarmDRAM, r.ColdDRAM)
		}
	}
	if !strings.Contains(tbl.Render(), "warm DRAM") {
		t.Fatal("bad render")
	}
}

func TestRunFig8AndTable2Shape(t *testing.T) {
	_, results := RunFig8(ScaleTest)
	if len(results) != 100 {
		t.Fatalf("%d matrices, want 100", len(results))
	}
	over := 0
	for _, r := range results {
		if r.SizeRatio() > 1.25 {
			over++
		}
	}
	// Paper: "matrices are the same size or smaller in HICAMP except for
	// a few having negligible increases".
	if over > len(results)/10 {
		t.Fatalf("%d/100 matrices grew materially under HICAMP", over)
	}

	tbl, rows := RunTable2(results)
	byCat := map[string]Table2Row{}
	for _, r := range rows {
		byCat[r.Category] = r
	}
	all, ok := byCat["All"]
	if !ok || all.Matrices != 100 {
		t.Fatalf("All row wrong: %+v", all)
	}
	if all.MeanSize >= 1.0 {
		t.Fatalf("mean size ratio %.2f: no compaction overall", all.MeanSize)
	}
	// Shape: LPs (vs full CSR) compact better than symmetric matrices
	// (vs already-halved symmetric CSR), as in Table 2 (43.0% vs 76.9%).
	if byCat["LPs"].MeanSize >= byCat["Symmetric"].MeanSize {
		t.Fatalf("LP ratio %.2f >= symmetric %.2f; Table 2 ordering broken",
			byCat["LPs"].MeanSize, byCat["Symmetric"].MeanSize)
	}
	if !strings.Contains(tbl.Render(), "Symmetric") {
		t.Fatal("bad render")
	}
}

func TestRunFig7Shape(t *testing.T) {
	_, results := RunFig7(ScaleTest)
	if len(results) < 15 {
		t.Fatalf("only %d traffic points", len(results))
	}
	var mean float64
	wins := 0
	for _, r := range results {
		mean += r.Ratio()
		if r.Ratio() <= 1.0 {
			wins++
		}
	}
	mean /= float64(len(results))
	// Paper: average ~20% reduction, most matrices at or below ratio 1.
	if mean > 1.15 {
		t.Fatalf("mean HICAMP/conv ratio %.2f; expected near or below 1", mean)
	}
	if wins < len(results)/2 {
		t.Fatalf("HICAMP wins only %d/%d matrices", wins, len(results))
	}
}

func TestRunFig9Fig10Shape(t *testing.T) {
	tbl9, series := RunFig9()
	if len(series) != 6 {
		t.Fatalf("%d workloads, want 6", len(series))
	}
	for name, pts := range series {
		if len(pts) != 10 {
			t.Fatalf("%s has %d points", name, len(pts))
		}
		last := pts[9]
		if last.Hicamp > last.PageShared || last.PageShared > last.Allocated {
			t.Fatalf("%s: ordering broken at 10 VMs", name)
		}
	}
	_, pts := RunFig10()
	last := pts[9]
	if last.CompactionHicamp() < 1.5*last.CompactionPageShare() {
		t.Fatalf("tiles: HICAMP %.2fx not well above page sharing %.2fx",
			last.CompactionHicamp(), last.CompactionPageShare())
	}
	if !strings.Contains(tbl9.Render(), "hicamp64") {
		t.Fatal("bad render")
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tbl := Table{Title: "T", Headers: []string{"a", "bb"}}
	tbl.AddRow("xxx", "y")
	out := tbl.Render()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "xxx") {
		t.Fatalf("render = %q", out)
	}
}
