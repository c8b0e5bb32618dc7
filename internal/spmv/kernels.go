package spmv

import (
	"math/rand"

	"repro/internal/cachesim"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/segment"
)

// TrafficResult compares off-chip accesses for one matrix (Figure 7).
type TrafficResult struct {
	Name       string
	Category   string
	CSRBytes   uint64 // conventional working-set size (the x axis)
	ConvDRAM   uint64
	HicampDRAM uint64
}

// Ratio returns HICAMP accesses over conventional accesses (< 1 is a
// HICAMP win; Figure 7 plots its log2).
func (r TrafficResult) Ratio() float64 {
	if r.ConvDRAM == 0 {
		return 1
	}
	return float64(r.HicampDRAM) / float64(r.ConvDRAM)
}

// SpMVConv runs y = A*x on the conventional model, emitting the CSR (or
// symmetric-CSR, for symmetric matrices [Lee et al.]) reference stream
// into a hierarchy with the given configuration, and returns its DRAM
// access count. The kernel is run twice and the second (warm) pass
// measured, matching the steady-state inner-loop behaviour SpMV studies
// report.
func SpMVConv(hier cachesim.HierConfig, m *Matrix) uint64 {
	sp := conv.NewSpaceWith(hier)
	useSym := m.Sym
	nnz := m.NNZ()
	stored := nnz
	if useSym {
		diag, off := symSplit(m)
		stored = diag + off/2
	}
	rowPtr := sp.Alloc(uint64(4*(m.Rows+1)), 64)
	colIdx := sp.Alloc(uint64(4*stored), 64)
	vals := sp.Alloc(uint64(8*stored), 64)
	xv := sp.Alloc(uint64(8*m.Cols), 64)
	yv := sp.Alloc(uint64(8*m.Rows), 64)

	pass := func() {
		k := 0 // stored-entry cursor
		for r := 0; r < m.Rows; r++ {
			sp.Load(rowPtr+uint64(4*r), 8) // row_ptr[r], row_ptr[r+1]
			if useSym {
				sp.Load(yv+uint64(8*r), 8) // y[r] accumuland
			}
			for e := m.RowPtr[r]; e < m.RowPtr[r+1]; e++ {
				c := int(m.ColIdx[e])
				if useSym && c < r {
					continue // lower triangle not stored
				}
				sp.Load(colIdx+uint64(4*k), 4)
				sp.Load(vals+uint64(8*k), 8)
				sp.Load(xv+uint64(8*c), 8)
				k++
				if useSym && c > r {
					// Transpose contribution: y[c] += v * x[r].
					sp.Load(xv+uint64(8*r), 8)
					sp.Load(yv+uint64(8*c), 8)
					sp.Store(yv+uint64(8*c), 8)
				}
			}
			sp.Store(yv+uint64(8*r), 8)
		}
	}
	pass()
	sp.Flush()
	warmBase := sp.Stats().DRAMAccesses()
	pass()
	sp.Flush()
	return sp.Stats().DRAMAccesses() - warmBase
}

func symSplit(m *Matrix) (diag, off int) {
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if int(m.ColIdx[k]) == r {
				diag++
			} else {
				off++
			}
		}
	}
	return
}

// SpMVHicamp runs y = A*x over the QTS tree on a HICAMP machine and
// returns its DRAM access count for the warm pass, including the
// transient-region writes for the result vector (y lives in the
// non-deduplicated per-core area; one line write per line of y).
func SpMVHicamp(cfg core.Config, m *Matrix) (uint64, []float64) {
	mach := core.NewMachine(cfg)
	q := BuildQTS(mach, m)
	x := testVector(m.Cols)
	xseg := BuildXSegment(mach, x)

	q.MulVec(mach, xseg, m.Cols) // cold pass: warm the LLC
	mach.FlushCache()
	mach.ResetStats()
	y := q.MulVec(mach, xseg, m.Cols)
	mach.FlushCache()
	dram := mach.Stats().Store.Total()
	dram += uint64((8*m.Rows + cfg.LineBytes - 1) / cfg.LineBytes) // y writeback
	q.Release(mach)
	segment.ReleaseSeg(mach, xseg)
	return dram, y
}

// MeasureTraffic produces one Figure 7 point at the paper's cache sizes
// (4 MB L2 both sides). The paper restricts Figure 7 to matrices larger
// than the L2; use MeasureTrafficWith to scale the caches down when the
// suite is scaled down, preserving the matrix >> cache regime.
func MeasureTraffic(lineBytes int, m *Matrix) TrafficResult {
	return MeasureTrafficWith(cachesim.PaperHierConfig(lineBytes), core.DefaultConfig(lineBytes), m)
}

// MeasureTrafficWith produces one Figure 7 point with explicit cache
// configurations for the two architectures.
func MeasureTrafficWith(hier cachesim.HierConfig, cfg core.Config, m *Matrix) TrafficResult {
	hic, _ := SpMVHicamp(cfg, m)
	return TrafficResult{
		Name:       m.Name,
		Category:   m.Category,
		CSRBytes:   m.BaselineBytes(),
		ConvDRAM:   SpMVConv(hier, m),
		HicampDRAM: hic,
	}
}

// FootprintResult compares storage for one matrix (Figure 8 / Table 2).
type FootprintResult struct {
	Name        string
	Category    string
	Sym         bool
	CSRBytes    uint64 // CSR or symmetric CSR, whichever applies
	QTSBytes    uint64
	NZDBytes    uint64
	HicampBytes uint64 // best of QTS and NZD, the paper's method
}

// SizeRatio returns HICAMP bytes per conventional byte (Table 2's
// "savings" column: 0.627 means 62.7 bytes per 100).
func (r FootprintResult) SizeRatio() float64 {
	if r.CSRBytes == 0 {
		return 1
	}
	return float64(r.HicampBytes) / float64(r.CSRBytes)
}

// MeasureFootprint builds both HICAMP formats for the matrix in a fresh
// machine and reports deduplicated sizes against the CSR baseline.
func MeasureFootprint(lineBytes int, m *Matrix) FootprintResult {
	// Footprints need no cache model; a bare machine is faster.
	cfg := core.Config{LineBytes: lineBytes, BucketBits: 20, DataWays: 12}
	mach := core.NewMachine(cfg)
	q := BuildQTS(mach, m)
	qb := q.FootprintBytes(mach)
	z := BuildNZD(mach, m)
	zb := z.FootprintBytes(mach)
	res := FootprintResult{
		Name:     m.Name,
		Category: m.Category,
		Sym:      m.Sym,
		CSRBytes: m.BaselineBytes(),
		QTSBytes: qb,
		NZDBytes: zb,
	}
	res.HicampBytes = qb
	if zb < qb {
		res.HicampBytes = zb
	}
	q.Release(mach)
	z.Release(mach)
	return res
}

// testVector builds the deterministic x vector used by both kernels.
func testVector(n int) []float64 {
	rng := rand.New(rand.NewSource(12345))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}
