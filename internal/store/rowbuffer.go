package store

import (
	"sync/atomic"

	"repro/internal/word"
)

// DRAM row-buffer model. §3.1 argues that the lookup-by-content protocol
// is DRAM-friendly: the signature read, candidate data reads, signature
// update and reference-count access of one lookup all land in the same
// DRAM row (the hash bucket *is* the row), so a lookup costs one row
// activation however many line transfers it makes. This model tracks the
// open row per bank and counts activations versus open-row hits, which
// the row-locality tests assert and the energy discussion in the paper
// relies on.
//
// The tracker is lock-free: each bank's open row is one atomic word, so
// the reader fast path (Store.Read) never takes a mutex for row
// accounting. Under concurrency the interleaving of row opens is whatever
// the scheduler produces — exactly as in hardware, where banks serve the
// cores' interleaved request stream.

// rowBanks is the number of DRAM banks (row buffers) modelled.
const rowBanks = 8

// RowStats counts row-buffer behaviour.
type RowStats struct {
	Activations uint64 // accesses that had to open a new row
	RowHits     uint64 // accesses served from the open row
}

// HitRate returns the fraction of accesses served by open rows.
func (r RowStats) HitRate() float64 {
	total := r.Activations + r.RowHits
	if total == 0 {
		return 0
	}
	return float64(r.RowHits) / float64(total)
}

type rowTracker struct {
	// open holds row+1 per bank; 0 means no row open yet.
	open        [rowBanks]atomic.Uint64
	activations atomic.Uint64
	rowHits     atomic.Uint64
}

// touch records an access to the given row, returning whether it hit the
// open row of its bank.
func (rt *rowTracker) touch(row uint64) bool {
	bank := row % rowBanks
	if rt.open[bank].Load() == row+1 {
		rt.rowHits.Add(1)
		return true
	}
	rt.open[bank].Store(row + 1)
	rt.activations.Add(1)
	return false
}

// touchN records n back-to-back accesses to the same row with two atomic
// adds instead of n: at most the first access activates the row, every
// subsequent one hits the then-open row — exactly the counts an
// uninterrupted sequence of touch calls would produce. The batch lookup
// path uses it to coalesce one lookup's row accounting.
func (rt *rowTracker) touchN(row uint64, n int) {
	if n <= 0 {
		return
	}
	bank := row % rowBanks
	hits := uint64(n)
	if rt.open[bank].Load() != row+1 {
		rt.open[bank].Store(row + 1)
		rt.activations.Add(1)
		hits--
	}
	if hits > 0 {
		rt.rowHits.Add(hits)
	}
}

func (rt *rowTracker) reset() {
	rt.activations.Store(0)
	rt.rowHits.Store(0)
}

func (rt *rowTracker) snapshot() RowStats {
	return RowStats{Activations: rt.activations.Load(), RowHits: rt.rowHits.Load()}
}

// rowOf maps a line to its DRAM row: the hash bucket for bucket-resident
// lines; overflow lines live in rows past the bucket area.
func (s *Store) rowOf(p word.PLID) uint64 {
	if b, ok := s.BucketOf(p); ok {
		return b
	}
	slot := uint64(p) - s.ovBase
	rowSize := uint64(16) // overflow lines per row
	return uint64(1)<<s.cfg.BucketBits + slot/rowSize
}

// RowStats returns the accumulated row-buffer counters.
func (s *Store) RowStats() RowStats { return s.rows.snapshot() }
