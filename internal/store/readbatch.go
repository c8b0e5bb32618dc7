package store

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/word"
)

// Pooled scratch for the batch paths: grouping scratch is borrowed per
// call so a steady-state batch read or lookup allocates nothing.
var (
	poolGroup   = pool.NewSlice[int16]("store.group")
	poolOrder   = pool.NewSlice[int32]("store.order")
	poolEvents  = pool.NewSlice[rcEvent]("store.rcevent")
	poolU64     = pool.NewSlice[uint64]("store.u64")
	poolSigs    = pool.NewSlice[uint8]("store.sig")
	poolPLIDs   = pool.NewSlice[word.PLID]("store.plid")
	poolHandles = pool.NewSlice[uint32]("store.handle")
)

// ReadBatchInto writes the content of every line in ps into out
// (len(out) == len(ps)), the bulk read-path primitive behind
// core.Machine.ReadLineBatchInto: PLIDs are grouped by bucket stripe so
// each stripe's reader lock is taken once per batch (not once per line),
// and the data-read accounting is accumulated locally and flushed with
// one atomic add per stripe group. Results are positional with the exact
// semantics of Read — zero PLIDs resolve to all-zero content with no
// DRAM access, reading a freed PLID panics — and the accounting is
// pinned identical to len(ps) serial Read calls: the same DataReads per
// stats shard, and row-buffer touches replayed in input order so the
// activation/open-row-hit sequence matches what the serial loop would
// have produced. The grouping scratch is pooled, so a steady-state call
// allocates nothing.
//
// Stripe groups are processed in ascending stripe order with the overflow
// lock taken on its own (never nested inside a stripe lock), so
// concurrent batches, lookups and releases cannot deadlock. Duplicate
// PLIDs within one batch are safe: both land in the same group and read
// the same line under one shared lock.
func (s *Store) ReadBatchInto(ps []word.PLID, out []word.Content) {
	n := len(ps)
	if len(out) != n {
		panic("store: ReadBatchInto buffer length mismatch")
	}
	if n == 0 {
		return
	}
	var sc pool.Scratch
	defer sc.Release()
	// Group element indices by lock domain with a counting sort: stripes
	// 0..numStripes-1 for bucket lines, ovShard for the overflow area.
	gidx := poolGroup.Get(&sc, n) // lock group per element; -1 for the zero PLID
	var counts [numStripes + 1]int32
	for i, p := range ps {
		if p == word.Zero {
			gidx[i] = -1
			out[i] = word.NewContent(s.arity)
			continue
		}
		g := int16(ovShard)
		if !s.isOverflow(p) {
			g = int16(stripeOf(uint64(p) & s.bucketMask))
		}
		gidx[i] = g
		counts[g]++
	}
	var start [numStripes + 2]int32
	for g := 0; g <= numStripes; g++ {
		start[g+1] = start[g] + counts[g]
	}
	order := poolOrder.Get(&sc, int(start[numStripes+1]))
	next := start
	for i := range ps {
		if gidx[i] < 0 {
			continue
		}
		order[next[gidx[i]]] = int32(i)
		next[gidx[i]]++
	}
	for g := 0; g <= numStripes; g++ {
		group := order[start[g]:start[g+1]]
		if len(group) == 0 {
			continue
		}
		var unlock func()
		if g == ovShard {
			s.ovMu.Lock()
			unlock = s.ovUnlock
		} else {
			s.stripes[g].mu.RLock()
			unlock = s.stripes[g].runlock
		}
		bad := word.Zero // first freed PLID found; the panic fires unlocked
		for _, i := range group {
			ln := s.lineAt(ps[i])
			if !ln.used() {
				bad = ps[i]
				break
			}
			ln.loadInto(&out[i])
		}
		unlock()
		if bad != word.Zero {
			panic(fmt.Sprintf("store: read of freed PLID %#x", uint64(bad)))
		}
		s.bumpN(g, cDataReads, len(group))
	}
	// Replay the row-buffer touches in input order — the exact
	// activation/hit sequence len(ps) serial Read calls produce.
	for i, p := range ps {
		if gidx[i] >= 0 {
			s.rows.touch(s.rowOf(p))
		}
	}
}
