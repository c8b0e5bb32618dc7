package cachesim

import "fmt"

// HierStats counts events in the conventional two-level hierarchy.
type HierStats struct {
	Loads      uint64
	Stores     uint64
	L1Hits     uint64
	L1Misses   uint64
	L2Hits     uint64
	L2Misses   uint64
	DRAMReads  uint64 // L2 miss fills
	DRAMWrites uint64 // dirty L2 evictions (plus final flush)
}

// DRAMAccesses returns total off-chip accesses, the Figure 6 metric for
// the conventional architecture.
func (s HierStats) DRAMAccesses() uint64 { return s.DRAMReads + s.DRAMWrites }

// Hierarchy models the paper's conventional baseline memory system: a
// write-back, write-allocate L1D in front of a write-back L2; misses in L2
// read DRAM and dirty L2 victims write DRAM. The hierarchy is driven by an
// address trace, exactly like the DineroIV setup the paper used.
type Hierarchy struct {
	l1, l2    *Cache
	lineBytes int
	Stats     HierStats
}

// HierConfig sizes the hierarchy. Values are in bytes.
type HierConfig struct {
	LineBytes int
	L1Bytes   int
	L1Ways    int
	L2Bytes   int
	L2Ways    int
}

// PaperHierConfig returns the baseline used throughout §5: 4-way 32 KB L1
// data cache, 16-way 4 MB L2, with the given line size.
func PaperHierConfig(lineBytes int) HierConfig {
	return HierConfig{
		LineBytes: lineBytes,
		L1Bytes:   32 << 10,
		L1Ways:    4,
		L2Bytes:   4 << 20,
		L2Ways:    16,
	}
}

// NewHierarchy builds the two-level hierarchy.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	mkSets := func(bytes, ways int) int {
		lines := bytes / cfg.LineBytes
		sets := lines / ways
		if sets <= 0 || sets&(sets-1) != 0 {
			panic(fmt.Sprintf("cachesim: %d B / %d ways yields %d sets (need power of two)",
				bytes, ways, sets))
		}
		return sets
	}
	return &Hierarchy{
		l1:        New(mkSets(cfg.L1Bytes, cfg.L1Ways), cfg.L1Ways),
		l2:        New(mkSets(cfg.L2Bytes, cfg.L2Ways), cfg.L2Ways),
		lineBytes: cfg.LineBytes,
	}
}

// LineBytes returns the configured line size.
func (h *Hierarchy) LineBytes() int { return h.lineBytes }

// Load simulates a read of size bytes at addr.
func (h *Hierarchy) Load(addr uint64, size int) {
	h.Stats.Loads++
	h.access(addr, size, false)
}

// Store simulates a write of size bytes at addr.
func (h *Hierarchy) Store(addr uint64, size int) {
	h.Stats.Stores++
	h.access(addr, size, true)
}

// Copy simulates a memory copy of n bytes (load source, store destination),
// the dominant pattern of socket-based IPC.
func (h *Hierarchy) Copy(dst, src uint64, n int) {
	for off := 0; off < n; off += h.lineBytes {
		chunk := h.lineBytes
		if rem := n - off; rem < chunk {
			chunk = rem
		}
		h.Load(src+uint64(off), chunk)
		h.Store(dst+uint64(off), chunk)
	}
}

func (h *Hierarchy) access(addr uint64, size int, write bool) {
	if size <= 0 {
		size = 1
	}
	first := addr / uint64(h.lineBytes)
	last := (addr + uint64(size) - 1) / uint64(h.lineBytes)
	for ln := first; ln <= last; ln++ {
		h.accessLine(ln, write)
	}
}

func (h *Hierarchy) accessLine(lineAddr uint64, write bool) {
	k := pack(Key{Kind: KindAddr, ID: lineAddr})
	var t1, t2 Tally
	defer h.l1.Publish(&t1)
	defer h.l2.Publish(&t2)
	s1 := int(lineAddr & h.l1.SetMask())
	if hit, _ := h.l1.probe(s1, k, write, nil, &t1); hit {
		h.Stats.L1Hits++
		return
	}
	h.Stats.L1Misses++

	s2 := int(lineAddr & h.l2.SetMask())
	if hit, _ := h.l2.probe(s2, k, false, nil, &t2); hit {
		h.Stats.L2Hits++
	} else {
		h.Stats.L2Misses++
		h.Stats.DRAMReads++
		if _, dirty, _ := h.l2.insert(s2, k, nil, false, &t2, nil); dirty {
			h.Stats.DRAMWrites++
		}
	}
	// Fill L1; a dirty L1 victim is written back into L2.
	if victim, dirty, _ := h.l1.insert(s1, k, nil, write, &t1, nil); dirty {
		h.writebackToL2(victim, &t2)
	}
}

func (h *Hierarchy) writebackToL2(k uint64, t *Tally) {
	s2 := int(k & h.l2.SetMask()) // the kind bits lie above any set index
	if hit, _ := h.l2.probe(s2, k, true, nil, t); hit {
		return
	}
	// Victim missing from L2 (non-inclusive corner): allocate it dirty.
	if _, dirty, _ := h.l2.insert(s2, k, nil, true, t, nil); dirty {
		h.Stats.DRAMWrites++
	}
}

// Flush writes back all dirty lines in both levels, charging DRAM writes
// for dirty L2 lines (and for dirty L1 lines not resident in L2). Call at
// the end of a measurement window.
func (h *Hierarchy) Flush() {
	var t Tally
	h.l1.FlushDirty(func(k Key) { h.writebackToL2(pack(k), &t) })
	h.l2.Publish(&t)
	h.l2.FlushDirty(func(Key) { h.Stats.DRAMWrites++ })
}
