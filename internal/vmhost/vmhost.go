// Package vmhost reproduces the virtual-machine hosting study of §5.3
// (Figures 9 and 10): the memory consumed by scaled-out VMmark-style
// workloads under (a) plain allocation, (b) an *ideal* page-sharing
// hypervisor that instantly shares every identical 4 KB page, and (c)
// HICAMP's 64-byte line deduplication.
//
// VM memory images are synthesized (the paper used VMware snapshots; see
// DESIGN.md) with the structure that drives the comparison: OS pages
// identical across VMs running the same OS, application pages identical
// across VMs of the same workload, *deltified* pages that differ from a
// shared ancestor in a few lines (the case page sharing loses and line
// dedup wins), zero pages, partially-zero pages, and unique pages.
// Page and line populations are counted with streaming 64-bit hashes;
// images are never held in memory.
package vmhost

import (
	"fmt"
	"math/rand"
)

// PageBytes is the page size; LineBytes the HICAMP line size of Figures
// 9-10 ("Hicamp 64B").
const (
	PageBytes = 4096
	LineBytes = 64
)

// Class describes one VMmark workload type's memory composition.
type Class struct {
	Name  string
	Pages int // pages per VM at the model scale
	// Fractions of the VM's pages (remainder is unique per VM):
	OSShare  float64 // identical across all VMs with the same OS
	AppShare float64 // identical across VMs of this class
	Delta    float64 // shared ancestor, few lines modified per VM
	Zero     float64 // all-zero (free/ballooned) pages
	PartZero float64 // unique pages that are mostly zero padding
	OS       int     // OS identity (VMmark mixes 32/64-bit OSes)

	DeltaLines int // lines modified per deltified page
}

// Classes returns the six VMmark tile workloads. Page counts are the
// paper's per-VM allocations scaled by 1/1024 (a 2 GB database server
// becomes 2 MB of modelled image); compaction ratios are scale-free.
// Compositions are calibrated so the measured compaction factors land in
// the paper's reported ranges (HICAMP 1.86x-10.87x, ideal page sharing
// 1.44x-5.21x, standby most compressible).
func Classes() []Class {
	return []Class{
		{Name: "database", Pages: 512, OSShare: 0.22, AppShare: 0.10, Delta: 0.16,
			Zero: 0.06, PartZero: 0.08, OS: 1, DeltaLines: 4},
		{Name: "java", Pages: 256, OSShare: 0.25, AppShare: 0.14, Delta: 0.22,
			Zero: 0.10, PartZero: 0.10, OS: 2, DeltaLines: 5},
		{Name: "mail", Pages: 256, OSShare: 0.28, AppShare: 0.12, Delta: 0.20,
			Zero: 0.12, PartZero: 0.10, OS: 1, DeltaLines: 4},
		{Name: "web", Pages: 128, OSShare: 0.30, AppShare: 0.16, Delta: 0.22,
			Zero: 0.12, PartZero: 0.12, OS: 3, DeltaLines: 6},
		{Name: "file", Pages: 64, OSShare: 0.30, AppShare: 0.12, Delta: 0.18,
			Zero: 0.16, PartZero: 0.14, OS: 2, DeltaLines: 4},
		{Name: "standby", Pages: 64, OSShare: 0.32, AppShare: 0.12, Delta: 0.22,
			Zero: 0.24, PartZero: 0.07, OS: 1, DeltaLines: 2},
	}
}

// Meter accumulates allocated/page-shared/line-deduped byte counts over
// any number of VM images.
type Meter struct {
	allocated uint64
	pages     map[uint64]struct{}
	lines     map[uint64]struct{}
	zeroSeen  bool
}

// NewMeter creates an empty meter.
func NewMeter() *Meter {
	return &Meter{pages: make(map[uint64]struct{}), lines: make(map[uint64]struct{})}
}

// AllocatedBytes is the plain allocation total.
func (mt *Meter) AllocatedBytes() uint64 { return mt.allocated }

// PageSharedBytes is the ideal page-sharing consumption: one copy per
// distinct page content (zero pages collapse to one too).
func (mt *Meter) PageSharedBytes() uint64 { return uint64(len(mt.pages)) * PageBytes }

// HicampBytes is the line-dedup consumption: one copy per distinct
// 64-byte line, zero lines free (the architectural zero line).
func (mt *Meter) HicampBytes() uint64 { return uint64(len(mt.lines)) * LineBytes }

// addPage hashes one page and its lines into the populations.
func (mt *Meter) addPage(page []byte) {
	mt.allocated += PageBytes
	mt.pages[hashBytes(page)] = struct{}{}
	for off := 0; off < len(page); off += LineBytes {
		line := page[off : off+LineBytes]
		if isZero(line) {
			continue // the zero line is free in HICAMP
		}
		mt.lines[hashBytes(line)] = struct{}{}
	}
}

// AddVM synthesizes one VM image of the given class and instance number
// and feeds it to the meter. Instances of the same class share OS and
// application pages; each instance's delta and unique pages differ.
func (mt *Meter) AddVM(c Class, instance int) {
	SynthesizeVM(c, instance, mt.addPage)
}

// SynthesizeVM generates the pages of one VM image in order, calling emit
// for each. The page buffer is reused between calls — emit must consume
// (hash, copy, append) before returning. The streaming Meter consumes the
// synthesis through this hook, and tests build the same images in a real
// deduplicating store through it.
func SynthesizeVM(c Class, instance int, emit func(page []byte)) {
	page := make([]byte, PageBytes)
	nOS := int(float64(c.Pages) * c.OSShare)
	nApp := int(float64(c.Pages) * c.AppShare)
	nDelta := int(float64(c.Pages) * c.Delta)
	nZero := int(float64(c.Pages) * c.Zero)
	nPart := int(float64(c.Pages) * c.PartZero)
	nUnique := c.Pages - nOS - nApp - nDelta - nZero - nPart
	if nUnique < 0 {
		panic(fmt.Sprintf("vmhost: class %s fractions exceed 1", c.Name))
	}

	for i := 0; i < nOS; i++ {
		fillSeeded(page, seedFor("os", c.OS, 0, i), 0)
		emit(page)
	}
	for i := 0; i < nApp; i++ {
		fillSeeded(page, seedFor("app:"+c.Name, 0, 0, i), 0)
		emit(page)
	}
	for i := 0; i < nDelta; i++ {
		// Shared ancestor content, then per-instance line modifications.
		fillSeeded(page, seedFor("delta:"+c.Name, 0, 0, i), 0)
		rng := rand.New(rand.NewSource(seedFor("deltamod:"+c.Name, 0, instance, i)))
		for k := 0; k < c.DeltaLines; k++ {
			off := rng.Intn(PageBytes/LineBytes) * LineBytes
			rng.Read(page[off : off+LineBytes])
		}
		emit(page)
	}
	for i := 0; i < nZero; i++ {
		for b := range page {
			page[b] = 0
		}
		emit(page)
	}
	for i := 0; i < nPart; i++ {
		// Unique header lines, zero tail: buffers and stacks.
		for b := range page {
			page[b] = 0
		}
		fillSeeded(page[:4*LineBytes], seedFor("part:"+c.Name, 0, instance, i), 0)
		emit(page)
	}
	for i := 0; i < nUnique; i++ {
		fillSeeded(page, seedFor("uniq:"+c.Name, 0, instance, i), 0)
		emit(page)
	}
}

// Point is one x position of Figure 9 or 10.
type Point struct {
	N          int // VMs (Fig 9) or tiles (Fig 10)
	Allocated  uint64
	PageShared uint64
	Hicamp     uint64
}

// CompactionPageShare and CompactionHicamp are allocated/consumed.
func (p Point) CompactionPageShare() float64 {
	return float64(p.Allocated) / float64(p.PageShared)
}
func (p Point) CompactionHicamp() float64 {
	return float64(p.Allocated) / float64(p.Hicamp)
}

// ScaleVMs reproduces one Figure 9 panel: n = 1..maxVMs instances of one
// workload class on a host.
func ScaleVMs(c Class, maxVMs int) []Point {
	mt := NewMeter()
	out := make([]Point, 0, maxVMs)
	for n := 1; n <= maxVMs; n++ {
		mt.AddVM(c, n-1)
		out = append(out, Point{
			N: n, Allocated: mt.AllocatedBytes(),
			PageShared: mt.PageSharedBytes(), Hicamp: mt.HicampBytes(),
		})
	}
	return out
}

// ScaleTiles reproduces Figure 10: n = 1..maxTiles whole VMmark tiles
// (one VM of each of the six classes per tile).
func ScaleTiles(maxTiles int) []Point {
	mt := NewMeter()
	classes := Classes()
	out := make([]Point, 0, maxTiles)
	for n := 1; n <= maxTiles; n++ {
		for _, c := range classes {
			mt.AddVM(c, n-1)
		}
		out = append(out, Point{
			N: n, Allocated: mt.AllocatedBytes(),
			PageShared: mt.PageSharedBytes(), Hicamp: mt.HicampBytes(),
		})
	}
	return out
}

// fillSeeded fills b with deterministic pseudo-random content. A salt of
// 0 keeps pages with the same seed identical.
func fillSeeded(b []byte, seed int64, salt int64) {
	rng := rand.New(rand.NewSource(seed ^ salt))
	// Mix of binary content and repeated structure: real OS pages carry
	// some internal line-level redundancy.
	rng.Read(b)
	if len(b) >= 8*LineBytes && seed%3 == 0 {
		// Repeat one line a few times within the page (page tables,
		// slab headers and the like).
		src := b[:LineBytes]
		for k := 2; k < 5; k++ {
			copy(b[k*LineBytes:(k+1)*LineBytes], src)
		}
	}
}

func seedFor(kind string, os, instance, idx int) int64 {
	h := hashBytes([]byte(kind))
	h = h*1099511628211 + uint64(os+1)
	h = h*1099511628211 + uint64(instance+1)
	h = h*1099511628211 + uint64(idx+1)
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

func hashBytes(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
