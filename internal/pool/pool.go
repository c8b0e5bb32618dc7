// Package pool provides bucketed scratch allocators for the wave
// engines: power-of-2 size bins in the bytepool style, per-bin
// hit/miss/oversize/returned stats, and a per-call Scratch handle that
// releases every borrowed buffer when the engine returns.
//
// Ownership rules (the escape discipline the engines follow):
//
//   - Scratch-acquired buffers are borrowed for the duration of one
//     engine call; Scratch.Release reclaims all of them at once, so a
//     borrowed buffer must never be stored in a result the caller keeps.
//     Results are always built with plain make.
//   - GetBuf hands out an owned *Buf whose Release the caller schedules
//     explicitly — the ownership-transfer path for buffers that outlive
//     one call (netfront's per-command key and value buffers).
//   - Requests above the largest bin fall through to plain make: they
//     are counted in Stats.Oversize but never retained, so a pathological
//     request size cannot pin memory in a freelist.
//   - Dormant buffers keep their contents (the next Get returns stale
//     data; callers overwrite or use GetZeroed). Pools whose element
//     type holds pointers opt into WithClearOnPut so dormant buffers do
//     not pin dead objects against the GC.
//
// Freelists are per-bin mutex-guarded stacks, not sync.Pool: the GC
// never drops a dormant buffer, so steady-state hit rates — and the
// testing.AllocsPerRun pins built on them — are deterministic.
package pool

import (
	"math/bits"
	"sort"
	"sync"
)

const (
	minBinShift = 6 // smallest bin holds 64 elements
	numBins     = 11
	minBinSize  = 1 << minBinShift
	maxBinSize  = 1 << (minBinShift + numBins - 1) // 65536 elements

	// defaultKeepElems bounds each bin's dormant retention in elements
	// (not buffers): a bin keeps at most keepElems/binSize buffers, and
	// always at least one. Small bins keep many cheap buffers, the top
	// bin keeps one.
	defaultKeepElems = 1 << 16
)

// Stats is the aggregate counter set of one pool. Hits and Misses count
// binned acquisitions served from / missing the freelist, Oversize
// counts requests above the largest bin (plain make, never pooled), and
// Returned counts releases (including oversize buffers, which are
// counted and dropped).
type Stats struct {
	Hits     uint64
	Misses   uint64
	Oversize uint64
	Returned uint64
}

// BinStats is one bin's counter set.
type BinStats struct {
	Size     int // bin capacity in elements
	Hits     uint64
	Misses   uint64
	Returned uint64
}

// PoolStats is a point-in-time snapshot of one named pool.
type PoolStats struct {
	Name string
	Stats
	Bins []BinStats // per-bin rows (slice pools only), ascending Size
}

// snapshotter is implemented by every pool kind for the registry.
type snapshotter interface{ Snapshot() PoolStats }

var registry struct {
	mu    sync.Mutex
	pools []snapshotter
}

func register(p snapshotter) {
	registry.mu.Lock()
	registry.pools = append(registry.pools, p)
	registry.mu.Unlock()
}

// Snapshot returns the stats of every registered pool, sorted by name.
// Pools register at construction; package-level pool variables in the
// engine packages are therefore all visible here.
func Snapshot() []PoolStats {
	registry.mu.Lock()
	ps := make([]snapshotter, len(registry.pools))
	copy(ps, registry.pools)
	registry.mu.Unlock()
	out := make([]PoolStats, len(ps))
	for i, p := range ps {
		out[i] = p.Snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// released is the intrusive link Scratch tracks borrowed buffers with.
// Implementations (Buf, Index) are pooled alongside their payload, so
// tracking a borrow never allocates: storing a pointer in an interface
// does not box.
type released interface {
	// reclaim returns the buffer to its pool and hands back the next
	// link in the scratch list.
	reclaim() released
}

// Scratch tracks the buffers one engine call borrows. The zero value is
// ready to use; Release returns every tracked buffer to its pool. A
// Scratch must not be shared across goroutines — parallel stages hand
// ownership with GetBuf / Buf.Release instead.
type Scratch struct {
	head released
}

// Release returns every buffer acquired through this Scratch to its
// pool, in reverse acquisition order.
func (sc *Scratch) Release() {
	for r := sc.head; r != nil; {
		r = r.reclaim()
	}
	sc.head = nil
}

// config carries construction options shared by the pool kinds.
type config struct {
	clearOnPut bool
	keepElems  int
}

// Option configures a pool at construction.
type Option func(*config)

// WithClearOnPut clears returned buffers before they go dormant. Use for
// element types holding pointers, so freelisted buffers do not keep dead
// objects reachable.
func WithClearOnPut() Option {
	return func(c *config) { c.clearOnPut = true }
}

// binIndex maps a request size to its bin, or -1 for oversize.
func binIndex(n int) int {
	if n <= minBinSize {
		return 0
	}
	if n > maxBinSize {
		return -1
	}
	return bits.Len(uint(n-1)) - minBinShift
}

func binSize(i int) int { return 1 << (minBinShift + i) }

// Buf is one pooled slice with its freelist identity. S is the borrowed
// storage, sliced to the requested length. Engines that transfer
// ownership across goroutines pass the *Buf and the receiver calls
// Release; Scratch-tracked buffers are released by Scratch.Release and
// must not be released manually.
type Buf[T any] struct {
	S    []T
	pool *SlicePool[T]
	bin  int8 // -1: oversize, never pooled
	next released
}

func (b *Buf[T]) reclaim() released {
	n := b.next
	b.next = nil
	b.Release()
	return n
}

// Release returns the buffer to its pool. Oversize buffers are counted
// and dropped.
func (b *Buf[T]) Release() { b.pool.put(b) }

// SlicePool hands out []T scratch in power-of-2 bins.
type SlicePool[T any] struct {
	name string
	cfg  config
	bins [numBins]sliceBin[T]
	over struct {
		mu                 sync.Mutex
		acquired, returned uint64
	}
}

type sliceBin[T any] struct {
	mu                     sync.Mutex
	free                   []*Buf[T]
	hits, misses, returned uint64
}

// NewSlice constructs and registers a slice pool.
func NewSlice[T any](name string, opts ...Option) *SlicePool[T] {
	p := &SlicePool[T]{name: name, cfg: config{keepElems: defaultKeepElems}}
	for _, o := range opts {
		o(&p.cfg)
	}
	register(p)
	return p
}

// GetBuf acquires an owned buffer of length n; the caller (or whoever
// ownership is handed to) must call Release. Contents are stale.
func (p *SlicePool[T]) GetBuf(n int) *Buf[T] {
	bi := binIndex(n)
	if bi < 0 {
		p.over.mu.Lock()
		p.over.acquired++
		p.over.mu.Unlock()
		return &Buf[T]{S: make([]T, n), pool: p, bin: -1}
	}
	bn := &p.bins[bi]
	bn.mu.Lock()
	var b *Buf[T]
	if k := len(bn.free); k > 0 {
		b = bn.free[k-1]
		bn.free[k-1] = nil
		bn.free = bn.free[:k-1]
		bn.hits++
	} else {
		bn.misses++
	}
	bn.mu.Unlock()
	if b == nil {
		b = &Buf[T]{S: make([]T, binSize(bi)), pool: p, bin: int8(bi)}
	}
	b.S = b.S[:n]
	return b
}

// Get borrows a length-n slice through sc. Contents are stale; callers
// overwrite every element or use GetZeroed.
func (p *SlicePool[T]) Get(sc *Scratch, n int) []T {
	b := p.GetBuf(n)
	b.next = sc.head
	sc.head = b
	return b.S
}

// GetZeroed borrows a length-n slice through sc with every element set
// to the zero value.
func (p *SlicePool[T]) GetZeroed(sc *Scratch, n int) []T {
	s := p.Get(sc, n)
	clear(s)
	return s
}

// GetCap borrows an empty slice with capacity at least c (rounded up to
// the bin size) through sc, for append-style filling. Appending past the
// requested capacity reallocates out of the pool's sight — the engine
// keeps correctness but loses the reuse, so callers size c as a bound.
func (p *SlicePool[T]) GetCap(sc *Scratch, c int) []T {
	b := p.GetBuf(c)
	b.next = sc.head
	sc.head = b
	return b.S[:0]
}

func (p *SlicePool[T]) put(b *Buf[T]) {
	if b.bin < 0 {
		p.over.mu.Lock()
		p.over.returned++
		p.over.mu.Unlock()
		b.S = nil // drop oversize storage; the wrapper dies with it
		return
	}
	b.S = b.S[:cap(b.S)]
	if p.cfg.clearOnPut {
		clear(b.S)
	}
	bn := &p.bins[b.bin]
	keep := p.cfg.keepElems / cap(b.S)
	if keep < 1 {
		keep = 1
	}
	bn.mu.Lock()
	bn.returned++
	if len(bn.free) < keep {
		bn.free = append(bn.free, b)
	}
	bn.mu.Unlock()
}

// Stats returns the pool's aggregate counters.
func (p *SlicePool[T]) Stats() Stats {
	return p.Snapshot().Stats
}

// Snapshot implements the registry interface.
func (p *SlicePool[T]) Snapshot() PoolStats {
	ps := PoolStats{Name: p.name, Bins: make([]BinStats, 0, numBins)}
	for i := range p.bins {
		bn := &p.bins[i]
		bn.mu.Lock()
		bs := BinStats{Size: binSize(i), Hits: bn.hits, Misses: bn.misses, Returned: bn.returned}
		bn.mu.Unlock()
		ps.Bins = append(ps.Bins, bs)
		ps.Hits += bs.Hits
		ps.Misses += bs.Misses
		ps.Returned += bs.Returned
	}
	p.over.mu.Lock()
	ps.Oversize = p.over.acquired
	ps.Returned += p.over.returned
	p.over.mu.Unlock()
	return ps
}

// Index numbers distinct keys 0, 1, 2, ... in first-insertion order —
// the wave engines' dedup table: an open-addressed, linearly probed table
// of numbers over the keys it has handed out. It is flat and
// pointer-free, so a probe is one hash, a slot load and, on a filled
// slot, one key compare. Reset empties exactly the slots its keys
// filled: emptying the whole table would cost its grown capacity, which
// one large call would otherwise charge every later small one. The zero
// value is ready to use.
type Index struct {
	slots []int32    // 0 is empty, else a key's number + 1; length a power of two
	shift uint       // 64 - log2(len(slots))
	keys  []indexKey // by number
	next  released
}

type indexKey struct {
	k    uint64
	slot uint32 // where the key's number sits in slots
}

// KeepIndexKeys bounds the keys an index may hold and keep its table
// through Reset: one served window's widest wave numbers a few thousand
// lines. An index grown past it drops its table, so one oversized call
// pins no memory in a pool.
const KeepIndexKeys = 1 << 14

// indexMinBits sizes a fresh table; it doubles whenever it is half full.
const indexMinBits = 8

// Number returns k's number, giving k the next one if it has none, and
// whether k was already numbered.
func (t *Index) Number(k uint64) (int, bool) {
	if t.slots == nil {
		t.slots = make([]int32, 1<<indexMinBits)
		t.shift = 64 - indexMinBits
	}
	mask := uint64(len(t.slots) - 1)
	i := t.home(k)
	for n := t.slots[i]; n != 0; n = t.slots[i] {
		if t.keys[n-1].k == k {
			return int(n - 1), true
		}
		i = (i + 1) & mask
	}
	n := len(t.keys)
	t.keys = append(t.keys, indexKey{k: k, slot: uint32(i)})
	t.slots[i] = int32(n + 1)
	if 2*len(t.keys) > len(t.slots) {
		t.grow()
	}
	return n, false
}

// home is k's first slot. Fibonacci hashing: the product's top bits
// depend on every bit of k, so bucket numbers and PLIDs that differ only
// in their low bits still spread.
func (t *Index) home(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 >> t.shift }

// grow doubles the table and places every key again, in number order.
func (t *Index) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for n := range t.keys {
		i := t.home(t.keys[n].k)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(n + 1)
		t.keys[n].slot = uint32(i)
	}
}

// Reset forgets every key, keeping the table's capacity unless it holds
// more than KeepIndexKeys keys.
func (t *Index) Reset() {
	if len(t.keys) > KeepIndexKeys {
		*t = Index{next: t.next} // a dropped index is the zero Index
		return
	}
	for _, k := range t.keys {
		t.slots[k.slot] = 0
	}
	t.keys = t.keys[:0]
}

var indexes = NewItems[Index]("pool.index", (*Index).Reset)

// GetIndex borrows an empty index through sc.
func GetIndex(sc *Scratch) *Index {
	t := indexes.Get()
	t.next = sc.head
	sc.head = t
	return t
}

func (t *Index) reclaim() released {
	n := t.next
	t.next = nil
	indexes.Put(t)
	return n
}

// ItemPool hands out reusable node structs (wave-tree nodes, scanner
// frames). Engines Get nodes during a call and Put them back in their
// teardown walk; reset restores a node to its pristine state while
// keeping grown member capacity.
type ItemPool[T any] struct {
	name                   string
	reset                  func(*T)
	keep                   int
	mu                     sync.Mutex
	free                   []*T
	hits, misses, returned uint64
}

// NewItems constructs and registers an item pool. reset (may be nil) is
// applied when an item is returned.
func NewItems[T any](name string, reset func(*T)) *ItemPool[T] {
	p := &ItemPool[T]{name: name, reset: reset, keep: 1 << 16}
	register(p)
	return p
}

// Get acquires an item: reused (post-reset state) or freshly zero.
func (p *ItemPool[T]) Get() *T {
	p.mu.Lock()
	var v *T
	if k := len(p.free); k > 0 {
		v = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		p.hits++
	} else {
		p.misses++
	}
	p.mu.Unlock()
	if v == nil {
		v = new(T)
	}
	return v
}

// Put resets the item and returns it to the pool.
func (p *ItemPool[T]) Put(v *T) {
	if p.reset != nil {
		p.reset(v)
	}
	p.mu.Lock()
	p.returned++
	if len(p.free) < p.keep {
		p.free = append(p.free, v)
	}
	p.mu.Unlock()
}

// Stats returns the pool's counters.
func (p *ItemPool[T]) Stats() Stats { return p.Snapshot().Stats }

// Snapshot implements the registry interface.
func (p *ItemPool[T]) Snapshot() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Name: p.name, Stats: Stats{Hits: p.hits, Misses: p.misses, Returned: p.returned}}
}
