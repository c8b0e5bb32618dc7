// Package cachesim provides the cache models used by both architectures in
// the evaluation: a generic set-associative write-back cache with LRU
// replacement, used as the HICAMP last-level cache (paper §3.1, Figure 3)
// by package core, and a conventional two-level hierarchy standing in for
// the paper's DineroIV baseline (32 KB 4-way L1D + 4 MB 16-way L2).
//
// The set-associative Cache is safe for concurrent use with per-set
// striping: every set carries its own lock (sets are independent by
// construction — an entry's set is a pure function of its key). Recency is
// a per-set clock stamped onto each way instead of a move-to-front list;
// exact LRU is preserved because the eviction victim is the minimum stamp
// within its set, which orders a set's entries identically to a recency
// list. Event counters live in a small array of atomic shards merged by
// StatsSnapshot; callers collect a batch's events in a Tally and publish
// them once. No set lock is ever held across a caller-supplied callback,
// so eviction handling may re-enter the memory system freely.
package cachesim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/word"
)

// Kind distinguishes what a cache entry holds.
type Kind uint8

const (
	// KindData is a HICAMP data line, identified by PLID.
	KindData Kind = iota
	// KindRC is a reference-count line, identified by bucket number.
	KindRC
	// KindAddr is a conventional-memory line, identified by line address.
	KindAddr
)

// Key identifies a cache entry.
type Key struct {
	Kind Kind
	ID   uint64
}

// Entry is one cache line.
type Entry struct {
	Key     Key
	Content word.Content
	Dirty   bool
}

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Inserts   uint64
	Evictions uint64
	DirtyEvts uint64
}

const (
	cHits = iota
	cMisses
	cInserts
	cEvictions
	cDirtyEvts
	cacheStatCount
)

// cacheStatShards bounds stat-counter contention without one shard per
// set; a set's shard is set & (cacheStatShards-1).
const cacheStatShards = 8

type cacheStatShard struct {
	c [cacheStatCount]uint64
	_ [64 - (cacheStatCount*8)%64]byte
}

// MaxWays is the largest associativity: a set's per-way bitmaps are one
// word each.
const MaxWays = 64

// Host layout. A set is a header plus a run of ways in flat, pointer-free
// arrays indexed set*ways+way:
//
//	setHead  lock, resident count, recency clock, dirty and content
//	         bitmaps — one 64-byte host line per set
//	keys     the packed key per way: Kind in the top two bits, ID below
//	stamps   the clock value of each way's last use
//	lines    n data words then one word of packed tags per way, sized by
//	         the width n of the first line inserted with content
//
// so a 16-byte line costs three words, not an 80-byte word.Content, and a
// cache that never holds content (the conventional Hierarchy) allocates
// no line storage at all. Ways [0, n) are resident, in insertion order: a
// new line appends, an eviction replaces its victim in place and an
// invalidation moves the last way into the hole, so scan order — which
// entry a content probe finds first — is a function of the op sequence
// alone.
//
// Everything but the content pointer is read and written under the set's
// lock with plain accesses. The lock is a plain mutex, not a reader/writer
// lock: a hit updates the stamp (and, for a write, the dirty bit), so
// shared-lock probes would need atomic clock, stamp and dirty updates, and
// those cost more than they save — BenchmarkCachesimProbe ran 99 ns/op
// under a reader/writer lock and 86 ns/op under the mutex (medians of six
// alternating one-CPU runs on a 2-vCPU Xeon VM), and every critical
// section is a scan of at most MaxWays keys.

type setState struct {
	mu    sync.Mutex
	n     int    // resident ways
	tick  uint64 // recency clock; larger = more recent
	dirty uint64 // bit i: way i is dirty
	held  uint64 // bit i: way i holds content (else it reads as Content{})
}

type setHead struct {
	setState
	_ [64 - unsafe.Sizeof(setState{})%64]byte
}

// lineArray is the content storage: width data words plus a tag word per
// way.
type lineArray struct {
	width int
	words []uint64
}

const kindShift = 62

func pack(k Key) uint64 {
	if k.ID>>kindShift != 0 {
		panic(fmt.Sprintf("cachesim: key ID %#x exceeds %d bits", k.ID, kindShift))
	}
	return uint64(k.Kind)<<kindShift | k.ID
}

func unpack(k uint64) Key {
	return Key{Kind: Kind(k >> kindShift), ID: k & (1<<kindShift - 1)}
}

// Cache is a set-associative cache with true-LRU replacement (stamp
// ordering) and per-set lock striping.
type Cache struct {
	heads  []setHead
	keys   []uint64
	stamps []uint64
	ways   int

	lines   atomic.Pointer[lineArray] // nil until the first line with content
	linesMu sync.Mutex

	shards [cacheStatShards]cacheStatShard
}

// New creates a cache with the given geometry. Sets must be a power of two
// and ways at most MaxWays.
func New(sets, ways int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: sets %d not a positive power of two", sets))
	}
	if ways <= 0 || ways > MaxWays {
		panic(fmt.Sprintf("cachesim: ways %d out of range [1,%d]", ways, MaxWays))
	}
	return &Cache{
		heads:  make([]setHead, sets),
		keys:   make([]uint64, sets*ways),
		stamps: make([]uint64, sets*ways),
		ways:   ways,
	}
}

// SetMask returns the index mask (Sets-1).
func (c *Cache) SetMask() uint64 { return uint64(len(c.heads) - 1) }

// Tally collects one caller's cache events until Publish adds them to the
// cache's counters, so a batch of probes pays one atomic add per counter
// rather than one per event.
type Tally struct {
	n   [cacheStatCount]uint64
	set int // picks the counter shard
}

func (t *Tally) add(set, counter int) {
	t.n[counter]++
	t.set = set
}

// Publish adds t's events to the cache's counters and zeroes t.
func (c *Cache) Publish(t *Tally) {
	sh := &c.shards[t.set&(cacheStatShards-1)]
	for i, v := range t.n {
		if v != 0 {
			atomic.AddUint64(&sh.c[i], v)
		}
	}
	*t = Tally{}
}

// StatsSnapshot merges the counter shards into one Stats value.
func (c *Cache) StatsSnapshot() Stats {
	var sum [cacheStatCount]uint64
	for i := range c.shards {
		for j := 0; j < cacheStatCount; j++ {
			sum[j] += atomic.LoadUint64(&c.shards[i].c[j])
		}
	}
	return Stats{
		Hits:      sum[cHits],
		Misses:    sum[cMisses],
		Inserts:   sum[cInserts],
		Evictions: sum[cEvictions],
		DirtyEvts: sum[cDirtyEvts],
	}
}

// ResetStats zeroes the event counters (cache contents are kept).
func (c *Cache) ResetStats() {
	for i := range c.shards {
		for j := 0; j < cacheStatCount; j++ {
			atomic.StoreUint64(&c.shards[i].c[j], 0)
		}
	}
}

// linesFor returns the content storage for lines of width n, allocating
// it on first use; a width other than the first one inserted panics.
func (c *Cache) linesFor(n int) *lineArray {
	la := c.lines.Load()
	if la == nil {
		c.linesMu.Lock()
		if la = c.lines.Load(); la == nil {
			la = &lineArray{width: n, words: make([]uint64, len(c.keys)*(n+1))}
			c.lines.Store(la)
		}
		c.linesMu.Unlock()
	}
	if la.width != n {
		panic(fmt.Sprintf("cachesim: line of %d words in a cache of %d-word lines", n, la.width))
	}
	return la
}

func (la *lineArray) line(slot int) []uint64 {
	w := la.width + 1
	return la.words[slot*w : slot*w+w : slot*w+w]
}

func packTags(c *word.Content) uint64 {
	var t uint64
	for i := 0; i < int(c.N); i++ {
		t |= uint64(c.T[i]) << (8 * i)
	}
	return t
}

func (la *lineArray) store(slot int, c *word.Content) {
	l := la.line(slot)
	copy(l, c.W[:la.width])
	l[la.width] = packTags(c)
}

func (la *lineArray) load(slot int, dst *word.Content) {
	l := la.line(slot)
	*dst = word.Content{N: uint8(la.width)}
	t := l[la.width]
	for i, w := range l[:la.width] {
		dst.W[i] = w
		dst.T[i] = word.Tag(t >> (8 * i))
	}
}

func (la *lineArray) equal(slot int, c *word.Content, tags uint64) bool {
	l := la.line(slot)
	for i, w := range l[:la.width] {
		if w != c.W[i] {
			return false
		}
	}
	return l[la.width] == tags
}

// loadWay copies way i of set h (slot = its array index) into *dst; the
// caller holds the set's lock.
func (c *Cache) loadWay(h *setHead, i, slot int, dst *word.Content) {
	if h.held>>i&1 == 0 {
		*dst = word.Content{}
		return
	}
	c.lines.Load().load(slot, dst)
}

// touch makes the way at slot the most recent of set h; the caller holds
// the set's lock.
func (c *Cache) touch(h *setHead, slot int) {
	h.tick++
	c.stamps[slot] = h.tick
}

// find returns the way of set h holding key k, or -1; the caller holds
// the set's lock.
func (c *Cache) find(h *setHead, base int, k uint64) int {
	for i, x := range c.keys[base : base+h.n] {
		if x == k {
			return i
		}
	}
	return -1
}

// probe looks up key k in set s, refreshing its recency on a hit and,
// with markDirty, dirtying it. On a hit it copies
// the line into *dst when dst is non-nil and reports the way's dirty bit.
func (c *Cache) probe(s int, k uint64, markDirty bool, dst *word.Content, t *Tally) (hit, dirty bool) {
	h := &c.heads[s]
	base := s * c.ways
	h.mu.Lock()
	i := c.find(h, base, k)
	if i < 0 {
		h.mu.Unlock()
		t.add(s, cMisses)
		return false, false
	}
	c.touch(h, base+i)
	if markDirty {
		h.dirty |= 1 << i
	}
	dirty = h.dirty>>i&1 != 0
	if dst != nil {
		c.loadWay(h, i, base+i, dst)
	}
	h.mu.Unlock()
	t.add(s, cHits)
	return true, dirty
}

// lookup searches set s for a data line holding exactly *cont, refreshing
// its recency on a hit — the lookup-by-content path of the HICAMP cache
// (Figure 3). It compares the line's width in words plus one tag word.
func (c *Cache) lookup(s int, cont *word.Content, t *Tally) (k uint64, dirty, hit bool) {
	h := &c.heads[s]
	base := s * c.ways
	h.mu.Lock()
	if la := c.lines.Load(); la != nil && int(cont.N) == la.width {
		tags := packTags(cont)
		for i, key := range c.keys[base : base+h.n] {
			if key>>kindShift != uint64(KindData) || h.held>>i&1 == 0 || !la.equal(base+i, cont, tags) {
				continue
			}
			c.touch(h, base+i)
			dirty = h.dirty>>i&1 != 0
			h.mu.Unlock()
			t.add(s, cHits)
			return key, dirty, true
		}
	}
	h.mu.Unlock()
	t.add(s, cMisses)
	return 0, false, false
}

// place claims a way of set h for key k, which the set does not hold: a
// free way, or else the LRU way, whose key and dirty bit it reports as
// the victim. The way's content, bitmaps and stamp are the caller's to
// write (setWay); the caller holds the set's lock.
func (c *Cache) place(h *setHead, s, base int, k uint64, t *Tally) (i int, victim uint64, victimDirty, evicted bool) {
	t.add(s, cInserts)
	if h.n < c.ways {
		i = h.n
		h.n++
	} else {
		for j := 1; j < c.ways; j++ {
			if c.stamps[base+j] < c.stamps[base+i] {
				i = j
			}
		}
		victim, victimDirty, evicted = c.keys[base+i], h.dirty>>i&1 != 0, true
		t.add(s, cEvictions)
		if victimDirty {
			t.add(s, cDirtyEvts)
		}
	}
	c.keys[base+i] = k
	return i, victim, victimDirty, evicted
}

// setWay writes way i of set h as most recent, with content *cont (none
// when la is nil) and the given dirty bit; the caller holds the set's
// lock.
func (c *Cache) setWay(h *setHead, base, i int, la *lineArray, cont *word.Content, dirty bool) {
	bit := uint64(1) << i
	if la != nil {
		la.store(base+i, cont)
		h.held |= bit
	} else {
		h.held &^= bit
	}
	if dirty {
		h.dirty |= bit
	} else {
		h.dirty &^= bit
	}
	c.touch(h, base+i)
}

// insert places key k in set s as most recent, with content *cont (none
// when cont is nil or zero-width) and the given dirty bit, evicting the
// LRU way when the set is full; inserting a key already present replaces
// that way in place. It returns the evicted key and whether it was dirty,
// copying the victim's content into *vc when vc is non-nil.
func (c *Cache) insert(s int, k uint64, cont *word.Content, dirty bool, t *Tally, vc *word.Content) (victim uint64, victimDirty, evicted bool) {
	var la *lineArray
	if cont != nil && cont.N != 0 {
		la = c.linesFor(int(cont.N))
	}
	h := &c.heads[s]
	base := s * c.ways
	h.mu.Lock()
	i := c.find(h, base, k)
	if i < 0 {
		i, victim, victimDirty, evicted = c.place(h, s, base, k, t)
		if evicted && vc != nil {
			c.loadWay(h, i, base+i, vc)
		}
	}
	c.setWay(h, base, i, la, cont, dirty)
	h.mu.Unlock()
	return victim, victimDirty, evicted
}

// ReadData is the read path's probe: it looks up data line id in set,
// refreshing its recency, and on a hit writes the line into *dst.
func (c *Cache) ReadData(set int, id uint64, dst *word.Content, t *Tally) bool {
	hit, _ := c.probe(set, pack(Key{Kind: KindData, ID: id}), false, dst, t)
	return hit
}

// LookupData is the lookup-by-content probe: it returns the ID of the data
// line in set holding exactly *cont. Because every hash bucket maps to
// exactly one set, a single set probe suffices; the caller derives set
// from the content hash.
func (c *Cache) LookupData(set int, cont *word.Content, t *Tally) (uint64, bool) {
	k, _, hit := c.lookup(set, cont, t)
	return k, hit
}

// TouchRC is one reference-count mutation: it probes set for RC line id
// and dirties it, and on a miss inserts it dirty in the same call. It
// reports whether the probe hit, and the key of the line the insert
// evicted with whether that line was dirty (false when nothing was).
func (c *Cache) TouchRC(set int, id uint64, t *Tally) (hit bool, victim Key, victimDirty bool) {
	k := pack(Key{Kind: KindRC, ID: id})
	h := &c.heads[set]
	base := set * c.ways
	h.mu.Lock()
	if i := c.find(h, base, k); i >= 0 {
		c.touch(h, base+i)
		h.dirty |= 1 << i
		h.mu.Unlock()
		t.add(set, cHits)
		return true, Key{}, false
	}
	t.add(set, cMisses)
	i, v, d, _ := c.place(h, set, base, k, t)
	c.setWay(h, base, i, nil, nil, true)
	h.mu.Unlock()
	return false, unpack(v), d
}

// InsertData places data line id with content *cont in set as most
// recent. It returns the key of the line it evicted and whether that line
// was dirty — the only eviction a caller acts on; victimDirty is false
// when nothing was evicted.
func (c *Cache) InsertData(set int, id uint64, cont *word.Content, dirty bool, t *Tally) (victim Key, victimDirty bool) {
	v, d, _ := c.insert(set, pack(Key{Kind: KindData, ID: id}), cont, dirty, t, nil)
	return unpack(v), d
}

// Probe looks up key in the given set, refreshing its recency on hit and
// returning a copy of the entry. When markDirty is set, a hit entry is
// flagged dirty — the probe-and-dirty of a cached write.
func (c *Cache) Probe(set int, key Key, markDirty bool) (Entry, bool) {
	var t Tally
	e := Entry{Key: key}
	hit, dirty := c.probe(set, pack(key), markDirty, &e.Content, &t)
	c.Publish(&t)
	if !hit {
		return Entry{}, false
	}
	e.Dirty = dirty
	return e, true
}

// ProbeContent searches the set for a data-line entry with the given
// content. An entry inserted without content never matches.
func (c *Cache) ProbeContent(set int, cont word.Content) (Entry, bool) {
	var t Tally
	k, dirty, hit := c.lookup(set, &cont, &t)
	c.Publish(&t)
	if !hit {
		return Entry{}, false
	}
	return Entry{Key: unpack(k), Content: cont, Dirty: dirty}, true
}

// Insert places e in the set as most recent, evicting the LRU entry when
// the set is full. It returns the evicted entry, if any; the set lock is
// released before returning, so the caller may handle the eviction with
// further memory-system calls. Inserting a key already present replaces
// that entry in place (refreshed to most recent). An entry with a
// zero-width Content carries none and reads back as Content{}; the first
// entry with content fixes the cache's line width, and a later one of
// another width panics.
func (c *Cache) Insert(set int, e Entry) (Entry, bool) {
	var t Tally
	var v Entry
	k, dirty, evicted := c.insert(set, pack(e.Key), &e.Content, e.Dirty, &t, &v.Content)
	c.Publish(&t)
	if !evicted {
		return Entry{}, false
	}
	v.Key, v.Dirty = unpack(k), dirty
	return v, true
}

// Invalidate removes the entry with the given key from the set, reporting
// whether it was present. Invalidated entries are dropped without
// writeback — used when a line is de-allocated (paper §3.1: before an
// immutable line is de-allocated it is invalidated in all caches).
func (c *Cache) Invalidate(set int, key Key) bool {
	k := pack(key)
	h := &c.heads[set]
	base := set * c.ways
	h.mu.Lock()
	defer h.mu.Unlock()
	i := c.find(h, base, k)
	if i < 0 {
		return false
	}
	last := h.n - 1
	if i != last {
		c.keys[base+i] = c.keys[base+last]
		c.stamps[base+i] = c.stamps[base+last]
		if la := c.lines.Load(); la != nil {
			copy(la.line(base+i), la.line(base+last))
		}
		bit := uint64(1) << i
		h.held = h.held&^bit | (h.held>>last&1)<<i
		h.dirty = h.dirty&^bit | (h.dirty>>last&1)<<i
	}
	h.held &^= 1 << last
	h.dirty &^= 1 << last
	h.n = last
	return true
}

// FlushDirty invokes fn for every dirty entry's key and marks it clean;
// used at the end of a measurement window to account pending writebacks.
// fn runs with no set lock held (dirty keys are snapshotted per set), so
// it may call back into the memory system.
func (c *Cache) FlushDirty(fn func(Key)) {
	dirty := make([]uint64, 0, c.ways)
	for s := range c.heads {
		h := &c.heads[s]
		base := s * c.ways
		h.mu.Lock()
		for i := 0; i < h.n; i++ {
			if h.dirty>>i&1 != 0 {
				dirty = append(dirty, c.keys[base+i])
			}
		}
		h.dirty = 0
		h.mu.Unlock()
		for _, k := range dirty {
			fn(unpack(k))
		}
		dirty = dirty[:0]
	}
}

// Len returns the number of resident entries (for tests).
func (c *Cache) Len() int {
	n := 0
	for s := range c.heads {
		h := &c.heads[s]
		h.mu.Lock()
		n += h.n
		h.mu.Unlock()
	}
	return n
}
