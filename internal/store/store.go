// Package store implements the HICAMP deduplicating main memory
// (paper §3.1, Figure 2).
//
// DRAM is divided into hash buckets, one per DRAM row. A 16-way bucket
// dedicates way 0 to a line of 8-bit content signatures, way 1 to a line of
// reference counts, ways 2..2+DataWays-1 to data lines and the remaining
// ways to the overflow area. A line is stored in the bucket selected by a
// hash of its content; lookup-by-content reads the signature line, compares
// signatures, reads candidate data lines, and either returns the matching
// PLID or allocates a free way. A PLID is the concatenation of the way
// number and the bucket number, so the controller can always recompute the
// bucket from the content hash — the property the HICAMP cache indexing
// relies on.
//
// The store is the authoritative state below the HICAMP cache: the cache
// layer (package cachesim, composed in package core) decides which of these
// operations actually reach DRAM. Every method that touches simulated DRAM
// increments a named Stats counter.
//
// Concurrency model: a line's bucket is a pure function of its content
// hash, so distinct buckets are independent by construction. The store
// exploits that with lock striping — buckets are guarded by a fixed array
// of reader/writer stripe locks, the overflow area by one dedicated lock.
// Every path that holds several stripes takes them in ascending index,
// and the overflow lock only after its stripes, never the reverse; that
// fixed order rules out deadlock. Counters live in per-stripe
// shards updated with atomic adds and merged by StatsSnapshot, and no
// internal lock is ever held across a call into another package:
// reference-count events reach their RCSink only after every stripe has
// been released.
package store

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pool"
	"repro/internal/word"
)

// Config sizes the simulated memory.
type Config struct {
	// LineBytes is the memory line size: 16, 32 or 64.
	LineBytes int
	// BucketBits sets the number of hash buckets (1 << BucketBits).
	BucketBits int
	// DataWays is the number of data lines per bucket (paper example: 12).
	DataWays int
}

// Validate reports what is wrong with the configuration, if anything.
func (c Config) Validate() error {
	switch c.LineBytes {
	case 16, 32, 64:
	default:
		return fmt.Errorf("store: line size %d not one of 16/32/64", c.LineBytes)
	}
	if c.BucketBits < 4 || c.BucketBits > 32 {
		return fmt.Errorf("store: bucket bits %d out of range [4,32]", c.BucketBits)
	}
	if c.DataWays < 1 || c.DataWays > 12 {
		return fmt.Errorf("store: data ways %d out of range [1,12]", c.DataWays)
	}
	return nil
}

// Stats counts simulated DRAM accesses by kind. The categories match the
// stacked bars of the paper's Figure 6.
type Stats struct {
	SigReads    uint64 // signature-line reads during lookup-by-content
	SigWrites   uint64 // signature-line updates on allocate/free
	DataReads   uint64 // demand data-line reads (cache miss fills)
	LookupReads uint64 // data-line reads comparing lookup candidates
	DataWrites  uint64 // data-line writebacks from the cache
	RCReads     uint64 // reference-count line fills
	RCWrites    uint64 // reference-count line writebacks
	DeallocOps  uint64 // line de-allocations (recursive state machine steps)
	Lookups     uint64 // lookup-by-content operations reaching DRAM
	LookupHits  uint64 // lookups that matched an existing line
	Allocs      uint64 // lines allocated
	Frees       uint64 // lines freed
	FalseSig    uint64 // signature matches whose data compare failed
	Overflows   uint64 // allocations diverted to the overflow area
}

// Total returns the total number of DRAM line accesses (reads + writes of
// any way), the quantity plotted in Figure 6.
func (s Stats) Total() uint64 {
	return s.SigReads + s.SigWrites + s.DataReads + s.LookupReads +
		s.DataWrites + s.RCReads + s.RCWrites + s.DeallocOps
}

// LookupTraffic returns the Figure 6 "Lookups" category: signature line
// reads/updates plus candidate data-line reads during lookup-by-content.
func (s Stats) LookupTraffic() uint64 { return s.SigReads + s.SigWrites + s.LookupReads }

// RCTraffic returns the Figure 6 "RC" category.
func (s Stats) RCTraffic() uint64 { return s.RCReads + s.RCWrites }

// Counter indices into a stats shard; one per Stats field.
const (
	cSigReads = iota
	cSigWrites
	cDataReads
	cLookupReads
	cDataWrites
	cRCReads
	cRCWrites
	cDeallocOps
	cLookups
	cLookupHits
	cAllocs
	cFrees
	cFalseSig
	cOverflows
	statCount
)

// statsShard is one stripe's counter block, padded to its own cache lines
// so stripes never false-share. Fields are updated with atomic adds: the
// read paths hold only shared (reader) stripe locks.
type statsShard struct {
	c [statCount]uint64
	_ [64 - (statCount*8)%64]byte
}

// numStripes is the number of bucket lock stripes (power of two). A
// bucket's stripe is bkt & (numStripes-1), and bkt >> stripeShift indexes
// the bucket within its stripe; stores with fewer buckets than stripes
// simply leave some stripes idle.
const (
	stripeShift = 6
	numStripes  = 1 << stripeShift
)

type stripe struct {
	mu sync.RWMutex
	// unlock/runlock are mu.Unlock/mu.RUnlock bound once at construction:
	// creating a method value per lock acquisition allocates, and the
	// line-lock helpers run on every memory access.
	unlock  func()
	runlock func()
	// free holds the handles of the stripe's zeroed small records that
	// growth vacated (rows.go); guarded by mu.
	free []uint32
	// 64 bytes in all: neighbouring stripe locks never share a line.
}

// ovShard is the stats shard charged for overflow-area operations.
const ovShard = numStripes

// rcEvent records one reference-count mutation to be reported to an
// RCSink after every internal lock has been released.
type rcEvent struct {
	p    word.PLID
	init bool
}

// Store is the deduplicating line memory. All methods are safe for
// concurrent use; see the package comment for the striping design.
type Store struct {
	cfg        Config
	arity      int
	bucketMask uint64
	stripes    [numStripes]stripe

	// Bucket storage (see rows.go and arena.go): dir[bkt] is the handle of
	// the bucket's record, 0 until the bucket is first touched, written
	// under the bucket's stripe lock held exclusively. Records are carved
	// from chunks, out of table where the build reserves one and off the
	// heap where table is nil.
	geos       [2]geom // record geometry by width (small, full)
	dir        []uint32
	chunks     [][]uint64
	chunkShift uint // log2 of a chunk's length in 64-byte units
	table      *arena
	ovBase     uint64 // first overflow PLID value

	ovMu     sync.Mutex              // guards overflow, ovSlots, freeOv and ovIndex
	ovUnlock func()                  // ovMu.Unlock, bound once (see stripe)
	overflow []uint64                // records; slot i is way i%DataWays of record i/DataWays
	ovSlots  uint32                  // overflow slots handed out so far
	freeOv   []uint32                // free slots below ovSlots
	ovIndex  map[word.Content]uint32 // content -> overflow slot

	// Carving state (arena.go), kept off the lines the read paths load.
	carveMu     sync.Mutex    // guards cursor and the creation of chunks
	cursor      uint32        // next 64-byte unit to carve
	carved      atomic.Uint64 // bytes carved (TableStats.TouchedBytes)
	fullBuckets atomic.Uint64 // buckets grown to full width

	liveLines atomic.Uint64
	rows      rowTracker
	shards    [numStripes + 1]statsShard

	// OnRCTouch, when non-nil, is the RCSink of the methods that take
	// none (LookupBatchInto, Release and the test hooks); their ...To
	// forms report to the sink the caller passes instead.
	OnRCTouch RCSink

	// journal, when set, observes line liveness transitions for the
	// write-ahead log (see durable.go). Atomic because the durable layer
	// detaches it on Close while writers may still be allocating.
	journal atomic.Pointer[Journal]
}

// RCSink receives every reference-count mutation with the PLID whose
// count changed. The cache layer uses it to model reference-count line
// traffic (§3.1: counts are cached in the HICAMP cache and written to
// DRAM on eviction). init marks the count initialization of a fresh
// allocation, which is written straight into the cache without fetching
// the line from DRAM (§3.1: "when the line is allocated by lookup
// operation its reference count is written in the LLC and propagated to
// DRAM only when the line is evicted"). A sink always runs with no store
// lock held, so it may call back into any Store method. A nil sink
// drops the events.
type RCSink func(p word.PLID, init bool)

func (s *Store) bump(shard, counter int) {
	atomic.AddUint64(&s.shards[shard].c[counter], 1)
}

func (s *Store) bumpN(shard, counter, n int) {
	if n > 0 {
		atomic.AddUint64(&s.shards[shard].c[counter], uint64(n))
	}
}

// fire1 reports a single reference-count event without building a slice;
// the caller must hold no store lock.
func fire1(p word.PLID, init bool, rc RCSink) {
	if rc != nil {
		rc(p, init)
	}
}

// New creates a store. It panics on an invalid configuration, which is a
// programming error in the simulator setup, not a runtime condition.
func New(cfg Config) *Store {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := 1 << cfg.BucketBits
	arity := cfg.LineBytes / 8
	s := &Store{
		cfg:        cfg,
		arity:      arity,
		bucketMask: uint64(n - 1),
		geos:       [2]geom{newGeom(min(smallWays, cfg.DataWays), arity), newGeom(cfg.DataWays, arity)},
		ovBase:     1 << (cfg.BucketBits + wayFieldBits),
	}
	s.initTable(n)
	for i := range s.stripes {
		mu := &s.stripes[i].mu
		s.stripes[i].unlock = mu.Unlock
		s.stripes[i].runlock = mu.RUnlock
	}
	s.ovUnlock = s.ovMu.Unlock
	// The table stays lazy on every build: a 2^20-bucket store of 16-byte
	// lines would otherwise commit ~350 MB up front, and ForEachLive and
	// CheckConsistency skip what was never touched.
	return s
}

// TableStats describes the host memory behind the bucket table.
type TableStats struct {
	// ReservedBytes is the whole table: room for one small and one full
	// record per bucket, the most the buckets can ever carve.
	ReservedBytes uint64
	// TouchedBytes is what records have been carved so far, small records
	// parked on free lists included. An untouched bucket costs the host
	// nothing beyond its directory entry.
	TouchedBytes uint64
	// FullBuckets counts the buckets grown to full width.
	FullBuckets uint64
}

// TableStats reports the bucket table's host footprint.
func (s *Store) TableStats() TableStats {
	return TableStats{
		ReservedBytes: uint64(len(s.chunks)) << s.chunkShift * 64,
		TouchedBytes:  s.carved.Load(),
		FullBuckets:   s.fullBuckets.Load(),
	}
}

// Config returns the configuration the store was built with.
func (s *Store) Config() Config { return s.cfg }

// LineWords returns the line width in 64-bit words (the DAG arity).
func (s *Store) LineWords() int { return s.arity }

// LiveLines returns the number of currently allocated lines.
func (s *Store) LiveLines() uint64 { return s.liveLines.Load() }

// FootprintBytes returns the DRAM bytes held by live lines.
func (s *Store) FootprintBytes() uint64 { return s.LiveLines() * uint64(s.cfg.LineBytes) }

// StatsSnapshot merges the per-stripe counter shards into one Stats value.
// Concurrent operations may be mid-flight; each counter is individually
// exact (quiesce the store for cross-counter invariants).
func (s *Store) StatsSnapshot() Stats {
	var sum [statCount]uint64
	for i := range s.shards {
		for c := 0; c < statCount; c++ {
			sum[c] += atomic.LoadUint64(&s.shards[i].c[c])
		}
	}
	return Stats{
		SigReads:    sum[cSigReads],
		SigWrites:   sum[cSigWrites],
		DataReads:   sum[cDataReads],
		LookupReads: sum[cLookupReads],
		DataWrites:  sum[cDataWrites],
		RCReads:     sum[cRCReads],
		RCWrites:    sum[cRCWrites],
		DeallocOps:  sum[cDeallocOps],
		Lookups:     sum[cLookups],
		LookupHits:  sum[cLookupHits],
		Allocs:      sum[cAllocs],
		Frees:       sum[cFrees],
		FalseSig:    sum[cFalseSig],
		Overflows:   sum[cOverflows],
	}
}

// ResetStats zeroes every access counter (line contents are kept).
func (s *Store) ResetStats() {
	for i := range s.shards {
		for c := 0; c < statCount; c++ {
			atomic.StoreUint64(&s.shards[i].c[c], 0)
		}
	}
	s.rows.reset()
}

// PLID layout: [0,BucketBits) bucket | [BucketBits,+4) way+2 | overflow bit.
// Data ways are numbered 2..13 following Figure 2 (way 0 = signatures,
// way 1 = reference counts), so a data PLID is never zero and the zero
// PLID can denote the architectural zero line.

const wayFieldBits = 4

// overflowSlotBits bounds the overflow area (2^overflowSlotBits slots
// beyond the first), sized far above any bucket spill the experiments
// produce while keeping PLIDs narrow enough for path compaction.
const overflowSlotBits = 10

// PLIDBits returns the number of low word bits a PLID occupies, bounding
// the space available to path compaction. Overflow PLIDs occupy the range
// [2^(BucketBits+4), 2^(BucketBits+4) * (1+2^overflowSlotBits)).
func (s *Store) PLIDBits() int { return s.cfg.BucketBits + wayFieldBits + overflowSlotBits + 1 }

func (s *Store) plidFor(bkt uint64, way int) word.PLID {
	return word.PLID(uint64(way+2)<<s.cfg.BucketBits | bkt)
}

func (s *Store) overflowPLID(slot uint32) word.PLID {
	// Addition (not OR) keeps the mapping injective for every slot.
	return word.PLID(s.ovBase + uint64(slot))
}

func (s *Store) isOverflow(p word.PLID) bool {
	return uint64(p) >= s.ovBase
}

// BucketOf returns the hash bucket a PLID belongs to. Overflow PLIDs have
// no bucket; the second result reports whether the PLID is a bucket line.
func (s *Store) BucketOf(p word.PLID) (uint64, bool) {
	if s.isOverflow(p) {
		return 0, false
	}
	return uint64(p) & s.bucketMask, true
}

// stripeOf maps a bucket to its lock stripe.
func stripeOf(bkt uint64) int { return int(bkt & (numStripes - 1)) }

// shardOf returns the stats shard index for a PLID.
func (s *Store) shardOf(p word.PLID) int {
	if b, ok := s.BucketOf(p); ok {
		return stripeOf(b)
	}
	return ovShard
}

// lockLine acquires the exclusive lock guarding p's line (its bucket
// stripe, or the overflow lock) and returns the unlock function.
func (s *Store) lockLine(p word.PLID) func() {
	if s.isOverflow(p) {
		s.ovMu.Lock()
		return s.ovUnlock
	}
	st := &s.stripes[stripeOf(uint64(p)&s.bucketMask)]
	st.mu.Lock()
	return st.unlock
}

// rlockLine acquires shared access to p's line for the lock-free-reader
// paths (Read, Peek, RefCount). Overflow lines use the exclusive overflow
// lock, which is the cold path.
func (s *Store) rlockLine(p word.PLID) func() {
	if s.isOverflow(p) {
		s.ovMu.Lock()
		return s.ovUnlock
	}
	st := &s.stripes[stripeOf(uint64(p)&s.bucketMask)]
	st.mu.RLock()
	return st.runlock
}

// bucketRow returns the view of a bucket's record, reporting false when
// the bucket has never been touched. The caller holds the bucket's stripe
// lock (shared or exclusive).
func (s *Store) bucketRow(bkt uint64) (rowRef, bool) {
	h := s.dir[bkt]
	if h == 0 {
		return rowRef{}, false
	}
	return s.record(h), true
}

// bucketRowAlloc is bucketRow giving an untouched bucket a small record —
// one its stripe's growth vacated if there is one, else a fresh one. The
// caller holds the stripe lock exclusively.
func (s *Store) bucketRowAlloc(bkt uint64) rowRef {
	h := s.dir[bkt]
	if h == 0 {
		st := &s.stripes[stripeOf(bkt)]
		if n := len(st.free); n > 0 {
			h, st.free = st.free[n-1], st.free[:n-1]
		} else {
			h = s.carve(small)
		}
		s.dir[bkt] = h
	}
	return s.record(h)
}

// grow moves a bucket from its small record to a full-width one and
// returns the new view (see rows.go). Host bookkeeping only: no DRAM
// access is charged and no row is touched. The caller holds the stripe
// lock exclusively.
func (s *Store) grow(bkt uint64, row rowRef) rowRef {
	h := s.carve(full)
	wide := s.record(h)
	row.copyTo(wide)
	st := &s.stripes[stripeOf(bkt)]
	st.free = append(st.free, s.dir[bkt])
	s.dir[bkt] = h
	clear(row.rec)
	s.fullBuckets.Add(1)
	return wide
}

// overflowLine returns the view of an overflow slot below ovSlots. The
// caller must hold ovMu.
func (s *Store) overflowLine(slot uint32) lineRef {
	ways := s.cfg.DataWays
	return s.geos[full].row(s.overflow, int(slot)/ways).line(int(slot) % ways)
}

// lineAt resolves a PLID to its line slot. The caller must hold p's lock
// (shared or exclusive).
func (s *Store) lineAt(p word.PLID) lineRef {
	if s.isOverflow(p) {
		slot := uint64(p) - s.ovBase
		if slot >= uint64(s.ovSlots) {
			badPLID(p)
		}
		return s.overflowLine(uint32(slot))
	}
	row, ok := s.bucketRow(uint64(p) & s.bucketMask)
	way := int(uint64(p)>>s.cfg.BucketBits) - 2
	if uint(way) >= uint(s.cfg.DataWays) || !ok {
		badPLID(p)
	}
	return row.line(way)
}

func badPLID(p word.PLID) {
	panic(fmt.Sprintf("store: bad PLID %#x", uint64(p)))
}

// LookupTo performs the DRAM lookup-by-content protocol of §3.1 and returns
// the PLID plus whether the content already existed, reporting its
// reference-count events to rc. The caller acquires
// one reference; on a fresh allocation the store additionally takes one
// reference per PLID-tagged word inside the content (the line's own
// references, released when the line is freed). Content of all zeroes
// must be handled by the caller (the zero PLID) and panics here.
//
// The whole probe-or-allocate runs under the bucket's stripe lock, which
// is what keeps content unique under concurrency: two racing lookups of
// the same content serialize on the same stripe, so the second always
// finds the first's line.
func (s *Store) LookupTo(c word.Content, rc RCSink) (word.PLID, bool) {
	if c.IsZero() {
		panic("store: Lookup of zero content (use word.Zero)")
	}
	if int(c.N) != s.arity {
		panic(fmt.Sprintf("store: content width %d, line width %d", c.N, s.arity))
	}
	h := c.Hash()
	bkt := h & s.bucketMask
	st := stripeOf(bkt)
	s.bump(st, cLookups)
	sig := word.SignatureOf(h)

	// Dedup-hit fast path: most steady-state lookups find their content
	// already resident and only need an rc increment, which the shared
	// stripe lock plus an atomic add allow without excluding concurrent
	// hits on the same (hot, because deduplicated) bucket.
	if p, ok := s.lookupFast(bkt, st, &c, sig, rc); ok {
		return p, true
	}

	var acc [statCount]uint64
	mu := &s.stripes[st].mu
	mu.Lock()
	p, existed, ev := s.lookupLocked(bkt, &c, sig, &acc)
	mu.Unlock()
	s.flush(st, &acc)
	fire1(ev.p, ev.init, rc)
	if !existed {
		// The line's own references on its children. The caller holds a
		// reference on every child it placed in c, so the children cannot
		// be reclaimed between the allocation above and these retains.
		s.retainChildren(c, rc)
	}
	return p, existed
}

// LookupBatch performs lookup-by-content for every content in cs, the bulk
// write-path primitive behind segment.CanonBatch: contents are grouped by
// bucket stripe so each stripe lock is taken once per batch (not once per
// line), every bucket record is loaded before any is processed (warm),
// DRAM accounting is accumulated locally and flushed with one
// atomic add per counter per stripe group, and row touches coalesce per
// lookup. Results are positional: plids[i] and existed[i] describe cs[i]
// with the same reference semantics as Lookup (the caller acquires one
// reference per element; fresh allocations additionally retain their
// PLID-tagged children).
//
// The batch holds every stripe it touches, taken in ascending order, and
// nests the overflow lock inside them — lockAll's order — so concurrent
// batches (and singular lookups) cannot deadlock. Stripe groups are
// processed in ascending stripe order, each in input order. Duplicate
// contents within one batch are safe: they land in the same stripe group
// and the second finds the line the first allocated. Children of fresh
// lines are retained after every stripe lock has been released (retainAll)
// and reference-count events fire after that, in the order a serial loop
// of LookupTo calls fires them.
func (s *Store) LookupBatch(cs []word.Content) (plids []word.PLID, existed []bool) {
	plids = make([]word.PLID, len(cs))
	existed = make([]bool, len(cs))
	s.LookupBatchInto(cs, plids, existed)
	return plids, existed
}

// LookupBatchInto is LookupBatch writing into caller-supplied buffers of
// length len(cs) — the allocation-free batch lookup: the grouping and
// event scratch is pooled, so a steady-state call (every content already
// resident) allocates nothing.
func (s *Store) LookupBatchInto(cs []word.Content, plids []word.PLID, existed []bool) {
	s.LookupBatchTo(cs, plids, existed, s.OnRCTouch)
}

// LookupBatchTo is LookupBatchInto reporting its reference-count events
// to rc.
func (s *Store) LookupBatchTo(cs []word.Content, plids []word.PLID, existed []bool, rc RCSink) {
	n := len(cs)
	if len(plids) != n || len(existed) != n {
		panic("store: LookupBatchInto buffer length mismatch")
	}
	if n == 0 {
		return
	}
	var sc pool.Scratch
	defer sc.Release()
	events := poolEvents.Get(&sc, n)
	bkts := poolU64.Get(&sc, n)
	sigs := poolSigs.Get(&sc, n)
	var counts [numStripes]int32
	for i := range cs {
		if cs[i].IsZero() {
			panic("store: LookupBatch of zero content (use word.Zero)")
		}
		if int(cs[i].N) != s.arity {
			panic(fmt.Sprintf("store: content width %d, line width %d", cs[i].N, s.arity))
		}
		h := cs[i].Hash()
		bkts[i] = h & s.bucketMask
		sigs[i] = word.SignatureOf(h)
		counts[stripeOf(bkts[i])]++
	}
	// Counting sort of batch indices by stripe: order[start[st]:start[st+1]]
	// lists the elements of stripe st in input order.
	var start [numStripes + 1]int32
	for st := 0; st < numStripes; st++ {
		start[st+1] = start[st] + counts[st]
	}
	order := poolOrder.Get(&sc, n)
	next := start
	for i := range cs {
		st := stripeOf(bkts[i])
		order[next[st]] = int32(i)
		next[st]++
	}
	// Every stripe the batch touches is taken once and held for the whole
	// batch, in ascending order with the overflow lock nested inside —
	// lockAll's order. Holding them all lets the records be loaded before
	// any is processed.
	var held uint64
	for st := 0; st < numStripes; st++ {
		if counts[st] > 0 {
			held |= 1 << st
			s.stripes[st].mu.Lock()
		}
	}
	s.warm(bkts, poolHandles.Get(&sc, n))
	for st := 0; st < numStripes; st++ {
		group := order[start[st]:start[st+1]]
		if len(group) == 0 {
			continue
		}
		var acc [statCount]uint64
		acc[cLookups] = uint64(len(group))
		for _, i := range group {
			plids[i], existed[i], events[i] = s.lookupLocked(bkts[i], &cs[i], sigs[i], &acc)
		}
		s.flush(st, &acc)
	}
	for ; held != 0; held &= held - 1 {
		s.stripes[bits.TrailingZeros64(held)].mu.Unlock()
	}
	// The fresh lines' own references on their children, taken together;
	// the events then fire in the order the serial loop fires them.
	bound := 0
	for i := range cs {
		if !existed[i] {
			bound += int(cs[i].N)
		}
	}
	if bound > 0 {
		kids := poolPLIDs.GetCap(&sc, bound)
		for i := range cs {
			if !existed[i] {
				kids = s.appendChildren(kids, &cs[i])
			}
		}
		s.retainAll(kids)
	}
	var buf [word.MaxWords]word.PLID
	for i := range cs {
		fire1(events[i].p, events[i].init, rc)
		if !existed[i] {
			for _, p := range s.appendChildren(buf[:0], &cs[i]) {
				fire1(p, false, rc)
			}
		}
	}
}

// warm loads every host line of the records of bkts before a batch
// processes any of them, in two passes — the directory entries into hs,
// then the records they name — so that the loads of each pass are
// independent of one another and the host takes their cache misses
// together rather than one per element. The caller holds every bucket's
// stripe lock; the record reads are atomic because a shared holder's
// peers may be moving counts.
func (s *Store) warm(bkts []uint64, hs []uint32) {
	for i, b := range bkts {
		hs[i] = s.dir[b]
	}
	var x uint64
	for _, h := range hs {
		if h != 0 {
			rec := s.record(h).rec
			for i := 0; i < len(rec); i += 8 {
				x += atomic.LoadUint64(&rec[i])
			}
		}
	}
	runtime.KeepAlive(x) // keeps the loads
}

// retainAll adds one reference to every line in ps (nonzero, live: the
// caller holds a reference on each), reporting to no sink, as
// RetainQuiet does. Each stripe ps names is taken shared once, in
// ascending order, then the overflow lock if an overflow line is among
// them, and their records are loaded before any count moves, as warm
// does for a lookup batch.
func (s *Store) retainAll(ps []word.PLID) {
	var sc pool.Scratch
	defer sc.Release()
	bkts := poolU64.GetCap(&sc, len(ps))
	var held uint64
	ov := false
	for _, p := range ps {
		if s.isOverflow(p) {
			ov = true
			continue
		}
		b := uint64(p) & s.bucketMask
		bkts = append(bkts, b)
		held |= 1 << stripeOf(b)
	}
	for m := held; m != 0; m &= m - 1 {
		s.stripes[bits.TrailingZeros64(m)].mu.RLock()
	}
	if ov {
		s.ovMu.Lock()
	}
	s.warm(bkts, poolHandles.Get(&sc, len(bkts)))
	bad := word.Zero // first freed PLID found; the panic fires unlocked
	for _, p := range ps {
		ln := s.lineAt(p)
		if !ln.used() {
			bad = p
			break
		}
		atomic.AddUint64(ln.rc(), 1)
	}
	if ov {
		s.ovMu.Unlock()
	}
	for ; held != 0; held &= held - 1 {
		s.stripes[bits.TrailingZeros64(held)].mu.RUnlock()
	}
	if bad != word.Zero {
		panic(fmt.Sprintf("store: retain of freed PLID %#x", uint64(bad)))
	}
}

// flush adds a local counter accumulator into a stats shard, one atomic
// add per non-zero counter.
func (s *Store) flush(shard int, acc *[statCount]uint64) {
	for i, v := range acc {
		if v != 0 {
			atomic.AddUint64(&s.shards[shard].c[i], v)
		}
	}
}

// lookupFast probes for an existing line under the stripe's shared lock.
// The protocol's accounting (signature read, candidate reads, row
// touches) is deferred until a hit is confirmed, so a fall-through to the
// exclusive path — which re-runs the full protocol — never double-charges.
// While the shared lock is held a used line cannot be freed, so the
// atomic rc increment cannot resurrect a dead line.
func (s *Store) lookupFast(bkt uint64, st int, c *word.Content, sig uint8, rc RCSink) (word.PLID, bool) {
	mu := &s.stripes[st].mu
	mu.RLock()
	row, ok := s.bucketRow(bkt)
	if !ok {
		mu.RUnlock()
		return 0, false
	}
	reads := 0 // sig-matching candidates read, including the hit
	for w := 0; w < s.cfg.DataWays; w++ {
		ln := row.line(w)
		if !ln.used() || ln.sig() != sig {
			continue
		}
		reads++
		if ln.equal(c) {
			atomic.AddUint64(ln.rc(), 1)
			mu.RUnlock()
			s.chargeHit(bkt, st, reads, reads-1)
			p := s.plidFor(bkt, w)
			fire1(p, false, rc)
			return p, true
		}
	}
	// Overflow probe, chained from the bucket row. Lock order matches the
	// exclusive path: stripe (shared here) then overflow.
	s.ovMu.Lock()
	slot, ok := s.ovIndex[*c]
	var p word.PLID
	if ok {
		p = s.overflowPLID(slot)
		*s.overflowLine(slot).rc()++
	}
	s.ovMu.Unlock()
	mu.RUnlock()
	if !ok {
		return 0, false
	}
	s.chargeHit(bkt, st, reads+1, reads)
	fire1(p, false, rc)
	return p, true
}

// chargeHit applies the deferred accounting of a fast-path lookup hit:
// one signature read plus `reads` candidate data reads (of which
// `falseSig` were signature aliases), all in the bucket's DRAM row. Row
// touches land after the data access rather than during it; hardware
// interleaves concurrent lookups' row activity the same way.
func (s *Store) chargeHit(bkt uint64, st, reads, falseSig int) {
	s.rows.touchN(bkt, reads+1)
	s.bump(st, cSigReads)
	s.bumpN(st, cLookupReads, reads)
	s.bumpN(st, cFalseSig, falseSig)
	s.bump(st, cLookupHits)
}

// lookupLocked is the locked body of Lookup and LookupBatch: the caller
// holds the bucket's stripe lock exclusively. DRAM accounting is charged
// into acc (the caller flushes it into the stripe's shard after
// unlocking), and the lookup's row accesses coalesce into one touchN per
// element. It returns the rc event to fire once the locks are gone.
func (s *Store) lookupLocked(bkt uint64, c *word.Content, sig uint8, acc *[statCount]uint64) (word.PLID, bool, rcEvent) {
	row := s.bucketRowAlloc(bkt)

	// Step 2-3: read the signature line, compare signatures. This is the
	// access that opens the bucket's DRAM row; the candidate reads,
	// signature update and RC access below stay in the open row (§3.1).
	touches := 1
	acc[cSigReads]++
	for w := 0; w < s.cfg.DataWays; w++ {
		ln := row.line(w)
		if !ln.used() || ln.sig() != sig {
			continue
		}
		// Step 4: candidate data line read and compare (open-row hit).
		touches++
		acc[cLookupReads]++
		if ln.equal(c) {
			atomic.AddUint64(ln.rc(), 1)
			acc[cLookupHits]++
			s.rows.touchN(bkt, touches)
			p := s.plidFor(bkt, w)
			return p, true, rcEvent{p, false}
		}
		acc[cFalseSig]++
	}
	// Overflow lines for this content are found via the overflow scan
	// chained from the bucket row; model it as one extra read in the
	// bucket's open row. Lock order is always stripe → overflow.
	s.ovMu.Lock()
	if slot, ok := s.ovIndex[*c]; ok {
		p := s.overflowPLID(slot)
		*s.overflowLine(slot).rc()++
		s.ovMu.Unlock()
		touches++
		acc[cLookupReads]++
		acc[cLookupHits]++
		s.rows.touchN(bkt, touches)
		return p, true, rcEvent{p, false}
	}
	s.ovMu.Unlock()

	// Step 6: allocate. Find an empty way via the signature line (already
	// read); the signature update is one write back to the same DRAM row.
	// A small record with no free way grows first: the full row has one.
	w := row.freeWay()
	if w < 0 && row.g.ways() < s.cfg.DataWays {
		row = s.grow(bkt, row)
		w = row.freeWay()
	}
	if w >= 0 {
		row.line(w).store(c, sig, 1, false)
		touches++
		acc[cSigWrites]++
		acc[cAllocs]++
		s.liveLines.Add(1)
		s.rows.touchN(bkt, touches)
		p := s.plidFor(bkt, w)
		if j := s.journal.Load(); j != nil {
			// Under the stripe lock: the same lock orders this PLID's
			// free against its re-allocation, so the log records
			// liveness transitions in application order.
			(*j).JournalAlloc(p, *c)
		}
		return p, false, rcEvent{p, true}
	}
	// Bucket full: spill to the overflow area.
	s.rows.touchN(bkt, touches)
	p := s.allocOverflow(c, sig)
	return p, false, rcEvent{p, true}
}

// allocOverflow is called with the content's bucket stripe held.
func (s *Store) allocOverflow(c *word.Content, sig uint8) word.PLID {
	s.bump(ovShard, cOverflows)
	s.bump(ovShard, cAllocs)
	s.bump(ovShard, cSigWrites) // overflow pointer update in the bucket row
	s.liveLines.Add(1)
	s.ovMu.Lock()
	defer s.ovMu.Unlock()
	var slot uint32
	if n := len(s.freeOv); n > 0 {
		slot = s.freeOv[n-1]
		s.freeOv = s.freeOv[:n-1]
	} else {
		slot = s.ovSlots
		s.growOverflow(slot + 1)
	}
	s.overflowLine(slot).store(c, sig, 1, false)
	if s.ovIndex == nil {
		s.ovIndex = make(map[word.Content]uint32)
	}
	s.ovIndex[*c] = slot
	p := s.overflowPLID(slot)
	if j := s.journal.Load(); j != nil {
		// Under ovMu, which orders an overflow slot's free against its
		// reuse the same way a stripe lock does for bucket ways.
		(*j).JournalAlloc(p, *c)
	}
	return p
}

// growOverflow extends the overflow area to hold n slots; ovMu held.
func (s *Store) growOverflow(n uint32) {
	ways := s.cfg.DataWays
	if need := (int(n) + ways - 1) / ways * s.geos[full].recWords(); need > len(s.overflow) {
		s.overflow = append(s.overflow, make([]uint64, need-len(s.overflow))...)
	}
	s.ovSlots = max(s.ovSlots, n)
}

func (s *Store) retainChildren(c word.Content, rc RCSink) {
	var buf [word.MaxWords]word.PLID
	for _, p := range s.appendChildren(buf[:0], &c) {
		s.RetainTo(p, rc)
	}
}

// appendChildren appends the nonzero PLIDs that c's words name, in word
// order: the references a line holds on its children.
func (s *Store) appendChildren(dst []word.PLID, c *word.Content) []word.PLID {
	for i := 0; i < int(c.N); i++ {
		var p word.PLID
		switch c.T[i] {
		case word.TagPLID:
			p = word.PLID(c.W[i])
		case word.TagCompact:
			p = word.CompactPLID(c.W[i], s.PLIDBits())
		}
		if p != word.Zero {
			dst = append(dst, p)
		}
	}
	return dst
}

// Read returns the content of a line, counting one DRAM data read. It is
// part of the reader fast path: only a shared stripe lock is taken, so
// concurrent reads of in-DRAM lines never exclude one another. Reading the
// zero PLID returns zero content with no DRAM access.
func (s *Store) Read(p word.PLID) word.Content {
	if p == word.Zero {
		return word.NewContent(s.arity)
	}
	s.ChargeRead(p)
	unlock := s.rlockLine(p)
	ln := s.lineAt(p)
	used, c := ln.used(), ln.load()
	unlock()
	if !used {
		panic(fmt.Sprintf("store: read of freed PLID %#x", uint64(p)))
	}
	return c
}

// ChargeRead counts one DRAM data read of p's line without returning its
// content. A caller holding no reference on p reads the line to check it
// (a content memo revalidating a remembered PLID), so p may have been
// freed since: the read is charged all the same.
func (s *Store) ChargeRead(p word.PLID) {
	s.bump(s.shardOf(p), cDataReads)
	s.rows.touch(s.rowOf(p))
}

// Peek returns a line's content without simulating a DRAM access. The
// cache layer uses it to fill entries whose DRAM traffic it accounts
// itself, and tests use it to inspect state. Like Read it takes only a
// shared stripe lock.
func (s *Store) Peek(p word.PLID) (word.Content, bool) {
	if p == word.Zero {
		return word.NewContent(s.arity), true
	}
	unlock := s.rlockLine(p)
	defer unlock()
	ln := s.lineAt(p)
	if !ln.used() {
		return word.Content{}, false
	}
	return ln.load(), true
}

// RefCount returns the current reference count of a line (0 if freed).
func (s *Store) RefCount(p word.PLID) uint64 {
	if p == word.Zero {
		return 0
	}
	unlock := s.rlockLine(p)
	defer unlock()
	ln := s.lineAt(p)
	if !ln.used() {
		return 0
	}
	return atomic.LoadUint64(ln.rc())
}

// RetainTo adds one reference to p, reporting its reference-count event
// to rc, without touching DRAM counters; the caller models the
// reference-count line traffic (they are cached). Only a shared lock is
// needed: the caller already holds a reference (so the line cannot die),
// and the increment itself is atomic.
func (s *Store) RetainTo(p word.PLID, rc RCSink) {
	if p == word.Zero {
		return
	}
	s.RetainQuiet(p)
	fire1(p, false, rc)
}

// RetainQuiet is RetainTo reporting to no sink: the caller takes
// responsibility for reporting the reference-count traffic afterwards.
// It exists so a caller holding its own lock can take a reference
// atomically with its read while keeping the callback's cache traffic out
// of the critical section.
func (s *Store) RetainQuiet(p word.PLID) {
	if p == word.Zero {
		return
	}
	unlock := s.rlockLine(p)
	ln := s.lineAt(p)
	if !ln.used() {
		unlock()
		panic(fmt.Sprintf("store: retain of freed PLID %#x", uint64(p)))
	}
	atomic.AddUint64(ln.rc(), 1)
	unlock()
}

// RetainIfContentTo adds one reference to p only if the line is live and
// still holds content c, reporting whether it did and its reference-count
// event to rc. The cache layer uses it on content hits: between a cache
// probe and the retain, the line may have been freed (and its slot even
// reallocated for different content) by a concurrent release, in which
// case the caller must fall back to the authoritative lookup path.
func (s *Store) RetainIfContentTo(p word.PLID, c word.Content, rc RCSink) bool {
	if p == word.Zero {
		return false
	}
	unlock := s.rlockLine(p)
	ln := s.lineAt(p)
	if !ln.used() || !ln.equal(&c) {
		unlock()
		return false
	}
	// used && content match under the shared lock means the line is live
	// and cannot be freed until the lock drops, so the increment is safe.
	atomic.AddUint64(ln.rc(), 1)
	unlock()
	fire1(p, false, rc)
	return true
}

// Freed describes one line reclaimed by Release: its PLID and the hash
// of the content it held, which the cache layer needs to locate (and
// invalidate) the corresponding cache set after the content is gone.
type Freed struct {
	P word.PLID
	H uint64
}

// Release drops one reference to p. When the count reaches zero the line
// is freed: its signature is zeroed (one DRAM write, counted as a dealloc
// op) and references held by its PLID words are released recursively by
// the hardware de-allocation state machine. It returns the lines freed by
// this release so the cache layer can invalidate them.
//
// The de-allocation worklist locks one line at a time and never holds two
// stripes at once; a freed parent's reference keeps each child alive until
// the worklist reaches it, so the per-line locking cannot race with a
// concurrent lookup re-allocating the child.
func (s *Store) Release(p word.PLID) []Freed { return s.ReleaseTo(p, s.OnRCTouch) }

// ReleaseTo is Release reporting its reference-count events to rc.
func (s *Store) ReleaseTo(p word.PLID, rc RCSink) []Freed {
	if p == word.Zero {
		return nil
	}
	if s.releaseFast(p, rc) {
		return nil
	}
	// The worklists start on the stack: a freed line queues at most arity
	// children, and most releases free a handful of lines.
	var freed []Freed
	var eventBuf [8]rcEvent
	var workBuf [8]word.PLID
	events := eventBuf[:0]
	work := append(workBuf[:0], p)
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		unlock := s.lockLine(cur)
		ln := s.lineAt(cur)
		if !ln.used() {
			unlock()
			panic(fmt.Sprintf("store: release of freed PLID %#x", uint64(cur)))
		}
		if atomic.LoadUint64(ln.rc()) == 0 {
			unlock()
			panic(fmt.Sprintf("store: reference underflow on PLID %#x", uint64(cur)))
		}
		left := atomic.AddUint64(ln.rc(), ^uint64(0))
		events = append(events, rcEvent{cur, false})
		if left > 0 {
			unlock()
			continue
		}
		// Free: zero the signature, queue children for the state machine.
		sh := s.shardOf(cur)
		s.bump(sh, cDeallocOps)
		s.bump(sh, cFrees)
		s.liveLines.Add(^uint64(0))
		c := ln.load()
		work = s.appendChildren(work, &c)
		ln.clear()
		if s.isOverflow(cur) {
			delete(s.ovIndex, c)
			s.freeOv = append(s.freeOv, uint32(uint64(cur)-s.ovBase))
		}
		if j := s.journal.Load(); j != nil {
			// Still under the line's lock, matching JournalAlloc's order.
			(*j).JournalFree(cur)
		}
		unlock()
		freed = append(freed, Freed{P: cur, H: c.Hash()})
	}
	for _, e := range events {
		fire1(e.p, e.init, rc)
	}
	return freed
}

// releaseFast drops one reference under the shared lock when the count
// cannot reach zero, so hot shared lines (DAG roots, deduplicated
// interior nodes) release without serializing on the stripe's exclusive
// lock. The CAS from v to v-1 is attempted only for v >= 2: the result
// stays positive, so no free is needed, and the line cannot be freed
// underneath us because freeing requires the exclusive lock. If the count
// is 1 (this caller holds the last reference — nobody else can be
// releasing it), the caller falls back to the exclusive free path.
func (s *Store) releaseFast(p word.PLID, rc RCSink) bool {
	unlock := s.rlockLine(p)
	ln := s.lineAt(p)
	if !ln.used() {
		unlock()
		return false // slow path reports the underflow
	}
	for {
		v := atomic.LoadUint64(ln.rc())
		if v < 2 {
			unlock()
			return false
		}
		if atomic.CompareAndSwapUint64(ln.rc(), v, v-1) {
			unlock()
			fire1(p, false, rc)
			return true
		}
	}
}

// Writeback records the eviction of a dirty (newly created) line from the
// cache: the first time a line leaves the cache its data is written to
// DRAM (paper §3.1). Subsequent writebacks of the same immutable line are
// impossible because clean lines are dropped silently.
func (s *Store) Writeback(p word.PLID) {
	if p == word.Zero {
		return
	}
	unlock := s.lockLine(p)
	ln := s.lineAt(p)
	if !ln.used() || ln.inDRAM() {
		unlock()
		return
	}
	ln.setInDRAM()
	unlock()
	s.rows.touch(s.rowOf(p))
	s.bump(s.shardOf(p), cDataWrites)
}

// ChargeWrite counts one DRAM data write of p's line without consulting
// its record: the cache layer's write of a dirty line it evicts, which by
// construction is live and not yet in DRAM. Writeback is the checked
// twin, for a line that may have been freed or written already.
func (s *Store) ChargeWrite(p word.PLID) {
	s.rows.touch(s.rowOf(p))
	s.bump(s.shardOf(p), cDataWrites)
}

// RCLineRead and RCLineWrite account reference-count line DRAM traffic;
// the cache layer calls them on RC-line fills and dirty evictions.
func (s *Store) RCLineRead()  { s.bump(ovShard, cRCReads) }
func (s *Store) RCLineWrite() { s.bump(ovShard, cRCWrites) }

// lockAll acquires every stripe (in index order) plus the overflow lock,
// freezing the whole store; unlockAll releases them. Used by the global
// invariant checker. The fixed order stripes → overflow matches every
// other path, so lockAll cannot deadlock against concurrent operations.
func (s *Store) lockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	s.ovMu.Lock()
}

func (s *Store) unlockAll() {
	s.ovMu.Unlock()
	for i := len(s.stripes) - 1; i >= 0; i-- {
		s.stripes[i].mu.Unlock()
	}
}

// CheckConsistency verifies the reference-counting invariant: every live
// line's count equals the number of PLID words in live lines that name it,
// plus the external references the caller says it holds. It returns an
// error describing the first violation found. The check freezes the store
// (all stripes locked), so it observes an atomic snapshot; call it at
// quiescence — in-flight operations legitimately hold transient references
// the external map cannot know about.
func (s *Store) CheckConsistency(external map[word.PLID]uint64) error {
	s.lockAll()
	defer s.unlockAll()
	indeg := make(map[word.PLID]uint64)
	addRefs := func(c word.Content) {
		for i := 0; i < int(c.N); i++ {
			switch c.T[i] {
			case word.TagPLID:
				if p := word.PLID(c.W[i]); p != word.Zero {
					indeg[p]++
				}
			case word.TagCompact:
				p := word.CompactPLID(c.W[i], s.PLIDBits())
				if p != word.Zero {
					indeg[p]++
				}
			}
		}
	}
	forEachLive := func(fn func(p word.PLID, ln lineRef)) {
		for b := uint64(0); b <= s.bucketMask; b++ {
			row, ok := s.bucketRow(b)
			if !ok {
				continue
			}
			for w := 0; w < s.cfg.DataWays; w++ {
				if ln := row.line(w); ln.used() {
					fn(s.plidFor(b, w), ln)
				}
			}
		}
		for i := uint32(0); i < s.ovSlots; i++ {
			if ln := s.overflowLine(i); ln.used() {
				fn(s.overflowPLID(i), ln)
			}
		}
	}
	forEachLive(func(_ word.PLID, ln lineRef) { addRefs(ln.load()) })
	var err error
	forEachLive(func(p word.PLID, ln lineRef) {
		if err != nil {
			return
		}
		want := indeg[p] + external[p]
		if rc := atomic.LoadUint64(ln.rc()); rc != want {
			err = fmt.Errorf("store: PLID %#x rc=%d, want %d (internal %d + external %d)",
				uint64(p), rc, want, indeg[p], external[p])
		}
	})
	if err != nil {
		return err
	}
	// Every line a live line references must itself be live.
	for p := range indeg {
		if ln := s.lineAt(p); !ln.used() {
			return fmt.Errorf("store: dangling reference to freed PLID %#x", uint64(p))
		}
	}
	return nil
}

// UniqueLineCount reports how many distinct lines the given byte streams
// would occupy at this store's line size, without allocating them. It is
// the fast dedup counter used by the footprint experiments (Table 1,
// Figures 8-10); see DESIGN.md.
func UniqueLineCount(lineBytes int, streams ...[]byte) uint64 {
	seen := make(map[word.Content]struct{})
	arity := lineBytes / 8
	for _, b := range streams {
		for off := 0; off < len(b); off += lineBytes {
			end := off + lineBytes
			if end > len(b) {
				end = len(b)
			}
			c := word.ContentFromBytes(arity, b[off:end])
			if c.IsZero() {
				continue
			}
			seen[c] = struct{}{}
		}
	}
	return uint64(len(seen))
}
