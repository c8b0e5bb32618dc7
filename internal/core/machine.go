// Package core composes the HICAMP memory system: the deduplicating line
// store (package store) fronted by the HICAMP last-level cache (package
// cachesim), the virtual segment map, iterator registers and merge-update.
// Machine implements word.Mem and is the single entry point applications
// use; the programming-model layer (package hds) builds collections on top.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cachesim"
	"repro/internal/pool"
	"repro/internal/store"
	"repro/internal/word"
)

// Pooled scratch for the batched LLC paths: miss runs and fetch buffers
// are borrowed per call so steady-state batched lookups and reads
// allocate nothing.
var (
	poolIdx      = pool.NewSlice[int]("core.idx")
	poolPLIDs    = pool.NewSlice[word.PLID]("core.plid")
	poolContents = pool.NewSlice[word.Content]("core.content")
	poolBools    = pool.NewSlice[bool]("core.bool")
	poolBits     = pool.NewSlice[uint64]("core.setbits")
)

// Config sizes a Machine.
type Config struct {
	// LineBytes is the memory line size: 16, 32 or 64.
	LineBytes int
	// BucketBits sets the number of DRAM hash buckets (1 << BucketBits).
	BucketBits int
	// DataWays is the number of data lines per bucket.
	DataWays int
	// CacheLines is the LLC capacity in lines; 0 disables the cache and
	// sends every operation to DRAM.
	CacheLines int
	// CacheWays is the LLC associativity (paper baseline: 16).
	CacheWays int
}

// DefaultConfig returns the paper's evaluation parameters at the given
// line size: a 4 MB 16-way LLC over a deduplicated DRAM of 2^20 lines.
func DefaultConfig(lineBytes int) Config {
	return Config{
		LineBytes:  lineBytes,
		BucketBits: 20,
		DataWays:   12,
		CacheLines: (4 << 20) / lineBytes,
		CacheWays:  16,
	}
}

// TestConfig returns a small configuration for unit tests.
func TestConfig() Config {
	return Config{LineBytes: 16, BucketBits: 10, DataWays: 12, CacheLines: 256, CacheWays: 4}
}

// Stats aggregates the memory-system counters of one Machine.
type Stats struct {
	Store store.Stats
	Cache cachesim.Stats
	// LookupOps and ReadOps count architectural operations issued to the
	// machine (before cache filtering).
	LookupOps uint64
	ReadOps   uint64
}

// DRAMAccesses returns the total off-chip accesses — the Figure 6 metric.
func (s Stats) DRAMAccesses() uint64 { return s.Store.Total() }

// Machine is the HICAMP memory system. All methods are safe for concurrent
// use. There is no machine-wide lock: the store stripes its hash buckets,
// the LLC stripes its sets, and the machine composes them without ever
// holding a lock of one layer while entering the other, so operations on
// unrelated lines proceed in parallel and throughput scales with cores.
// The memory-traffic counters stay exact because every layer charges its
// own accesses through sharded atomic counters.
type Machine struct {
	cfg       Config
	store     *store.Store
	llc       *cachesim.Cache
	setMask   uint64
	lookupOps atomic.Uint64
	readOps   atomic.Uint64
	rc        store.RCSink // m.rcTouch, bound once: each event probes the LLC
}

func (c Config) storeConfig() store.Config {
	return store.Config{LineBytes: c.LineBytes, BucketBits: c.BucketBits, DataWays: c.DataWays}
}

// Validate reports what is wrong with the configuration, if anything: the
// store's geometry, and an enabled cache's — its sets must be a power of
// two, at most one per DRAM bucket (the LLC indexes by the bucket's low
// hash bits), and its associativity at most cachesim.MaxWays.
func (c Config) Validate() error {
	if err := c.storeConfig().Validate(); err != nil {
		return err
	}
	switch {
	case c.CacheLines < 0:
		return fmt.Errorf("core: cache lines %d negative", c.CacheLines)
	case c.CacheLines == 0:
		return nil
	case c.CacheWays <= 0 || c.CacheWays > cachesim.MaxWays:
		return fmt.Errorf("core: cache ways %d out of range [1,%d]", c.CacheWays, cachesim.MaxWays)
	}
	sets := c.CacheLines / c.CacheWays
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("core: cache geometry %d lines / %d ways yields %d sets, not a power of two",
			c.CacheLines, c.CacheWays, sets)
	}
	if sets > 1<<c.BucketBits {
		return fmt.Errorf("core: %d cache sets exceed %d DRAM buckets; hash-bit indexing would break",
			sets, 1<<c.BucketBits)
	}
	return nil
}

// NewMachine builds a Machine. It panics with Validate's error on an
// invalid configuration.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{cfg: cfg, store: store.New(cfg.storeConfig())}
	if cfg.CacheLines > 0 {
		sets := cfg.CacheLines / cfg.CacheWays
		m.llc = cachesim.New(sets, cfg.CacheWays)
		m.setMask = uint64(sets - 1)
	}
	m.rc = m.rcTouch
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// LineWords returns the line width in 64-bit words (the DAG arity).
func (m *Machine) LineWords() int { return m.cfg.LineBytes / 8 }

// PLIDBits returns the PLID width in bits, bounding path compaction.
func (m *Machine) PLIDBits() int { return m.store.PLIDBits() }

// LiveLines returns the number of allocated lines.
func (m *Machine) LiveLines() uint64 { return m.store.LiveLines() }

// FootprintBytes returns DRAM bytes held by live lines.
func (m *Machine) FootprintBytes() uint64 { return m.store.FootprintBytes() }

// TableStats reports the host footprint of the store's bucket table (see
// store.TableStats).
func (m *Machine) TableStats() store.TableStats { return m.store.TableStats() }

// Stats returns a snapshot of all counters.
func (m *Machine) Stats() Stats {
	s := Stats{
		Store:     m.store.StatsSnapshot(),
		LookupOps: m.lookupOps.Load(),
		ReadOps:   m.readOps.Load(),
	}
	if m.llc != nil {
		s.Cache = m.llc.StatsSnapshot()
	}
	return s
}

// ResetStats zeroes all counters (cache and store contents are kept).
func (m *Machine) ResetStats() {
	m.lookupOps.Store(0)
	m.readOps.Store(0)
	m.store.ResetStats()
	if m.llc != nil {
		m.llc.ResetStats()
	}
}

// FlushCache writes back all dirty cached lines, charging the deferred
// DRAM writes. Call at the end of a measurement window.
func (m *Machine) FlushCache() {
	if m.llc == nil {
		return
	}
	m.llc.FlushDirty(m.writeBack)
}

// LookupLine implements word.Mem: lookup-by-content through the LLC.
func (m *Machine) LookupLine(c word.Content) word.PLID { return m.lookupLine(c, m.rc) }

// lookupLine is LookupLine reporting reference-count events to rc.
func (m *Machine) lookupLine(c word.Content, rc store.RCSink) word.PLID {
	m.lookupOps.Add(1)
	if c.IsZero() {
		return word.Zero
	}
	if m.llc == nil {
		p, existed := m.store.LookupTo(c, rc)
		if !existed {
			m.store.Writeback(p)
		}
		return p
	}
	var t cachesim.Tally
	set := int(c.Hash() & m.setMask)
	p, ok := m.probeContent(set, &c, &t, rc)
	if !ok {
		var existed bool
		p, existed = m.store.LookupTo(c, rc)
		// A fresh allocation stays dirty in the cache and reaches DRAM only
		// on eviction (§3.1); an existing line is clean by construction — it
		// can only have left the cache through a writeback.
		m.fill(set, p, &c, !existed, &t)
	}
	m.llc.Publish(&t)
	return p
}

// probeContent is the LLC content hit: it returns the cached line holding
// *c with a reference acquired on it. A cached hit still bumps the count —
// but only if the line is still live with this content. A concurrent
// release may have freed it (the invalidation races the probe), in which
// case the caller's authoritative DRAM lookup settles it.
func (m *Machine) probeContent(set int, c *word.Content, t *cachesim.Tally, rc store.RCSink) (word.PLID, bool) {
	id, ok := m.llc.LookupData(set, c, t)
	if ok && m.store.RetainIfContentTo(word.PLID(id), *c, rc) {
		return word.PLID(id), true
	}
	return word.Zero, false
}

// LookupLineBatch implements word.BulkMem: batched lookup-by-content
// through the LLC into a fresh slice. The LLC still observes every line
// individually — zero contents resolve to Zero without touching the
// cache, and each remaining content gets its own content probe (per-line
// hit/miss accounting, exactly as LookupLine charges it). Only the residue that missed the cache is
// forwarded to the store's batch lookup, which takes each bucket stripe
// lock once per batch and coalesces the DRAM accounting; the resolved
// lines are then filled into the LLC one by one (fresh allocations dirty,
// dedup hits clean), again with per-line eviction handling.
func (m *Machine) LookupLineBatch(cs []word.Content) []word.PLID {
	out := make([]word.PLID, len(cs))
	m.LookupLineBatchInto(cs, out)
	return out
}

// LookupLineBatchInto implements word.Mem: LookupLineBatch writing into
// a caller-supplied buffer of length len(cs). All internal
// miss-residue scratch is pooled, so a steady-state batched lookup —
// every content already resident, hitting the LLC or the store's dedup
// path — allocates nothing, and the LLC's event counters are published
// once per call. A line's cache set is a function of its content (its
// bucket's low hash bits, or for an overflow line the hash itself), so
// the set a miss probed is the set it is filled into.
func (m *Machine) LookupLineBatchInto(cs []word.Content, out []word.PLID) {
	m.lookupLineBatchInto(cs, out, m.rc)
}

// lookupLineBatchInto is LookupLineBatchInto reporting reference-count
// events to rc.
func (m *Machine) lookupLineBatchInto(cs []word.Content, out []word.PLID, rc store.RCSink) {
	if len(out) != len(cs) {
		panic("core: LookupLineBatchInto buffer length mismatch")
	}
	clear(out)
	if len(cs) == 0 {
		return
	}
	m.lookupOps.Add(uint64(len(cs)))
	var sc pool.Scratch
	defer sc.Release()
	// Acquired at batch size: misses are the common case on fresh
	// content, and growing a []Content by doubling would copy the
	// 80-byte elements repeatedly.
	missIdx := poolIdx.GetCap(&sc, len(cs))
	missSets := poolIdx.GetCap(&sc, len(cs))
	missCs := poolContents.GetCap(&sc, len(cs))
	var t cachesim.Tally
	for i := range cs {
		c := &cs[i]
		if c.IsZero() {
			continue // out[i] stays word.Zero
		}
		set := 0
		if m.llc != nil {
			set = int(c.Hash() & m.setMask)
			if p, ok := m.probeContent(set, c, &t, rc); ok {
				out[i] = p
				continue
			}
		}
		missIdx = append(missIdx, i)
		missSets = append(missSets, set)
		missCs = append(missCs, *c)
	}
	if len(missCs) > 0 {
		plids := poolPLIDs.Get(&sc, len(missCs))
		existed := poolBools.Get(&sc, len(missCs))
		m.store.LookupBatchTo(missCs, plids, existed, rc)
		for j, i := range missIdx {
			out[i] = plids[j]
			switch {
			case m.llc != nil:
				m.fill(missSets[j], plids[j], &missCs[j], !existed[j], &t)
			case !existed[j]:
				m.store.Writeback(plids[j])
			}
		}
	}
	m.publish(&t)
}

// ReadLine implements word.Mem: read-by-PLID through the LLC. The caller
// must hold a reference on p (architecturally guaranteed: PLIDs are a
// protected type and naming one implies a live reference).
func (m *Machine) ReadLine(p word.PLID) word.Content {
	m.readOps.Add(1)
	if p == word.Zero {
		return word.NewContent(m.LineWords())
	}
	if m.llc == nil {
		return m.store.Read(p)
	}
	var t cachesim.Tally
	var c word.Content
	set := m.dataSet(p)
	if !m.llc.ReadData(set, uint64(p), &c, &t) {
		c = m.store.Read(p)
		m.fill(set, p, &c, false, &t)
	}
	m.llc.Publish(&t)
	return c
}

// ReadLineBatch implements word.BulkMem: batched read-by-PLID through
// the LLC into a fresh slice, with accounting pinned identical to len(ps)
// serial ReadLine calls. The LLC still observes every line individually —
// each element gets its own read probe, charging the same per-line
// hit/miss the serial path charges — and only the residue that missed is forwarded to
// the store's batch read, which takes each bucket stripe's reader lock
// once per run and coalesces the DRAM accounting; the fetched lines are
// then filled into the LLC in input order (clean: an addressable line has
// been written back by construction).
//
// Exactness under aliasing: a pending fill could change the outcome of a
// later probe that maps to the same cache set (a duplicate PLID that the
// serial path would have hit, or a resident line the serial path's fill
// would have evicted first). Whenever an element's set already has a fill
// pending, the pending run is flushed — fetched and filled — before that
// element probes, so every probe observes exactly the cache state the
// serial interleaving would have shown it.
func (m *Machine) ReadLineBatch(ps []word.PLID) []word.Content {
	out := make([]word.Content, len(ps))
	m.ReadLineBatchInto(ps, out)
	return out
}

// readRun is ReadLineBatchInto's pending miss run: batch positions,
// PLIDs and cache sets of the lines still to fetch, and a bitset over the
// sets with a fill pending.
type readRun struct {
	idx     []int
	ps      []word.PLID
	sets    []int
	pending []uint64
}

func (r *readRun) isPending(set int) bool { return r.pending[set>>6]>>(set&63)&1 != 0 }

// readFlush fetches the pending miss run through the store's batch read
// and fills each line into the LLC. fetched is scratch of at least
// len(r.ps) capacity; the run is emptied.
func (m *Machine) readFlush(r *readRun, out, fetched []word.Content, t *cachesim.Tally) {
	if len(r.ps) == 0 {
		return
	}
	cs := fetched[:len(r.ps)]
	m.store.ReadBatchInto(r.ps, cs)
	for j, i := range r.idx {
		out[i] = cs[j]
		m.fill(r.sets[j], r.ps[j], &cs[j], false, t)
		r.pending[r.sets[j]>>6] = 0
	}
	r.idx, r.ps, r.sets = r.idx[:0], r.ps[:0], r.sets[:0]
}

// ReadLineBatchInto implements word.Mem: ReadLineBatch writing
// into a caller-supplied buffer of length len(ps). The miss runs, fetch
// buffer and pending-set bitset are pooled, so a steady-state wave read
// allocates nothing, and the LLC's event counters are published once per
// call.
func (m *Machine) ReadLineBatchInto(ps []word.PLID, out []word.Content) {
	if len(out) != len(ps) {
		panic("core: ReadLineBatchInto buffer length mismatch")
	}
	if len(ps) == 0 {
		return
	}
	m.readOps.Add(uint64(len(ps)))
	if m.llc == nil {
		m.store.ReadBatchInto(ps, out)
		return
	}
	var sc pool.Scratch
	defer sc.Release()
	r := readRun{
		idx:     poolIdx.GetCap(&sc, len(ps)),
		ps:      poolPLIDs.GetCap(&sc, len(ps)),
		sets:    poolIdx.GetCap(&sc, len(ps)),
		pending: poolBits.GetZeroed(&sc, int(m.setMask>>6)+1),
	}
	fetched := poolContents.Get(&sc, len(ps))
	var t cachesim.Tally
	for i, p := range ps {
		if p == word.Zero {
			out[i] = word.NewContent(m.LineWords())
			continue
		}
		set := m.dataSet(p)
		if r.isPending(set) {
			m.readFlush(&r, out, fetched, &t)
		}
		if m.llc.ReadData(set, uint64(p), &out[i], &t) {
			continue
		}
		r.idx = append(r.idx, i)
		r.ps = append(r.ps, p)
		r.sets = append(r.sets, set)
		r.pending[set>>6] |= 1 << (set & 63)
	}
	m.readFlush(&r, out, fetched, &t)
	m.llc.Publish(&t)
}

// Retain implements word.Mem.
func (m *Machine) Retain(p word.PLID) { m.store.RetainTo(p, m.rc) }

// RetainIfContent implements word.Mem: it acquires a reference on p only
// if the line is still live with content c. The caller holds no
// reference on p (a content memo remembered it), and hardware can check
// such a PLID only by reading its line (§3.1): every revalidation, stale
// ones included, is charged that read before the RC touch of a
// successful retain.
func (m *Machine) RetainIfContent(p word.PLID, c word.Content) bool {
	m.checkRead(p)
	return m.store.RetainIfContentTo(p, c, m.rc)
}

// checkRead charges reading line p to check its content: one LLC data
// probe and, on a miss, one DRAM data read. A miss does not fill the LLC:
// with no reference held, p may be freed (and reallocated) meanwhile, and
// a fill could then cache content the line no longer holds.
func (m *Machine) checkRead(p word.PLID) {
	if p == word.Zero {
		return
	}
	m.readOps.Add(1)
	if m.llc == nil {
		m.store.ChargeRead(p)
		return
	}
	var t cachesim.Tally
	var c word.Content
	if !m.llc.ReadData(m.dataSet(p), uint64(p), &c, &t) {
		m.store.ChargeRead(p)
	}
	m.llc.Publish(&t)
}

// RetainDeferred bumps p's reference count immediately but hands the
// reference-count traffic accounting back as a closure. The segment map
// uses it to keep cache-simulator traffic out of its critical section:
// the count bump must be atomic with reading the published root, the
// accounting of the RC-line access need not be.
func (m *Machine) RetainDeferred(p word.PLID) func() {
	m.store.RetainQuiet(p)
	return func() { m.rcTouch(p, false) }
}

// Release implements word.Mem. Freed lines are invalidated in the cache;
// a line that never left the cache is dropped without ever touching DRAM.
func (m *Machine) Release(p word.PLID) { m.release(p, m.rc) }

// release is Release reporting reference-count events to rc.
func (m *Machine) release(p word.PLID, rc store.RCSink) {
	freed := m.store.ReleaseTo(p, rc)
	if m.llc == nil {
		return
	}
	for _, f := range freed {
		// The line's content is gone, so its cache set is recovered from
		// the content hash recorded at free time.
		m.llc.Invalidate(int(f.H&m.setMask), cachesim.Key{Kind: cachesim.KindData, ID: uint64(f.P)})
	}
}

// RefCount exposes a line's reference count for tests and invariants.
func (m *Machine) RefCount(p word.PLID) uint64 {
	return m.store.RefCount(p)
}

// CheckConsistency delegates to the store's invariant checker. Call it at
// quiescence: in-flight operations hold transient references.
func (m *Machine) CheckConsistency(external map[word.PLID]uint64) error {
	return m.store.CheckConsistency(external)
}

// dataSet maps a PLID to its LLC set. Bucket-resident lines use their
// bucket's low bits (the Figure 3 hash-bit indexing); overflow lines use
// their content hash, which the simulator can recover from the store.
func (m *Machine) dataSet(p word.PLID) int {
	if b, ok := m.store.BucketOf(p); ok {
		return int(b & m.setMask)
	}
	c, ok := m.store.Peek(p)
	if !ok {
		return 0
	}
	return int(c.Hash() & m.setMask)
}

// fill installs line p with content *c in its LLC set (fresh allocations
// dirty) and writes back the dirty line it evicts, if any.
func (m *Machine) fill(set int, p word.PLID, c *word.Content, dirty bool, t *cachesim.Tally) {
	if victim, vd := m.llc.InsertData(set, uint64(p), c, dirty, t); vd {
		m.writeBack(victim)
	}
}

// rcTouch models one reference-count mutation: the RC line for the PLID's
// bucket is accessed through the cache and dirtied. A miss costs one DRAM
// RC-line read — except for the count initialization of a fresh
// allocation, which is written into the cache without a fetch (§3.1).
// Dirty eviction later costs one RC-line write. The store invokes this
// callback with none of its locks held, so the eviction path may write
// back into the store.
func (m *Machine) rcTouch(p word.PLID, init bool) {
	var t cachesim.Tally
	m.touchRC(m.rcRow(p), init, &t)
	m.publish(&t)
}

// rcRow names the RC line holding p's count: its bucket row's (Figure 2),
// or for an overflow line one of the overflow area's RC rows.
func (m *Machine) rcRow(p word.PLID) uint64 {
	if b, ok := m.store.BucketOf(p); ok {
		return b
	}
	return 1<<40 | uint64(p)>>4
}

// touchRC charges one access to RC line id: a cached count update counted
// in t, or with no LLC one DRAM write (after a read, unless init).
func (m *Machine) touchRC(id uint64, init bool, t *cachesim.Tally) {
	if m.llc == nil {
		if !init {
			m.store.RCLineRead()
		}
		m.store.RCLineWrite()
		return
	}
	hit, victim, dirty := m.llc.TouchRC(int(id&m.setMask), id, t)
	if hit {
		return
	}
	if !init {
		m.store.RCLineRead()
	}
	if dirty {
		m.writeBack(victim)
	}
}

// publish adds t's LLC events to the cache's counters.
func (m *Machine) publish(t *cachesim.Tally) {
	if m.llc != nil {
		m.llc.Publish(t)
	}
}

// writeBack charges the DRAM write of a dirty line leaving the LLC.
func (m *Machine) writeBack(k cachesim.Key) {
	switch k.Kind {
	case cachesim.KindData:
		m.store.Writeback(word.PLID(k.ID))
	case cachesim.KindRC:
		m.store.RCLineWrite()
	}
}

var _ word.BulkMem = (*Machine)(nil)
