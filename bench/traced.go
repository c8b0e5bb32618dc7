package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/hds"
	"repro/internal/kvstore"
	"repro/internal/merge"
	"repro/internal/netfront"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/store"
	"repro/internal/word"
)

// machineConfig is cmd/hicampd's default geometry, so the in-process
// store of the traced run is the child's twin.
var machineConfig = core.Config{
	LineBytes: lineBytes, BucketBits: 18, DataWays: 12,
	CacheLines: (256 << 10) / lineBytes, CacheWays: 16,
}

// Shares of the traced run's time. The served chain replays windows, the
// engine chain runs segment and merge operations over the timing shim, and
// what is left goes to replaying the shim's log against a bare store and
// cache model.
const (
	servedChainShare = 0.55
	engineChainShare = 0.25
	maxSpans         = 100000 // about 11 MB of trace file
	maxLogLines      = 100000
	frameLen         = 4 // netfront stores a 4-byte flags frame before each value
	mergeForkSlots   = 8
)

type tracedResult struct {
	attempted, failed uint64
	failures          []string
	metrics           map[string]float64
	detail            map[string]any
}

// pin is a snapshot a gets read was served from, the in-process stand-in
// for a cas token.
type pin struct {
	seg  segment.Seg
	size uint64
}

// tracedRun is the state of one traced run. The three chain levels each
// have their own generator (connections 0, 1, 2 of the same seed) over
// one shared store: level 0 sends windows through an in-process
// netfront.Server on a loopback connection, level 1 gives the same kind of
// window to kvstore.Read/Write, level 2 makes the hds calls the dispatcher
// makes. Each level sees every third window, so the store evolves as in a
// served run and no level replays another's writes.
type tracedRun struct {
	w     *workload
	d     *dataset
	store *kvstore.HicampServer
	mp    *hds.Map
	heap  *hds.Heap
	tr    *tracer
	c     [3]*client
	pins  map[uint64]pin
	npins uint64

	wallNs, ops               [3]int64
	l0TracedNs, l0TracedOps   int64
	l0PlainNs, l0PlainOps     int64
	kvReadNs, kvReadOps       int64
	kvWriteNs, kvWriteOps     int64
	hdsGetNs, hdsGetKeys      int64
	hdsApplyNs, hdsApplyPairs int64
	ackNs                     [3]int64 // AckDurable calls made from the chain, by level
	ackWindows                int64
	hdsNs                     int64 // every hds call of level 2, cas included
	valbuf                    []byte
	batch                     kvstore.Batch
	pairs                     []hds.Pair
	keyBytes                  [][]byte
	ks, vstrs                 []hds.String
	found                     []bool
	vals                      [][]byte
	valflat                   []byte
}

func (r *tracedRun) since(t0 int64) int64 { return r.tr.now() - t0 }

// framed appends the stored form of op o's value by connection c: the
// flags frame netfront would add, then the value.
func (r *tracedRun) framed(c *client, o *op) []byte {
	start := len(r.valbuf)
	r.valbuf = append(r.valbuf, 0, 0, 0, 0)
	r.valbuf = r.d.appendValue(r.valbuf, o.keys[0], uint64(c.id), o.seq)
	return r.valbuf[start:len(r.valbuf):len(r.valbuf)]
}

func (r *tracedRun) checkStored(c *client, key int, v []byte, found bool) {
	if !found || len(v) < frameLen {
		c.fail("read %s: missing", r.d.keys[key])
		return
	}
	c.checkRead(key, v[frameLen:])
}

func (r *tracedRun) acked(c *client, o *op) {
	now := time.Now().UnixNano()
	c.acked[o.keys[0]] = ackRec{seq: o.seq, sendNs: now, ackNs: now}
}

// pinSnapshot gives a gets op of levels 1 and 2 its token: the current
// version, pinned. One goroutine runs the chain, so this is the version
// the read just saw.
func (r *tracedRun) pinSnapshot(c *client, o *op, parent, win int) {
	id, t0 := r.tr.begin("hds.snapshot", parent, win)
	seg, size, err := r.mp.SnapshotEntry()
	r.tr.end(id, 1)
	r.hdsNs += r.since(t0)
	if err != nil {
		c.fail("gets %s: snapshot: %v", r.d.keys[o.keys[0]], err)
		return
	}
	r.npins++
	r.pins[r.npins] = pin{seg, size}
	c.gen.gotToken(o.keys[0], r.npins)
}

func opClass(k opKind) int {
	switch k {
	case opSet:
		return 1
	case opCas:
		return 2
	}
	return 0
}

// window runs one window of traceWindowOps ops at the given level.
func (r *tracedRun) window(level, win int) error {
	c := r.c[level]
	if level == 0 {
		c.prepare(traceWindowOps)
		traced := win%2 == 0
		id, t0 := 0, r.tr.now()
		if traced {
			id, t0 = r.tr.begin("netfront.window", 0, win)
		}
		err := c.exchange(opTimeout, time.Time{}, nil)
		took := r.since(t0)
		if traced {
			r.tr.end(id, traceWindowOps)
			r.l0TracedNs, r.l0TracedOps = r.l0TracedNs+took, r.l0TracedOps+traceWindowOps
		} else {
			r.l0PlainNs, r.l0PlainOps = r.l0PlainNs+took, r.l0PlainOps+traceWindowOps
		}
		r.wallNs[0], r.ops[0] = r.wallNs[0]+took, r.ops[0]+traceWindowOps
		return err
	}

	ops := c.ops[:0]
	for i := 0; i < traceWindowOps; i++ {
		var o op
		c.gen.next(&o)
		ops = append(ops, o)
	}
	c.ops = ops
	c.attempted += uint64(len(ops))
	name := [...]string{"", "kvstore.window", "hds.window"}[level]
	id, t0 := r.tr.begin(name, 0, win)
	for i := 0; i < len(ops); {
		j := i
		for j < len(ops) && opClass(ops[j].kind) == opClass(ops[i].kind) {
			j++
		}
		switch opClass(ops[i].kind) {
		case 0:
			if level == 1 {
				r.kvRead(c, ops[i:j], id, win)
			} else {
				r.hdsRead(c, ops[i:j], id, win)
			}
		case 1:
			if level == 1 {
				r.kvWrite(c, ops[i:j], id, win)
			} else {
				r.hdsWrite(c, ops[i:j], id, win)
			}
		default:
			for k := i; k < j; k++ {
				r.cas(c, level, &ops[k], id, win)
			}
		}
		i = j
	}
	r.tr.end(id, int64(len(ops)))
	r.wallNs[level], r.ops[level] = r.wallNs[level]+r.since(t0), r.ops[level]+int64(len(ops))
	return nil
}

func (r *tracedRun) kvRead(c *client, run []op, parent, win int) {
	r.batch = r.batch[:0]
	for i := range run {
		for k := 0; k < run[i].nkeys; k++ {
			r.batch = r.batch.Get(r.d.keys[run[i].keys[k]])
		}
	}
	id, t0 := r.tr.begin("kvstore.read", parent, win)
	r.store.Read(r.batch)
	r.tr.end(id, int64(len(run)))
	r.kvReadNs, r.kvReadOps = r.kvReadNs+r.since(t0), r.kvReadOps+int64(len(run))
	n := 0
	for i := range run {
		for k := 0; k < run[i].nkeys; k++ {
			r.checkStored(c, run[i].keys[k], r.batch[n].Value, r.batch[n].Found)
			n++
		}
		if run[i].kind == opGets {
			r.pinSnapshot(c, &run[i], parent, win)
		}
	}
}

func (r *tracedRun) kvWrite(c *client, run []op, parent, win int) {
	r.batch, r.valbuf = r.batch[:0], r.valbuf[:0]
	for i := range run {
		r.batch = r.batch.Set(r.d.keys[run[i].keys[0]], r.framed(c, &run[i]))
	}
	id, t0 := r.tr.begin("kvstore.write", parent, win)
	err := r.store.Write(r.batch)
	r.tr.end(id, int64(len(run)))
	r.kvWriteNs, r.kvWriteOps = r.kvWriteNs+r.since(t0), r.kvWriteOps+int64(len(run))
	for i := range run {
		if err != nil {
			c.fail("write: %v", err)
		} else {
			r.acked(c, &run[i])
		}
	}
}

// hdsRead is the dispatcher's read window, call for call: pin a snapshot,
// build the key strings, gather the slots, materialize the values.
func (r *tracedRun) hdsRead(c *client, run []op, parent, win int) {
	r.keyBytes = r.keyBytes[:0]
	for i := range run {
		for k := 0; k < run[i].nkeys; k++ {
			r.keyBytes = append(r.keyBytes, r.d.keys[run[i].keys[k]])
		}
	}
	nk := int64(len(r.keyBytes))
	start := r.tr.now()
	id, _ := r.tr.begin("hds.snapshot", parent, win)
	seg, size, err := r.mp.SnapshotEntry()
	r.tr.end(id, 1)
	if err != nil {
		c.fail("snapshot: %v", err)
		return
	}
	id, _ = r.tr.begin("hds.new_strings", parent, win)
	r.ks = hds.NewStringsInto(r.heap, r.keyBytes, r.ks)
	r.tr.end(id, nk)
	id, _ = r.tr.begin("hds.get_many_at", parent, win)
	r.vstrs, r.found = r.mp.GetManyAtInto(seg, r.ks, r.vstrs[:0], r.found[:0])
	for i := range r.ks {
		r.ks[i].Release(r.heap)
	}
	r.tr.end(id, nk)
	id, _ = r.tr.begin("hds.bytes_many", parent, win)
	r.vals, r.valflat = hds.BytesManyInto(r.heap, r.vstrs, r.valflat, r.vals)
	for i, ok := range r.found {
		if ok {
			r.vstrs[i].Release(r.heap)
		}
	}
	r.tr.end(id, nk)
	took := r.since(start)
	r.hdsGetNs, r.hdsGetKeys, r.hdsNs = r.hdsGetNs+took, r.hdsGetKeys+nk, r.hdsNs+took

	n := 0
	for i := range run {
		for k := 0; k < run[i].nkeys; k++ {
			r.checkStored(c, run[i].keys[k], r.vals[n], r.found[n])
			n++
		}
		if run[i].kind == opGets {
			segment.RetainSeg(r.heap.M, seg)
			r.npins++
			r.pins[r.npins] = pin{seg, size}
			c.gen.gotToken(run[i].keys[0], r.npins)
		}
	}
	segment.ReleaseSeg(r.heap.M, seg)
}

// hdsWrite is the dispatcher's write window: one Apply, one durability
// wait.
func (r *tracedRun) hdsWrite(c *client, run []op, parent, win int) {
	r.pairs, r.valbuf = r.pairs[:0], r.valbuf[:0]
	for i := range run {
		r.pairs = append(r.pairs, hds.Pair{Key: r.d.keys[run[i].keys[0]], Value: r.framed(c, &run[i])})
	}
	id, t0 := r.tr.begin("hds.apply", parent, win)
	err := r.mp.Apply(r.pairs, hds.ApplyOptions{})
	r.tr.end(id, int64(len(run)))
	took := r.since(t0)
	r.hdsApplyNs, r.hdsApplyPairs, r.hdsNs = r.hdsApplyNs+took, r.hdsApplyPairs+int64(len(run)), r.hdsNs+took
	if err == nil {
		err = r.ackDurable(2, parent, win)
	}
	for i := range run {
		if err != nil {
			c.fail("apply: %v", err)
		} else {
			r.acked(c, &run[i])
		}
	}
}

func (r *tracedRun) ackDurable(level, parent, win int) error {
	id, t0 := r.tr.begin("kvstore.ack_durable", parent, win)
	err := r.store.AckDurable()
	r.tr.end(id, 1)
	r.ackNs[level], r.ackWindows = r.ackNs[level]+r.since(t0), r.ackWindows+1
	return err
}

// cas publishes one compare-and-swap against the snapshot its token pins,
// the way netfront's execCas does. kvstore has no cas of its own, so
// levels 1 and 2 both make the hds call.
func (r *tracedRun) cas(c *client, level int, o *op, parent, win int) {
	p, ok := r.pins[o.token]
	if !ok {
		c.fail("cas %s: token %d unknown", r.d.keys[o.keys[0]], o.token)
		return
	}
	delete(r.pins, o.token)
	r.valbuf = r.valbuf[:0]
	pairs := [1]hds.Pair{{Key: r.d.keys[o.keys[0]], Value: r.framed(c, o)}}
	id, t0 := r.tr.begin("hds.compare_apply", parent, win)
	err := r.mp.CompareApply(p.seg, p.size, pairs[:], hds.ApplyOptions{})
	r.tr.end(id, 1)
	if level == 2 {
		r.hdsNs += r.since(t0)
	}
	segment.ReleaseSeg(r.heap.M, p.seg)
	if err == nil {
		err = r.ackDurable(level, parent, win)
	}
	switch {
	case err == nil:
		c.casStored++
		r.acked(c, o)
	case errors.Is(err, merge.ErrConflict):
		c.casExists++
	default:
		c.fail("cas %s: %v", r.d.keys[o.keys[0]], err)
	}
}

// traced is the in-process run behind the timed per-layer metrics.
func (e *env) traced(w *workload, d *dataset, seed int64, seconds float64) (*tracedResult, error) {
	res := &tracedResult{metrics: map[string]float64{}, detail: map[string]any{}}
	opts := kvstore.ServerOptions{}
	if w.durable {
		dir, err := os.MkdirTemp(e.build, "traced-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts = kvstore.ServerOptions{DataDir: dir, CheckpointEvery: max(time.Duration(seconds/4*float64(time.Second)), 500*time.Millisecond)}
	}
	st, err := kvstore.NewHicampServerOpts(machineConfig, opts)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	srv := netfront.NewServer(st, netfront.DefaultOptions())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	r := &tracedRun{w: w, d: d, store: st, mp: st.Map(), heap: st.Heap, tr: newTracer(maxSpans), pins: map[uint64]pin{}}
	c0, err := dialClient(ln.Addr().String(), 0, d, seed)
	if err != nil {
		return nil, err
	}
	defer c0.close()
	r.c = [3]*client{c0, newClient(1, d, seed), newClient(2, d, seed)}
	defer func() {
		for _, c := range r.c {
			res.attempted += c.attempted
			res.failed += c.failed
			if c.firstFailure != "" {
				res.failures = append(res.failures, c.firstFailure)
			}
		}
	}()
	if err := c0.preload(0, len(d.keys)); err != nil {
		return res, fmt.Errorf("traced set-up: %w", err)
	}

	start := time.Now()
	budget := func(share float64) time.Time { return start.Add(time.Duration(seconds * share * float64(time.Second))) }

	// Served chain.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	core0, retries0 := st.Stats(), hds.CASRetries()
	win := 0
	// Every level gets at least one window, however short the budget.
	for end := budget(servedChainShare); win < 3 || (win < 3*traceWindows && time.Now().Before(end)); win++ {
		if err := r.window(win%3, win); err != nil {
			return res, err
		}
	}
	core1, retries1 := st.Stats(), hds.CASRetries()
	runtime.ReadMemStats(&ms1)
	for _, p := range r.pins {
		segment.ReleaseSeg(r.heap.M, p.seg)
	}
	chainOps := float64(r.ops[0] + r.ops[1] + r.ops[2])
	perOp := func(ns, ops int64) float64 { return ratio(float64(ns)/1e3, float64(ops)) }
	m := res.metrics
	loopback, kv, hdsPer := perOp(r.wallNs[0], r.ops[0]), perOp(r.wallNs[1], r.ops[1]), perOp(r.hdsNs, r.ops[2])
	ackPer := perOp(r.ackNs[2], r.ops[2])
	m["netfront.self_us_per_op"] = loopback - kv
	m["kvstore.self_us_per_op"] = kv - hdsPer - ackPer
	m["kvstore.read_us_per_op"] = perOp(r.kvReadNs, r.kvReadOps)
	m["kvstore.write_us_per_op"] = perOp(r.kvWriteNs, r.kvWriteOps)
	m["kvstore.ack_durable_us_per_window"] = perOp(r.ackNs[1]+r.ackNs[2], r.ackWindows)
	m["hds.get_us_per_key"] = perOp(r.hdsGetNs, r.hdsGetKeys)
	m["hds.apply_us_per_pair"] = perOp(r.hdsApplyNs, r.hdsApplyPairs)
	m["hds.cas_retries"] = float64(retries1 - retries0)
	m["trace.allocs_per_op"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), chainOps)
	m["trace.overhead_frac"] = ratio(perOp(r.l0TracedNs, r.l0TracedOps), perOp(r.l0PlainNs, r.l0PlainOps)) - 1
	ds := core1.Store
	sub := func(a, b uint64) float64 { return float64(a - b) }
	m["store.dram_sig_per_op"] = (sub(ds.SigReads, core0.Store.SigReads) + sub(ds.SigWrites, core0.Store.SigWrites)) / chainOps
	m["store.dram_lookup_per_op"] = sub(ds.LookupReads, core0.Store.LookupReads) / chainOps
	m["store.dram_data_per_op"] = (sub(ds.DataReads, core0.Store.DataReads) + sub(ds.DataWrites, core0.Store.DataWrites)) / chainOps
	m["store.dram_rc_per_op"] = (sub(ds.RCReads, core0.Store.RCReads) + sub(ds.RCWrites, core0.Store.RCWrites)) / chainOps
	m["store.dram_dealloc_per_op"] = sub(ds.DeallocOps, core0.Store.DeallocOps) / chainOps
	m["store.allocs_per_op"] = sub(ds.Allocs, core0.Store.Allocs) / chainOps
	m["store.frees_per_op"] = sub(ds.Frees, core0.Store.Frees) / chainOps
	m["store.overflow_frac"] = ratio(sub(ds.Overflows, core0.Store.Overflows), sub(ds.Allocs, core0.Store.Allocs))
	hits, misses := sub(core1.Cache.Hits, core0.Cache.Hits), sub(core1.Cache.Misses, core0.Cache.Misses)
	m["core.llc_hit_rate"] = ratio(hits, hits+misses)
	res.detail["traced_windows"] = win
	res.detail["traced_loopback_us_per_op"] = loopback
	res.detail["traced_kvstore_us_per_op"] = kv
	res.detail["traced_hds_us_per_op"] = hdsPer
	res.detail["traced_dram_per_op"] = sub(core1.DRAMAccesses(), core0.DRAMAccesses()) / chainOps

	// Protocol codec, outside any window: the two netfront functions a
	// request passes through whatever the store does.
	r.codec(m)

	// Engine chain over the timing shim, then the replay that splits its
	// core time.
	tm := newTracedMem(r.heap.M, r.tr, maxLogLines)
	core0 = st.Stats()
	if err := r.engine(tm, win, budget(servedChainShare+engineChainShare), m); err != nil {
		return res, err
	}
	replay(tm, ratio(sub(st.Stats().Store.Allocs, core0.Store.Allocs), float64(tm.lookupLines)), m)

	for _, name := range []string{"durable.append_ns_per_rec", "durable.sync_ms_p50", "durable.checkpoint_ms", "durable.replayed_records"} {
		m[name] = 0
	}
	if w.durable {
		if err := e.durableMicro(m); err != nil {
			return res, err
		}
		// Reopen the directory the chain wrote: the log tail since the
		// last background checkpoint is what recovery replays.
		srv.Close()
		if err := st.Close(); err != nil {
			return res, err
		}
		again, err := kvstore.NewHicampServerOpts(machineConfig, kvstore.ServerOptions{DataDir: opts.DataDir})
		if err != nil {
			return res, fmt.Errorf("reopen: %w", err)
		}
		rs := again.DurableStats()
		m["durable.replayed_records"] = float64(rs.ReplayedRecords)
		res.detail["traced_reopen_s"] = rs.RecoveryTime.Seconds()
		res.detail["traced_reopen_lines"] = rs.RecoveredLines
		again.Close()
	}

	spans := map[string]any{}
	for name, t := range totals(r.tr.spans) {
		spans[name] = map[string]int64{"calls": int64(t.calls), "ns": t.ns, "self_ns": t.selfNs, "n": t.n}
	}
	res.detail["spans"] = spans
	path := filepath.Join(e.root, "bench", "out", "trace_"+w.name+".json")
	if err := r.tr.write(path); err != nil {
		return res, err
	}
	res.detail["trace_file"] = filepath.Join("bench", "out", "trace_"+w.name+".json")
	return res, nil
}

// codec times netfront.ParseCommand over a window's request lines and
// netfront.AppendValue over its values.
func (r *tracedRun) codec(m map[string]float64) {
	c := newClient(3, r.d, 1) // only its generator and encoder are used
	c.prepare(traceWindowOps)
	var lines [][]byte
	for b := c.out; len(b) > 0; {
		i := 0
		for i < len(b) && b[i] != '\r' {
			i++
		}
		lines = append(lines, b[:i])
		b = b[min(i+2, len(b)):]
		if o := c.ops[len(lines)-1]; o.kind == opSet || o.kind == opCas {
			b = b[min(r.w.valueLen+2, len(b)):]
		}
	}
	const rounds = 2000
	var cmd netfront.Command
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, l := range lines {
			if err := netfront.ParseCommand(l, &cmd); err != nil {
				r.c[2].fail("parse %q: %v", l, err)
			}
		}
	}
	m["netfront.parse_ns_per_cmd"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(lines))
	value := r.d.appendValue(nil, 0, 0, 1)
	dst := make([]byte, 0, 64*(len(value)+64))
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		dst = dst[:0]
		for k := 0; k < traceWindowOps; k++ {
			dst = netfront.AppendValue(dst, r.d.keys[k%len(r.d.keys)], 0, value, 7, true)
		}
	}
	m["netfront.reply_ns_per_value"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*traceWindowOps)
}

// engine runs the segment and merge operations the served path is made of
// over the timing shim, with inputs shaped like the workload's windows:
// its keys and value sizes, the slots of its map, traceWindowOps ops at a
// time. Nothing it builds is published; every segment is released again.
func (r *tracedRun) engine(tm *tracedMem, win int, end time.Time, m map[string]float64) error {
	bare := r.heap.M
	snap, size, err := r.mp.SnapshotEntry()
	if err != nil {
		return err
	}
	defer segment.ReleaseSeg(bare, snap)
	// Every bound key owns a 4-aligned run of 4 words in the map segment:
	// collect the slot bases from the non-zero words.
	var slots []uint64
	segment.ScanWords(bare, snap, 0, func(idx, _ uint64, _ word.Tag) bool {
		if base := idx &^ 3; len(slots) == 0 || slots[len(slots)-1] != base {
			slots = append(slots, base)
		}
		return true
	})
	if len(slots) < 2*mergeForkSlots {
		return fmt.Errorf("engine chain: map has %d slots", len(slots))
	}
	rng := rand.New(rand.NewSource(int64(size) + 1))
	c := r.c[2]
	slotUpdates := func(ups []segment.Update, base uint64) []segment.Update {
		for w := uint64(0); w < 4; w++ {
			ups = append(ups, segment.Update{Idx: base + w, W: rng.Uint64() | 1, T: word.TagRaw})
		}
		return ups
	}
	var (
		buildLines, gatherWords, wbUpdates, wbLookups, mergePaths int64
		memoLookups, memoHits                                     uint64
		mst                                                       merge.Stats
		casNs, casOps                                             int64
		segs                                                      []segment.Seg
		ups                                                       []segment.Update
		idxs, ws                                                  []uint64
		ts                                                        []word.Tag
	)
	span := func(name string, n int64, fn func()) {
		id, _ := r.tr.begin(name, 0, win)
		tm.parent, tm.window = id, win
		fn()
		r.tr.end(id, n)
		tm.parent = 0
	}
	for first := true; first || (time.Now().Before(end) && len(r.tr.spans) < maxSpans-8192); first, win = false, win+1 {
		// Build: what hds.Apply does before its wave — every key and
		// value of a window through one Builder.
		r.valbuf, segs = r.valbuf[:0], segs[:0]
		var values [][]byte
		var keys []int
		for i := 0; i < traceWindowOps; i++ {
			c.gen.seq++
			o := op{kind: opSet, nkeys: 1, seq: c.gen.seq}
			o.keys[0] = rng.Intn(len(r.d.keys))
			keys, values = append(keys, o.keys[0]), append(values, r.framed(c, &o))
		}
		before := tm.lookupLines
		span("segment.build", traceWindowOps, func() {
			b := segment.NewBuilder(tm, 1) // the shim belongs to one goroutine
			for i, v := range values {
				segs = append(segs, b.BuildBytes(r.d.keys[keys[i]]), b.BuildBytes(v))
			}
			bs := b.Stats()
			memoLookups, memoHits = memoLookups+bs.MemoLookups, memoHits+bs.MemoHits
			b.Close()
		})
		buildLines += tm.lookupLines - before
		// Read: materialize the values just built, as a get's reply does.
		span("segment.read", traceWindowOps, func() {
			for i, v := range values {
				if got := segment.ReadBytesBulk(tm, segs[2*i+1], 0, uint64(len(v))); string(got) != string(v) {
					c.fail("engine chain: value read back differs")
				}
			}
		})
		for _, s := range segs {
			segment.ReleaseSeg(bare, s)
		}
		// Gather: the slot words a read window fetches.
		idxs = idxs[:0]
		for i := 0; i < traceWindowOps*r.w.getKeys; i++ {
			base := slots[rng.Intn(len(slots))]
			idxs = append(idxs, base, base+1)
		}
		if cap(ws) < len(idxs) {
			ws, ts = make([]uint64, len(idxs)), make([]word.Tag, len(idxs))
		}
		span("segment.gather", int64(len(idxs)), func() {
			segment.GatherWordsInto(tm, snap, idxs, ws[:len(idxs)], ts[:len(idxs)])
		})
		gatherWords += int64(len(idxs))
		// Write batch: the four words of a window's slots in one wave.
		ups = ups[:0]
		for i := 0; i < traceWindowOps; i++ {
			ups = slotUpdates(ups, slots[rng.Intn(len(slots))])
		}
		span("segment.writebatch", int64(len(ups)), func() {
			next, st := segment.WriteBatch(tm, snap, ups)
			wbLookups += int64(st.Lookups)
			segment.ReleaseSeg(tm, next)
		})
		wbUpdates += int64(len(ups))
		// Merge: two forks of the snapshot, each rewriting its own slots,
		// rebased three ways.
		first := rng.Intn(len(slots) - 2*mergeForkSlots)
		var forks [2]segment.Seg
		for f := range forks {
			ups = ups[:0]
			for i := 0; i < mergeForkSlots; i++ {
				ups = slotUpdates(ups, slots[first+f*mergeForkSlots+i])
			}
			forks[f], _ = segment.WriteBatch(bare, snap, ups)
		}
		span("merge.merge", mergeForkSlots, func() {
			merged, err := merge.Merge(tm, snap, forks[0], forks[1], &mst)
			if err != nil {
				c.fail("engine chain: merge of disjoint forks: %v", err)
				return
			}
			segment.ReleaseSeg(tm, merged)
		})
		mergePaths += mergeForkSlots
		segment.ReleaseSeg(bare, forks[0])
		segment.ReleaseSeg(bare, forks[1])
		// CompareApply against a snapshot another commit has made stale,
		// on a key that commit did not touch: the rebase every
		// cross-connection cas pays.
		ka := rng.Intn(len(r.d.keys))
		kb := (ka + 1 + rng.Intn(len(r.d.keys)-1)) % len(r.d.keys)
		pinSeg, pinSize, err := r.mp.SnapshotEntry()
		if err != nil {
			return err
		}
		r.valbuf = r.valbuf[:0]
		var pairs [2][1]hds.Pair
		for i, k := range [2]int{ka, kb} {
			c.gen.seq++
			o := op{kind: opSet, nkeys: 1, seq: c.gen.seq}
			o.keys[0] = k
			pairs[i][0] = hds.Pair{Key: r.d.keys[k], Value: r.framed(c, &o)}
		}
		if err := r.mp.Apply(pairs[0][:], hds.ApplyOptions{}); err != nil {
			return err
		}
		id, t0 := r.tr.begin("hds.compare_apply", 0, win)
		err = r.mp.CompareApply(pinSeg, pinSize, pairs[1][:], hds.ApplyOptions{})
		r.tr.end(id, 1)
		casNs, casOps = casNs+r.since(t0), casOps+1
		segment.ReleaseSeg(bare, pinSeg)
		if err != nil {
			c.fail("engine chain: compare-apply over a stale snapshot, disjoint keys: %v", err)
		}
		c.attempted += 2
	}

	tot := totals(r.tr.spans)
	self := func(name string) float64 {
		if t := tot[name]; t != nil {
			return float64(t.selfNs)
		}
		return 0
	}
	m["segment.build_ns_per_line"] = ratio(self("segment.build"), float64(buildLines))
	m["segment.gather_ns_per_word"] = ratio(self("segment.gather"), float64(gatherWords))
	m["segment.writebatch_ns_per_update"] = ratio(self("segment.writebatch"), float64(wbUpdates))
	m["segment.memo_hit_rate"] = ratio(float64(memoHits), float64(memoLookups))
	m["segment.lines_per_update"] = ratio(float64(wbLookups), float64(wbUpdates))
	if t := tot["merge.merge"]; t != nil {
		m["merge.rebase_us_per_path"] = ratio(float64(t.ns)/1e3, float64(mergePaths))
	}
	m["merge.lines_read_per_path"] = ratio(float64(mst.LineReads), float64(mergePaths))
	m["merge.conflict_frac"] = ratio(float64(mst.Failures), float64(mst.Merges))
	m["hds.compare_apply_us_per_op"] = ratio(float64(casNs)/1e3, float64(casOps))
	m["core.lookup_ns_per_line"] = ratio(float64(tm.lookupNs), float64(tm.lookupLines))
	m["core.read_ns_per_line"] = ratio(float64(tm.readNs), float64(tm.readLines))
	return nil
}

// replay runs the shim's logged batches against a bare store.Store and a
// bare cachesim.Cache of the machine's geometry. What the store takes is
// time moving lines; core time minus that is the simulator's own
// bookkeeping (LLC model and accounting). The bare store starts empty, so
// every line a logged read returned is installed first, untimed, and PLIDs
// are translated through the contents. Lookups are replayed twice: the
// first pass allocates most lines, the second finds them all, which gives
// the cost of an allocating and of a matching lookup; the traced machine's
// own share of allocating lookups (freshFrac) weights the two.
func replay(tm *tracedMem, freshFrac float64, m map[string]float64) {
	bare := store.New(store.Config{LineBytes: machineConfig.LineBytes, BucketBits: machineConfig.BucketBits, DataWays: machineConfig.DataWays})
	sets := machineConfig.CacheLines / machineConfig.CacheWays
	llc := cachesim.New(sets, machineConfig.CacheWays)
	mask := uint64(sets - 1)

	// Drop what core answers without the store: zero lines. Interior
	// lines name PLIDs of the traced machine, which mean nothing here, so
	// every word is replayed as raw data: same size, same hashing work.
	calls := make([]memCall, 0, len(tm.log))
	var all []word.Content
	for _, lc := range tm.log {
		c := memCall{lookup: lc.lookup}
		for _, ct := range lc.cs {
			if !ct.IsZero() {
				ct.T = [word.MaxWords]word.Tag{}
				c.cs = append(c.cs, ct)
			}
		}
		if len(c.cs) > 0 {
			c.ps = make([]word.PLID, len(c.cs))
			calls = append(calls, c)
			all = append(all, c.cs...)
		}
	}
	// Touch the store's memory first — allocate every line once and free
	// it again — so the timed passes do not pay the host's page faults.
	touched, _ := bare.LookupBatch(all)
	for _, p := range touched {
		bare.Release(p)
	}
	for i := range calls {
		if c := &calls[i]; !c.lookup {
			bare.LookupBatchInto(c.cs, c.ps, make([]bool, len(c.cs)))
		}
	}

	var passNs [2]int64
	var lookupLines, fresh, readNs, readLines int64
	var existed []bool
	var out []word.Content
	for pass := range passNs {
		for i := range calls {
			c := &calls[i]
			n := len(c.cs)
			if c.lookup {
				if cap(existed) < n {
					existed = make([]bool, n)
				}
				t0 := time.Now()
				bare.LookupBatchInto(c.cs, c.ps, existed[:n])
				passNs[pass] += time.Since(t0).Nanoseconds()
				if pass == 0 {
					lookupLines += int64(n)
					for _, e := range existed[:n] {
						if !e {
							fresh++
						}
					}
				}
				continue
			}
			if pass == 1 {
				continue
			}
			if cap(out) < n {
				out = make([]word.Content, n)
			}
			t0 := time.Now()
			bare.ReadBatchInto(c.ps, out[:n])
			readNs, readLines = readNs+time.Since(t0).Nanoseconds(), readLines+int64(n)
		}
	}
	// pass 0 = f0*alloc + (1-f0)*match per line, pass 1 = match per line.
	match := ratio(float64(passNs[1]), float64(lookupLines))
	alloc := match
	if f0 := ratio(float64(fresh), float64(lookupLines)); f0 > 0 {
		alloc = (ratio(float64(passNs[0]), float64(lookupLines)) - (1-f0)*match) / f0
	}
	storeLookup := freshFrac*alloc + (1-freshFrac)*match
	storeRead := ratio(float64(readNs), float64(readLines))

	var probes int64
	t0 := time.Now()
	for i := range calls {
		c := &calls[i]
		for j, ct := range c.cs {
			key := cachesim.Key{Kind: cachesim.KindData, ID: uint64(c.ps[j])}
			set, hit := int(ct.Hash()&mask), false
			if c.lookup {
				_, hit = llc.ProbeContent(set, ct)
			} else {
				if b, ok := bare.BucketOf(c.ps[j]); ok {
					set = int(b & mask)
				}
				_, hit = llc.Probe(set, key, false)
			}
			if !hit {
				llc.Insert(set, cachesim.Entry{Key: key, Content: ct})
			}
			probes++
		}
	}
	m["cachesim.probe_ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(probes))
	m["store.lookup_ns_per_line"] = storeLookup
	m["store.read_ns_per_line"] = storeRead
	m["store.row_hit_rate"] = bare.RowStats().HitRate()
	lines := float64(tm.lookupLines + tm.readLines)
	m["core.self_ns_per_line"] = ratio(float64(tm.lookupNs+tm.readNs), lines) -
		ratio(storeLookup*float64(tm.lookupLines)+storeRead*float64(tm.readLines), lines)
}

// durableMicro times the durable tier's own entry points on a scratch
// database: a journal append, a group-commit wait after a window's worth
// of appends, and a checkpoint of a few thousand live lines.
func (e *env) durableMicro(m map[string]float64) error {
	dir, err := os.MkdirTemp(e.build, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mach := core.NewMachine(machineConfig)
	db, err := durable.Open(durable.Options{Dir: dir}, mach, segmap.New(mach))
	if err != nil {
		return err
	}
	defer db.Close()
	line := func(i int) word.Content {
		c := word.NewContent(mach.LineWords())
		c.W[0], c.W[1] = uint64(i)+1, 0x9E3779B97F4A7C15*uint64(i+1)
		return c
	}
	// Live lines for the checkpoint to write; the store journals them.
	const live = 4096
	for i := 0; i < live; i++ {
		mach.LookupLine(line(i))
	}
	const recs = 20000
	t0 := time.Now()
	for i := 0; i < recs; i++ {
		db.JournalAlloc(word.PLID(1<<30+i), line(live+i))
	}
	m["durable.append_ns_per_rec"] = float64(time.Since(t0).Nanoseconds()) / recs
	var syncs []float64
	for round := 0; round < 25; round++ {
		for i := 0; i < traceWindowOps; i++ {
			db.JournalAlloc(word.PLID(1<<31+round*traceWindowOps+i), line(live+recs+i))
		}
		t0 = time.Now()
		if err := db.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m["durable.sync_ms_p50"] = median(syncs)
	t0 = time.Now()
	if err := db.Checkpoint(); err != nil {
		return err
	}
	m["durable.checkpoint_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	return nil
}
