package netfront

import (
	"time"

	"repro/internal/hds"
	"repro/internal/segment"
)

// The aggregation loop. Every connection reader feeds parsed ops into
// one shared channel; the dispatcher collects them into bounded flush
// windows (up to MaxBatch ops, waiting at most FlushWindow for
// stragglers) and executes each window as a handful of wave operations
// instead of one store operation per request:
//
//   - all reads in the window, across every connection, resolve per
//     namespace through ONE pinned snapshot + ONE Map.GetBytesAtInto
//     (one level-order gather, one bulk materialization, one netting
//     scope) — the map's root path and interior lines shared between the
//     window's keys are fetched once per wave, not once per request;
//   - all sets and deletes in the window coalesce per namespace into ONE
//     Apply batch — one bottom-up wave commit publishing one version for
//     the whole window, with tombstones riding the same commit;
//   - cas ops run individually through the merge-rebase publish
//     (execCas), after the window's writes;
//   - stats ops answer first, on a machine with nothing left to reclaim.
//
// A write window answers before it reclaims (hds.Reclaim): the version
// it replaced is freed while the next window collects, or after
// FlushWindow when no op comes, and always before any other machine
// work, so the machine sees every call in inline-reclaim order.
//
// Execution order within a window is reads, then writes, then cas: the
// window's reads see the pre-window version (they pinned it), its writes
// publish after. Per-connection ordering across classes is enforced
// upstream by the submit barrier, and cross-connection ordering is
// unspecified by the protocol — so this reordering is invisible to any
// single connection.
type dispatcher struct {
	s    *Server
	ch   chan *op
	done chan struct{}

	// Reused window scratch (the dispatcher is a single goroutine).
	batch  []*op
	reads  []*op
	writes []*op
	cass   []*op
	groups map[*hds.Map]*windowGroup
	order  []*windowGroup
	free   []*windowGroup
	owed   hds.Reclaim // the last write window's; see reclaim
	owing  bool
}

func newDispatcher(s *Server) *dispatcher {
	return &dispatcher{
		s:      s,
		ch:     make(chan *op, 4*s.opts.MaxBatch),
		done:   make(chan struct{}),
		groups: make(map[*hds.Map]*windowGroup),
	}
}

// windowGroup is one namespace's share of a flush window: the read keys
// and write pairs routed to one hds.Map, with cursors for scattering
// results back to ops in arrival order.
type windowGroup struct {
	mp *hds.Map

	// Read side. rb is retained across windows so steady-state reads
	// reuse its storage; the delete pre-check borrows it too.
	rkeys [][]byte
	rb    hds.ReadBuf
	tok   uint64
	rerr  error // snapshot open failed; the group's reads answer SERVER_ERROR
	rcur  int

	// Write side.
	pairs   []hds.Pair
	delKeys [][]byte
	werr    error
	dcur    int
}

func (g *windowGroup) reset() {
	g.mp = nil
	g.rkeys = g.rkeys[:0]
	g.tok, g.rerr, g.rcur = 0, nil, 0
	g.pairs, g.delKeys = g.pairs[:0], g.delKeys[:0]
	g.werr, g.dcur = nil, 0
}

func (d *dispatcher) run() {
	defer close(d.done)
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	pending := false // the window this loop executed left a reclaim
	for {
		o, ok := d.first(timer, pending)
		if !ok {
			d.reclaim()
			return
		}
		d.batch = append(d.batch[:0], o)
		timer.Reset(d.s.opts.FlushWindow)
		d.reclaim() // inside the straggler wait this window pays anyway
		d.collect(timer)
		d.execBatch(d.batch)
		pending = d.owing
	}
}

// first waits for a window's first op. While a reclaim is pending it
// waits at most FlushWindow and then reclaims, so an idle server
// returns the replaced version's memory.
func (d *dispatcher) first(timer *time.Timer, pending bool) (*op, bool) {
	if pending {
		timer.Reset(d.s.opts.FlushWindow)
		select {
		case o, ok := <-d.ch:
			stopTimer(timer)
			return o, ok
		case <-timer.C:
			d.reclaim()
		}
	}
	o, ok := <-d.ch
	return o, ok
}

// collect adds ops to d.batch until it holds MaxBatch, timer fires or
// the channel closes. Ops already queued join before a fired timer
// closes the window: a select with both cases ready picks one at random.
func (d *dispatcher) collect(timer *time.Timer) {
	for len(d.batch) < d.s.opts.MaxBatch {
		var o *op
		var ok bool
		select {
		case o, ok = <-d.ch:
		default:
			select {
			case o, ok = <-d.ch:
			case <-timer.C:
				return
			}
		}
		if !ok {
			break
		}
		d.batch = append(d.batch, o)
	}
	stopTimer(timer)
}

// stopTimer stops t and drains a value it already sent.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}

// reclaim runs the reclaim a write window deferred, if any. Only the
// dispatcher goroutine calls it.
func (d *dispatcher) reclaim() {
	d.owed.Run()
	d.owed, d.owing = hds.Reclaim{}, false
}

// groupFor returns the window group of mp, creating it from the
// dispatcher's freelist.
func (d *dispatcher) groupFor(mp *hds.Map) *windowGroup {
	if g, ok := d.groups[mp]; ok {
		return g
	}
	var g *windowGroup
	if n := len(d.free); n > 0 {
		g, d.free = d.free[n-1], d.free[:n-1]
	} else {
		g = &windowGroup{}
	}
	g.mp = mp
	d.groups[mp] = g
	d.order = append(d.order, g)
	return g
}

func (d *dispatcher) releaseGroups() {
	for _, g := range d.order {
		delete(d.groups, g.mp)
		g.reset()
		d.free = append(d.free, g)
	}
	d.order = d.order[:0]
}

func (d *dispatcher) execBatch(batch []*op) {
	s := d.s
	s.c.batches.Add(1)
	s.c.batchedOps.Add(uint64(len(batch)))
	d.reclaim()
	d.reads, d.writes, d.cass = d.reads[:0], d.writes[:0], d.cass[:0]
	for _, o := range batch {
		switch o.class {
		case classRead:
			d.reads = append(d.reads, o)
		case classWrite:
			d.writes = append(d.writes, o)
		case classStats:
			// A barrier: the connection's earlier ops have executed
			// (conn.submit) and no reclaim is pending.
			o.out = s.appendStats(o.grab(4096))
			o.finish()
		default:
			d.cass = append(d.cass, o)
		}
	}
	if len(d.reads) > 0 {
		d.execReadWindow(d.reads)
	}
	if len(d.writes) > 0 {
		d.execWriteWindow(d.writes)
	}
	for _, o := range d.cass {
		d.reclaim()
		s.execCas(o)
		o.finish()
	}
}

// execReadWindow serves every read op of the window: one snapshot pin
// and one Map.GetBytesAtInto per namespace, then a positional
// scatter back to each op's response in arrival order. If any op in the
// window is a gets/mget, the namespace's pinned snapshot is registered
// as a cas token shared by the whole window (one pin names the version
// every one of those reads saw).
func (d *dispatcher) execReadWindow(reads []*op) {
	s := d.s
	withCas := false
	for _, o := range reads {
		s.c.cmdGet.Add(uint64(len(o.keys)))
		withCas = withCas || o.withCas
		for _, key := range o.keys {
			g := d.groupFor(s.store.NamespaceFor(key))
			g.rkeys = append(g.rkeys, key)
		}
	}
	for _, g := range d.order {
		seg, size, err := g.mp.SnapshotEntry()
		if err != nil {
			// Keep the positional cursors aligned, but remember the fault:
			// the scatter pass answers SERVER_ERROR, not a silent all-miss.
			s.c.snapshotErrors.Add(1)
			g.rerr = err
			g.rb.Vals = append(g.rb.Vals[:0], make([][]byte, len(g.rkeys))...)
			g.rb.Found = append(g.rb.Found[:0], make([]bool, len(g.rkeys))...)
			continue
		}
		g.mp.GetBytesAtInto(seg, g.rkeys, &g.rb)
		if withCas {
			g.tok = s.toks.Register(g.mp, seg, size) // owns seg now
		} else {
			segment.ReleaseSeg(s.store.Heap.M, seg)
		}
	}
	// Scatter: same iteration order as the grouping pass, so each group's
	// cursor walks its results positionally.
	for _, o := range reads {
		hint := 32
		for _, key := range o.keys {
			hint += len(key) + 48
		}
		dst := o.grab(hint)
		var rerr error
		for _, key := range o.keys {
			g := d.groups[s.store.NamespaceFor(key)]
			v, ok := g.rb.Vals[g.rcur], g.rb.Found[g.rcur]
			g.rcur++
			if g.rerr != nil {
				rerr = g.rerr
				continue
			}
			if !ok {
				s.c.getMisses.Add(1)
				continue
			}
			s.c.getHits.Add(1)
			flags, payload := unframe(v)
			dst = AppendValue(dst, key, flags, payload, g.tok, o.withCas)
		}
		if rerr != nil {
			// Any erroring namespace fails the whole op: partial VALUE lines
			// with a silent gap would read as misses.
			o.out = appendErrorResponse(dst[:0], rerr)
		} else {
			o.out = append(dst, respEnd...)
		}
		o.finish()
	}
	d.releaseGroups()
}

// execWriteWindow coalesces the window's sets and deletes into one Apply
// wave commit per namespace — sets bind, tombstones unbind, the whole
// window publishes as a single version. DELETED/NOT_FOUND answers come
// from a pre-commit presence probe of the deleted keys
// (Map.HasBytesAtInto, which reads each slot's length word and no value
// line), corrected by in-window bindings so a delete following a
// same-window set still answers DELETED.
func (d *dispatcher) execWriteWindow(writes []*op) {
	s := d.s
	anyDelete := false
	for _, o := range writes {
		key := o.keys[0]
		g := d.groupFor(s.store.NamespaceFor(key))
		if o.verb == OpDelete {
			s.c.cmdDelete.Add(1)
			anyDelete = true
			g.pairs = append(g.pairs, hds.Pair{Key: key, Delete: true})
			g.delKeys = append(g.delKeys, key)
		} else {
			s.c.cmdSet.Add(1)
			g.pairs = append(g.pairs, hds.Pair{Key: key, Value: o.val.S})
		}
	}
	for _, g := range d.order {
		d.reclaim() // an earlier namespace's, before this one touches the machine
		if len(g.delKeys) > 0 {
			seg, _, err := g.mp.SnapshotEntry()
			if err != nil {
				// The Apply below still commits the tombstones; only the
				// DELETED/NOT_FOUND answer degrades. Count the fault.
				s.c.snapshotErrors.Add(1)
				g.rb.Found = append(g.rb.Found[:0], make([]bool, len(g.delKeys))...)
			} else {
				g.mp.HasBytesAtInto(seg, g.delKeys, &g.rb)
				segment.ReleaseSeg(s.store.Heap.M, seg)
			}
		}
		d.owed, g.werr = g.mp.ApplyDeferred(g.pairs, hds.ApplyOptions{})
		d.owing = true
	}
	// One durability wait covers the whole window: every namespace's
	// commit is journaled by now, so a single group-commit fsync makes
	// all of them stable before any STORED/DELETED goes out. A no-op on
	// memory-only stores.
	if serr := s.store.AckDurable(); serr != nil {
		for _, g := range d.order {
			if g.werr == nil {
				g.werr = serr
			}
		}
	}
	// In-window binding state, for delete answers after same-window sets.
	var bound map[string]bool
	if anyDelete {
		bound = make(map[string]bool)
	}
	for _, o := range writes {
		key := o.keys[0]
		g := d.groups[s.store.NamespaceFor(key)]
		if o.verb != OpDelete {
			if g.werr != nil {
				o.out = appendErrorResponse(o.grab(64), g.werr)
			} else {
				o.out = respStored
			}
			if bound != nil {
				bound[string(key)] = true
			}
			o.finish()
			continue
		}
		existed := g.rb.Found[g.dcur]
		g.dcur++
		if b, ok := bound[string(key)]; ok {
			existed = b
		}
		bound[string(key)] = false
		switch {
		case g.werr != nil:
			o.out = appendErrorResponse(o.grab(64), g.werr)
		case existed:
			s.c.deleteHits.Add(1)
			o.out = respDeleted
		default:
			s.c.deleteMisses.Add(1)
			o.out = respNotFound
		}
		o.finish()
	}
	d.releaseGroups()
}
