package netfront

import (
	"errors"
	"time"

	"repro/internal/hds"
	"repro/internal/kvstore"
)

// The aggregation loop. Every connection reader feeds parsed ops into
// one shared channel; the dispatcher collects them into bounded flush
// windows (up to MaxBatch ops, waiting at most FlushWindow for
// stragglers), builds one kvstore.Batch from each class of the window's
// ops and runs it through the store's window executor (kvstore.Window),
// which costs one wave operation per namespace instead of one store
// operation per request:
//
//   - all reads in the window, across every connection, are one
//     Window.Read: per namespace ONE pinned snapshot + ONE gather and
//     bulk materialization; if any op is a gets/mget the pins become cas
//     tokens;
//   - all sets and deletes in the window are one Window.WriteDeferred:
//     per namespace ONE wave commit publishing one version, tombstones
//     riding the same commit, and one durability wait for the window;
//   - cas ops run one at a time through kvstore's merge-rebase Cas, after
//     the window's writes;
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
	w    *kvstore.Window

	// Reused window scratch (the dispatcher is a single goroutine).
	batch  []*op
	reads  []*op
	writes []*op
	cass   []*op
	kvs    kvstore.Batch
	owed   hds.Reclaim // the last write window's; see reclaim
	owing  bool
}

func newDispatcher(s *Server) *dispatcher {
	return &dispatcher{
		s:    s,
		ch:   make(chan *op, 4*s.opts.MaxBatch),
		done: make(chan struct{}),
		w:    s.store.NewWindow(),
	}
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
		s.c.cmdCas.Add(1)
		switch err := s.store.Cas(o.keys[0], o.val.S, o.casTok); {
		case err == nil:
			s.c.casStored.Add(1)
			o.out = respStored
		case errors.Is(err, kvstore.ErrNotFound):
			s.c.casNotFound.Add(1)
			o.out = respNotFound
		case errors.Is(err, kvstore.ErrExists):
			s.c.casExists.Add(1)
			o.out = respExists
		default:
			o.out = appendErrorResponse(o.grab(64), err)
		}
		o.finish()
	}
}

// execReadWindow serves every read op of the window as one
// Window.Read, then formats each op's reply from its keys' results in
// arrival order. If any op in the window is a gets/mget, the read pins
// its snapshots as cas tokens (one pin names the version every one of
// those reads saw).
func (d *dispatcher) execReadWindow(reads []*op) {
	s := d.s
	withCas := false
	d.kvs = d.kvs[:0]
	for _, o := range reads {
		s.c.cmdGet.Add(uint64(len(o.keys)))
		withCas = withCas || o.withCas
		for _, key := range o.keys {
			d.kvs = d.kvs.Get(key)
		}
	}
	d.w.Read(d.kvs, withCas)
	kvs := d.kvs
	for _, o := range reads {
		hint := 32
		for _, key := range o.keys {
			hint += len(key) + 48
		}
		dst := o.grab(hint)
		var rerr error
		for _, kv := range kvs[:len(o.keys)] {
			switch {
			case kv.Err != nil:
				rerr = kv.Err
			case !kv.Found:
				s.c.getMisses.Add(1)
			default:
				s.c.getHits.Add(1)
				flags, payload := unframe(kv.Value)
				dst = AppendValue(dst, kv.Key, flags, payload, kv.Cas, o.withCas)
			}
		}
		kvs = kvs[len(o.keys):]
		if rerr != nil {
			// Any erroring namespace fails the whole op: partial VALUE lines
			// with a silent gap would read as misses.
			s.c.snapshotErrors.Add(1)
			o.out = appendErrorResponse(dst[:0], rerr)
		} else {
			o.out = append(dst, respEnd...)
		}
		o.finish()
	}
}

// execWriteWindow coalesces the window's sets and deletes into one
// Window.WriteDeferred, answers each op once the window is stable, and
// keeps the last namespace's reclaim for later (see reclaim).
func (d *dispatcher) execWriteWindow(writes []*op) {
	s := d.s
	d.kvs = d.kvs[:0]
	for _, o := range writes {
		if o.verb == OpDelete {
			s.c.cmdDelete.Add(1)
			d.kvs = append(d.kvs, kvstore.KV{Key: o.keys[0], Delete: true})
		} else {
			s.c.cmdSet.Add(1)
			d.kvs = d.kvs.Set(o.keys[0], o.val.S)
		}
	}
	d.owed, _ = d.w.WriteDeferred(d.kvs)
	d.owing = true
	for i, o := range writes {
		switch kv := &d.kvs[i]; {
		case kv.Err != nil:
			o.out = appendErrorResponse(o.grab(64), kv.Err)
		case !kv.Delete:
			o.out = respStored
		case kv.Found:
			s.c.deleteHits.Add(1)
			o.out = respDeleted
		default:
			s.c.deleteMisses.Add(1)
			o.out = respNotFound
		}
		o.finish()
	}
}
