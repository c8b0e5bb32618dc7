package kvstore

import (
	"repro/internal/hds"
	"repro/internal/pool"
	"repro/internal/segment"
)

// KV is one key's operation — and its result — in a Batch.
type KV struct {
	// Key routes the operation: a "tenant/" prefix selects the tenant's
	// namespace, bare keys the root map.
	Key []byte
	// Value is the payload to store (Write) or the result slot filled in
	// place (Read; nil when not found).
	Value []byte
	// Delete marks a tombstone in a write batch: the key is unbound in
	// the same published version that binds its siblings.
	Delete bool
	// Found reports, after a read, whether Key was bound; after a write,
	// for a tombstone, whether Key was bound before it, earlier sets in
	// the batch included.
	Found bool
	// Err is the failure of the key's namespace: its snapshot pin, its
	// commit or the durability wait. Value and Found mean nothing then.
	Err error
	// Cas is, after a pinned read (Window.Read), the token naming the
	// version the key was read from (see Cas).
	Cas uint64
}

// Batch is a positional sequence of KV operations. Order is preserved:
// results land at the same index as their key, whatever namespace each
// key routed to.
type Batch []KV

// Set appends a binding and returns the extended batch.
func (b Batch) Set(key, value []byte) Batch {
	return append(b, KV{Key: key, Value: value})
}

// Get appends a read of key and returns the extended batch.
func (b Batch) Get(key []byte) Batch {
	return append(b, KV{Key: key})
}

// Window is the window executor: it runs a batch as one wave operation
// per tenant namespace, whatever the batch's size, and writes the
// results back positionally. It is the one path of both the in-process
// API (Read and Write borrow one) and the network front end's flush
// windows (the dispatcher keeps one). Its per-namespace groups, their
// read buffers and its routing scratch are reused across calls, so a
// kept Window runs batches with no per-call allocation. A Window
// belongs to one goroutine; the values a Read leaves in its batch alias
// the Window's storage until its next call.
type Window struct {
	s      *HicampServer
	groups map[*hds.Map]*group
	order  []*group
	free   []*group
	at     []*group        // at[i] is b[i]'s group
	bound  map[string]bool // a write batch's bindings so far, for tombstones
}

// group is one namespace's share of a batch: the keys it reads or
// unbinds and the pairs it commits, with a cursor walking its results
// in batch order.
type group struct {
	mp    *hds.Map
	keys  [][]byte    // read keys, or a write batch's tombstone keys
	pairs []hds.Pair  // a write batch's sets and tombstones
	rb    hds.ReadBuf // kept across calls: steady-state reads reuse its storage
	tok   uint64
	err   error
	cur   int
}

// NewWindow returns a Window over s.
func (s *HicampServer) NewWindow() *Window {
	return &Window{s: s, groups: map[*hds.Map]*group{}, bound: map[string]bool{}}
}

// windows lends Read and Write a Window per call. A returned window
// keeps no reference to its server or to the caller's keys and values.
var windows = pool.NewItems[Window]("kvstore.window", func(w *Window) {
	w.s = nil
	for _, g := range w.free {
		clear(g.keys[:cap(g.keys)])
		clear(g.pairs[:cap(g.pairs)])
		g.rb = hds.ReadBuf{} // a Read's values are the caller's
	}
})

func (s *HicampServer) borrowWindow() *Window {
	w := windows.Get()
	if w.groups == nil {
		*w = *s.NewWindow()
	}
	w.s = s
	return w
}

// route groups b by namespace, in order of first appearance, and
// records each key's group. A write batch fills pairs (and keys with
// its tombstones), a read batch keys.
func (w *Window) route(b Batch, write bool) {
	w.at = w.at[:0]
	for _, kv := range b {
		mp := w.s.NamespaceFor(kv.Key)
		g := w.groups[mp]
		if g == nil {
			if n := len(w.free); n > 0 {
				g, w.free = w.free[n-1], w.free[:n-1]
			} else {
				g = &group{}
			}
			g.mp = mp
			w.groups[mp] = g
			w.order = append(w.order, g)
		}
		w.at = append(w.at, g)
		switch {
		case !write:
			g.keys = append(g.keys, kv.Key)
		case kv.Delete:
			g.pairs = append(g.pairs, hds.Pair{Key: kv.Key, Delete: true})
			g.keys = append(g.keys, kv.Key)
		default:
			g.pairs = append(g.pairs, hds.Pair{Key: kv.Key, Value: kv.Value})
		}
	}
}

// release returns the batch's groups to the freelist.
func (w *Window) release() {
	for _, g := range w.order {
		delete(w.groups, g.mp)
		g.mp, g.keys, g.pairs = nil, g.keys[:0], g.pairs[:0]
		g.tok, g.err, g.cur = 0, nil, 0
		w.free = append(w.free, g)
	}
	w.order = w.order[:0]
}

// Read resolves b's keys in place — the memcached multi-get. Per
// namespace it costs one snapshot pin and one Map.GetBytesAtInto: one
// level-order slot gather and one bulk materialization, so map
// interiors shared between slots and lines shared between values are
// fetched once per wave instead of once per key. With pin, each
// namespace's snapshot becomes a cas token (one per version, shared by
// every key read from it) and b[i].Cas names it; otherwise the pin is
// released. A namespace whose pin fails sets Err on its keys.
func (w *Window) Read(b Batch, pin bool) {
	w.route(b, false)
	for _, g := range w.order {
		seg, size, err := g.mp.SnapshotEntry()
		if err != nil {
			g.err = err
			continue
		}
		g.mp.GetBytesAtInto(seg, g.keys, &g.rb)
		if pin {
			g.tok = w.s.toks.Register(g.mp, seg, size) // owns seg now
		} else {
			segment.ReleaseSeg(w.s.Heap.M, seg)
		}
	}
	for i, g := range w.at {
		kv := &b[i]
		kv.Value, kv.Found, kv.Err, kv.Cas = nil, false, g.err, g.tok
		if g.err == nil && g.rb.Found[g.cur] {
			kv.Value, kv.Found = g.rb.Vals[g.cur], true
		}
		g.cur++
	}
	w.release()
}

// WriteDeferred applies b's sets and tombstones: per namespace one
// Map.ApplyDeferred wave commit publishing the group's bindings and
// unbindings as a single version (later duplicates of a key win), then
// one durability wait for the whole batch. A tombstone's Found comes
// from a presence probe before the commit (Map.HasBytesAtInto, which
// reads each slot's length word and no value line), corrected by the
// batch's earlier bindings. An earlier namespace's reclaim runs before
// the next namespace touches the machine; the last one's is returned
// unrun, so the caller can answer first. The error is the first Err in
// batch order.
func (w *Window) WriteDeferred(b Batch) (hds.Reclaim, error) {
	rc := w.apply(b)
	return rc, w.ack(b)
}

// apply routes b and commits every namespace; see WriteDeferred.
func (w *Window) apply(b Batch) hds.Reclaim {
	w.route(b, true)
	var rc hds.Reclaim
	for _, g := range w.order {
		rc.Run() // an earlier namespace's, before this one touches the machine
		if len(g.keys) > 0 {
			if seg, _, err := g.mp.SnapshotEntry(); err != nil {
				g.err = err // the commit below still runs
			} else {
				g.mp.HasBytesAtInto(seg, g.keys, &g.rb)
				segment.ReleaseSeg(w.s.Heap.M, seg)
			}
		}
		var err error
		rc, err = g.mp.ApplyDeferred(g.pairs, hds.ApplyOptions{})
		if g.err == nil {
			g.err = err
		}
	}
	return rc
}

// ack waits once for every namespace's commit to be stable, then
// scatters each key's Err and each tombstone's Found, and returns the
// first error.
func (w *Window) ack(b Batch) error {
	if err := w.s.AckDurable(); err != nil {
		for _, g := range w.order {
			if g.err == nil {
				g.err = err
			}
		}
	}
	tombs := false
	for i := range b {
		tombs = tombs || b[i].Delete
	}
	var first error
	for i, g := range w.at {
		kv := &b[i]
		kv.Found, kv.Err, kv.Cas = false, g.err, 0
		if first == nil {
			first = g.err
		}
		switch {
		case g.err != nil:
		case !kv.Delete:
			if tombs {
				w.bound[string(kv.Key)] = true
			}
		default:
			kv.Found = g.rb.Found[g.cur]
			g.cur++
			if was, ok := w.bound[string(kv.Key)]; ok {
				kv.Found = was
			}
			w.bound[string(kv.Key)] = false
		}
	}
	clear(w.bound)
	w.release()
	return first
}

// Read resolves a batch of keys in place (Window.Read, unpinned).
// b[i].Value and b[i].Found carry the results positionally; Value is nil
// when the key is unbound, and belongs to the caller.
func (s *HicampServer) Read(b Batch) {
	if len(b) == 0 {
		return
	}
	w := s.borrowWindow()
	w.Read(b, false)
	windows.Put(w)
}

// Write applies a batch of sets and tombstones (Window.WriteDeferred)
// and runs the last namespace's reclaim before the durability wait, so
// it returns with nothing left to reclaim.
func (s *HicampServer) Write(b Batch) error {
	if len(b) == 0 {
		return nil
	}
	w := s.borrowWindow()
	w.apply(b).Run()
	err := w.ack(b)
	windows.Put(w)
	return err
}
