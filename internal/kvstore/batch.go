package kvstore

import (
	"repro/internal/hds"
	"repro/internal/segment"
)

// The batch surface: a Batch of KV operations, routed per tenant
// namespace with positional results written back in place, so a batch
// mixing tenants still costs one wave (Write) or one gather (Read) per
// namespace.

// KV is one key's operation — and, for reads, its result — in a Batch.
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
	// Found reports, after a read batch, whether Key was bound.
	Found bool
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

// batchGroup is one namespace's slice of a positional batch. pos maps
// group positions back to batch indices; nil when kvs aliases the whole
// batch in order (the common single-tenant case).
type batchGroup struct {
	mp  *hds.Map
	kvs []KV
	pos []int
}

// groupBatch partitions a batch by tenant namespace. The uniform case
// (all keys one namespace) returns a single group aliasing b with no
// copying.
func (s *HicampServer) groupBatch(b Batch) []batchGroup {
	first := SplitNamespace(b[0].Key)
	uniform := true
	for i := 1; i < len(b); i++ {
		if SplitNamespace(b[i].Key) != first {
			uniform = false
			break
		}
	}
	if uniform {
		return []batchGroup{{mp: s.Namespace(first), kvs: b}}
	}
	order := make([]string, 0, 4)
	groups := make(map[string]*batchGroup, 4)
	for i, kv := range b {
		ns := SplitNamespace(kv.Key)
		g := groups[ns]
		if g == nil {
			g = &batchGroup{mp: s.Namespace(ns)}
			groups[ns] = g
			order = append(order, ns)
		}
		g.kvs = append(g.kvs, kv)
		g.pos = append(g.pos, i)
	}
	out := make([]batchGroup, 0, len(order))
	for _, ns := range order {
		out = append(out, *groups[ns])
	}
	return out
}

// Write applies a batch of sets and tombstones: one wave commit per
// namespace, each publishing the group's bindings and unbindings as a
// single version (all strings built through one shared bulk builder,
// every touched slot committed in one WriteBatch wave). Later
// duplicates of a key win, mirroring sequential order.
func (s *HicampServer) Write(b Batch) error {
	if len(b) == 0 {
		return nil
	}
	for _, g := range s.groupBatch(b) {
		pairs := make([]hds.Pair, len(g.kvs))
		for i, kv := range g.kvs {
			pairs[i] = hds.Pair{Key: kv.Key, Value: kv.Value, Delete: kv.Delete}
		}
		if err := g.mp.Apply(pairs, hds.ApplyOptions{}); err != nil {
			return err
		}
	}
	return s.AckDurable()
}

// Read resolves a batch of keys in place — the memcached multi-get.
// Per namespace it costs one snapshot pin and one Map.GetBytesAtInto:
// one level-order slot gather and one bulk materialization, so map
// interiors shared between slots and lines shared between values are
// fetched once per wave instead of once per key. b[i].Value and
// b[i].Found carry the results positionally; Value is nil when the key
// is unbound.
func (s *HicampServer) Read(b Batch) {
	if len(b) == 0 {
		return
	}
	for _, g := range s.groupBatch(b) {
		var r hds.ReadBuf
		segment.ReleaseSeg(s.Heap.M, g.read(&r))
		for i := range g.kvs {
			j := g.at(i)
			b[j].Value, b[j].Found = nil, false
			if r.Found[i] {
				b[j].Value, b[j].Found = r.Vals[i], true
			}
		}
	}
}

// read pins the group's snapshot and reads its keys into r; if the pin
// fails, every key reads as absent. The caller releases the returned
// pin.
func (g batchGroup) read(r *hds.ReadBuf) segment.Seg {
	seg, _, err := g.mp.SnapshotEntry()
	if err != nil {
		r.Found = make([]bool, len(g.kvs))
		return segment.Seg{}
	}
	keys := make([][]byte, len(g.kvs))
	for i, kv := range g.kvs {
		keys[i] = kv.Key
	}
	g.mp.GetBytesAtInto(seg, keys, r)
	return seg
}

// at maps group position i back to its batch index.
func (g batchGroup) at(i int) int {
	if g.pos != nil {
		return g.pos[i]
	}
	return i
}
