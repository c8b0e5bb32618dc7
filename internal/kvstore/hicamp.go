// Package kvstore implements the paper's running application study (§4.4,
// §5.1): memcached. The HICAMP implementation is the paper's design — the
// key-value map is a sparse segment indexed by the content-unique root
// PLID of the key string, read under snapshot isolation and updated with
// merge-update. The conventional implementation is an operation-level
// model of stock memcached (hash table + slab allocator + socket IPC)
// that emits its memory reference stream into the baseline cache
// hierarchy. Both sides process identical request traces; their off-chip
// access counts reproduce Figure 6.
package kvstore

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/hds"
	"repro/internal/iterreg"
	"repro/internal/pool"
	"repro/internal/segmap"
)

// HicampServer is memcached on HICAMP (§4.4). Keys with a "tenant/"
// prefix route to per-tenant maps on their own VSIDs (see namespace.go);
// bare keys live on the root map.
type HicampServer struct {
	Heap  *hds.Heap
	kvp   *hds.Map
	ns    namespaces
	blobs blobMaps

	// db is the write-ahead persistence layer, nil on memory-only
	// servers; write acknowledgements wait on it (see durable.go).
	db *durable.DB
}

// NewHicampServer creates a memory-only server over a fresh machine.
// NewHicampServerOpts adds persistence.
func NewHicampServer(cfg core.Config) *HicampServer {
	h := hds.NewHeap(cfg)
	return &HicampServer{Heap: h, kvp: hds.NewMap(h)}
}

// Set stores a key-value pair. Building the value into content-unique
// lines is the set path's dominant memory cost, exactly as the paper's
// §5.1.1 analysis assumes; the map update itself touches log(N) lines.
func (s *HicampServer) Set(key, value []byte) error {
	k := hds.NewString(s.Heap, key)
	v := hds.NewString(s.Heap, value)
	err := s.NamespaceFor(key).Set(k, v)
	// The map's DAG now owns the value (and the key is findable by
	// content); drop the request-local references.
	k.Release(s.Heap)
	v.Release(s.Heap)
	return s.ackWrite(err)
}

// Get returns the value for key. The read runs against a private
// snapshot: no locking, no interference from concurrent sets (§4.4).
func (s *HicampServer) Get(key []byte) ([]byte, bool) {
	k := hds.NewString(s.Heap, key)
	defer k.Release(s.Heap)
	v, ok := s.NamespaceFor(key).Get(k)
	if !ok {
		return nil, false
	}
	out := v.Bytes(s.Heap) // stream the value out (to the NIC, in life)
	v.Release(s.Heap)
	return out, true
}

// GetVia is Get through a caller-owned read-only iterator, the §4.4
// client-thread pattern: the register is reloaded once per request and
// the map is accessed directly, with zero IPC. The register is bound to
// the root map; tenant-prefixed keys read through Get instead.
func (s *HicampServer) GetVia(it *iterreg.Iterator, key []byte) ([]byte, bool) {
	if err := it.Reload(); err != nil {
		return nil, false
	}
	k := hds.NewString(s.Heap, key)
	defer k.Release(s.Heap)
	v, ok := hds.GetFrom(s.Heap, it, k)
	if !ok {
		return nil, false
	}
	out := v.Bytes(s.Heap)
	v.Release(s.Heap)
	return out, true
}

// Delete removes a key.
func (s *HicampServer) Delete(key []byte) error {
	k := hds.NewString(s.Heap, key)
	defer k.Release(s.Heap)
	return s.ackWrite(s.NamespaceFor(key).Delete(k))
}

// OpenReader returns a read-only iterator register bound to the map, for
// GetVia. Close it when the connection ends.
func (s *HicampServer) OpenReader() (*iterreg.Iterator, error) {
	return iterreg.Open(s.Heap.M, s.Heap.SM, s.kvp.ReadOnlyVSID())
}

// Scan streams every key-value pair in the store, materialized as bytes,
// from one snapshot per namespace taken as each walk starts — a
// full-store dump (the memcached `lru_crawler metadump`/cachedump shape)
// served by one streamed walk per map instead of one map descent per
// key. The root map streams first, then tenants in name order, each in
// ascending key-PLID order; fn returning false stops the scan.
func (s *HicampServer) Scan(fn func(key, value []byte) bool) error {
	stopped := false
	for _, mp := range s.allMaps() {
		if err := mp.BytesScan(func(key, value []byte) bool {
			if !fn(key, value) {
				stopped = true
				return false
			}
			return true
		}); err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// Keys returns every key in the store — root map first, then tenants in
// name order, each from one snapshot in ascending key-PLID order — via
// one streamed walk per map plus one bulk materialization.
func (s *HicampServer) Keys() ([][]byte, error) {
	var keys []hds.String
	for _, mp := range s.allMaps() {
		err := mp.ForEach(func(key, val hds.String) bool {
			key.Retain(s.Heap)
			keys = append(keys, key)
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	out := hds.BytesMany(s.Heap, keys)
	for i := range keys {
		keys[i].Release(s.Heap)
	}
	return out, nil
}

// Map exposes the underlying key-value map.
func (s *HicampServer) Map() *hds.Map { return s.kvp }

// Stats returns the machine's memory-system counters.
func (s *HicampServer) Stats() core.Stats { return s.Heap.M.Stats() }

// MapStats returns the segment map's conflict telemetry: per-VSID
// commit/conflict/denial/abort counters plus the aggregate totals.
func (s *HicampServer) MapStats() segmap.Snapshot { return s.Heap.SM.Snapshot() }

// PoolStats returns the scratch-pool telemetry of every registered
// bucketed pool (wave-engine scratch, store batch buffers, dedup maps):
// per-pool and per-bin hit/miss/oversize/return counters. The registry
// is process-global — pools are package-level — so the numbers cover
// all machines in the process, not just this server's.
func (s *HicampServer) PoolStats() []pool.PoolStats { return pool.Snapshot() }

func (s *HicampServer) String() string {
	return fmt.Sprintf("kvstore.HicampServer(lines=%d)", s.Heap.M.LiveLines())
}
