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
	"repro/internal/segmap"
)

// HicampServer is memcached on HICAMP (§4.4). Keys with a "tenant/"
// prefix route to per-tenant maps on their own VSIDs (see namespace.go);
// bare keys live on the root map.
type HicampServer struct {
	Heap *hds.Heap
	kvp  *hds.Map
	ns   namespaces

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
// The strings are built, bound and released in one netting scope
// (hds.Map.SetBytes).
func (s *HicampServer) Set(key, value []byte) error {
	if err := s.NamespaceFor(key).SetBytes(key, value); err != nil {
		return err
	}
	return s.AckDurable()
}

// GetVia returns the value for key through a caller-owned read-only
// iterator (OpenReader), the §4.4 client-thread pattern: the register is
// reloaded once per request — a private snapshot, no locking, no
// interference from concurrent sets — and the map is accessed directly,
// with zero IPC. The register is bound to the root map, so a
// tenant-prefixed key reads as a one-key Read on its namespace instead.
func (s *HicampServer) GetVia(it *iterreg.Iterator, key []byte) ([]byte, bool) {
	if SplitNamespace(key) != "" {
		b := Batch{{Key: key}}
		s.Read(b)
		return b[0].Value, b[0].Found
	}
	if err := it.Reload(); err != nil {
		return nil, false
	}
	return hds.GetBytesFrom(s.Heap, it, key)
}

// OpenReader returns a read-only iterator register bound to the map, for
// GetVia. Close it when the connection ends.
func (s *HicampServer) OpenReader() (*iterreg.Iterator, error) {
	return iterreg.Open(s.Heap.M, s.Heap.SM, s.kvp.ReadOnlyVSID())
}

// Map exposes the underlying key-value map.
func (s *HicampServer) Map() *hds.Map { return s.kvp }

// Stats returns the machine's memory-system counters.
func (s *HicampServer) Stats() core.Stats { return s.Heap.M.Stats() }

// MapStats returns the segment map's conflict telemetry: per-VSID
// commit/conflict/denial/abort counters plus the aggregate totals.
func (s *HicampServer) MapStats() segmap.Snapshot { return s.Heap.SM.Snapshot() }

func (s *HicampServer) String() string {
	return fmt.Sprintf("kvstore.HicampServer(lines=%d)", s.Heap.M.LiveLines())
}
