package kvstore

import (
	"sort"
	"sync"

	"repro/internal/chunker"
	"repro/internal/hds"
)

// Blob layer: content-defined chunked values.
//
// The string map stores a value as one aligned segment, so dedup works
// only between values whose shared content lands on the same line
// offsets — a one-byte insertion re-canonicalizes everything after it.
// Blobs instead ingest through internal/chunker: the value is cut at
// content-defined boundaries, each chunk is its own sub-DAG, and the
// map binds the chunk-index segment. Near-duplicate values then share
// every unchanged chunk (across keys, namespaces and tenants — lines
// are global), and re-ingesting an edited value resolves unchanged
// chunks from the warm chunk→PLID memo with one reference-count touch
// each.
//
// Blobs live in their own per-namespace maps (own VSIDs), so blob keys
// never collide with string keys and each tenant keeps an independent
// commit/conflict domain, mirroring namespace.go. The index segment is
// bound as an ordinary map value (the index IS a string of words), so
// snapshot isolation, cas and merge-update all apply unchanged.

// blobMaps is the per-tenant blob-map registry plus the server's shared
// ingestor. One Ingestor serves all namespaces — chunks dedup globally,
// so a shared memo is strictly warmer than per-tenant ones — guarded by
// a mutex because neither the Ingestor nor its Builder is
// goroutine-safe.
type blobMaps struct {
	mu   sync.RWMutex
	root *hds.Map
	m    map[string]*hds.Map

	ingMu sync.Mutex
	ing   *chunker.Ingestor
}

// blobNamespace returns the blob map serving the named tenant, creating
// it on demand; "" names the root blob map. The tenant bound is shared
// with the string-map registry: beyond it, unknown tenants fall back to
// the root blob map.
func (s *HicampServer) blobNamespace(name string) *hds.Map {
	b := &s.blobs
	b.mu.RLock()
	mp := b.root
	if name != "" {
		mp = b.m[name]
	}
	b.mu.RUnlock()
	if mp != nil {
		return mp
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.root == nil {
		b.root = s.openOrBind(labelBlob)
	}
	if name == "" {
		return b.root
	}
	if mp := b.m[name]; mp != nil {
		return mp
	}
	max := s.ns.max
	if max == 0 {
		max = DefaultMaxNamespaces
	}
	if len(b.m) >= max {
		return b.root
	}
	if b.m == nil {
		b.m = make(map[string]*hds.Map)
	}
	mp = s.openOrBind(labelBlob + name)
	b.m[name] = mp
	return mp
}

// ingestor hands out the shared chunked-ingest pipeline; callers hold
// ingMu across use.
func (s *HicampServer) ingestor() *chunker.Ingestor {
	if s.blobs.ing == nil {
		s.blobs.ing = chunker.NewIngestor(s.Heap.M, chunker.Config{})
	}
	return s.blobs.ing
}

// BlobStat returns the stored blob's shape (content length, chunk
// count) without materializing its bytes — the index header is two
// words, so this touches O(log) lines.
func (s *HicampServer) BlobStat(key []byte) (chunker.Blob, bool) {
	k := hds.NewString(s.Heap, key)
	defer k.Release(s.Heap)
	v, ok := s.blobNamespace(SplitNamespace(key)).Get(k)
	if !ok {
		return chunker.Blob{}, false
	}
	defer v.Release(s.Heap)
	return chunker.BlobFromSeg(s.Heap.M, v.Seg)
}

// BlobIngestStats returns the shared ingestor's memo/build telemetry.
func (s *HicampServer) BlobIngestStats() chunker.IngestStats {
	s.blobs.ingMu.Lock()
	defer s.blobs.ingMu.Unlock()
	if s.blobs.ing == nil {
		return chunker.IngestStats{}
	}
	return s.blobs.ing.Stats()
}

// BlobNamespaces lists the tenants holding blob maps, in name order
// (telemetry; mirrors NamespaceStats' shape).
func (s *HicampServer) BlobNamespaces() []string {
	s.blobs.mu.RLock()
	out := make([]string, 0, len(s.blobs.m))
	for name := range s.blobs.m {
		out = append(out, name)
	}
	s.blobs.mu.RUnlock()
	sort.Strings(out)
	return out
}
