package kvstore

import (
	"bytes"
	"sort"
	"sync"

	"repro/internal/hds"
	"repro/internal/segmap"
	"repro/internal/word"
)

// Sharded VSID namespaces: multi-tenant isolation by key prefix.
//
// A key of the form "tenant/rest" routes to the tenant's own hds.Map —
// its own VSID in the virtual segment map — while bare keys stay on the
// server's root map. Because a VSID is the unit of atomic publish, this
// gives each tenant an independent commit/conflict domain: one tenant's
// write bursts never force another tenant's merge-rebases, snapshot
// pins (mget, gets tokens) are per-tenant, and the per-VSID conflict
// telemetry from segmap.Snapshot breaks down contention by tenant for
// free. Lines still dedup across tenants — content-addressing is global
// to the heap — so isolation costs no footprint.

// NamespaceSep splits the tenant prefix from the rest of the key.
const NamespaceSep = '/'

// DefaultMaxNamespaces bounds how many tenant maps a server creates on
// demand; keys for tenants beyond the bound fall back to the root map
// (still correct, just not isolated) instead of letting an adversarial
// key stream allocate unbounded VSIDs.
const DefaultMaxNamespaces = 64

// SplitNamespace returns the tenant prefix of key, or "" for bare keys.
// The full key (prefix included) is what gets stored, so a dump or scan
// needs no re-prefixing.
func SplitNamespace(key []byte) string {
	if i := bytes.IndexByte(key, NamespaceSep); i > 0 {
		return string(key[:i])
	}
	return ""
}

// namespaces is the server's tenant-map registry.
type namespaces struct {
	mu  sync.RWMutex
	m   map[string]*hds.Map
	max int
}

// Namespace returns the map serving the named tenant, creating it on
// demand; "" names the root map. Beyond the bound, unknown tenants share
// the root map.
func (s *HicampServer) Namespace(name string) *hds.Map {
	if name == "" {
		return s.kvp
	}
	s.ns.mu.RLock()
	mp := s.ns.m[name]
	s.ns.mu.RUnlock()
	if mp != nil {
		return mp
	}
	s.ns.mu.Lock()
	defer s.ns.mu.Unlock()
	if mp := s.ns.m[name]; mp != nil {
		return mp
	}
	max := s.ns.max
	if max == 0 {
		max = DefaultMaxNamespaces
	}
	if len(s.ns.m) >= max {
		return s.kvp
	}
	if s.ns.m == nil {
		s.ns.m = make(map[string]*hds.Map)
	}
	mp = s.openOrBind(labelNS + name)
	s.ns.m[name] = mp
	return mp
}

// NamespaceFor routes a key to its tenant's map (root map for bare keys).
func (s *HicampServer) NamespaceFor(key []byte) *hds.Map {
	return s.Namespace(SplitNamespace(key))
}

// NamespaceInfo is one tenant's identity and conflict telemetry.
type NamespaceInfo struct {
	Name  string
	VSID  word.VSID
	Stats segmap.VSIDStats
}

// NamespaceStats lists every namespace (root first as "", then tenants
// in name order) joined with its per-VSID commit/conflict counters —
// the per-tenant contention breakdown the stats command surfaces.
func (s *HicampServer) NamespaceStats() []NamespaceInfo {
	snap := s.Heap.SM.Snapshot()
	s.ns.mu.RLock()
	out := make([]NamespaceInfo, 0, len(s.ns.m)+1)
	out = append(out, NamespaceInfo{Name: "", VSID: s.kvp.VSID(), Stats: snap.PerVSID[s.kvp.VSID()]})
	for name, mp := range s.ns.m {
		out = append(out, NamespaceInfo{Name: name, VSID: mp.VSID(), Stats: snap.PerVSID[mp.VSID()]})
	}
	s.ns.mu.RUnlock()
	sort.Slice(out[1:], func(i, j int) bool { return out[1+i].Name < out[1+j].Name })
	return out
}

// A Window (batch.go) routes a positional Batch by tenant through
// NamespaceFor; no other package routes keys.
