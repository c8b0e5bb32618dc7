package kvstore

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/hds"
	"repro/internal/merge"
	"repro/internal/segment"
)

// CAS tokens. A memcached cas token names the version of a value a
// client read with gets; the client's later cas succeeds only against
// that version. HICAMP's natural version name is the map snapshot root
// the read was served from, so the token registry is a bounded table of
// pinned snapshots: a pinned read (Window.Read) registers each
// namespace's (map, root, size) under a 64-bit token, and the token
// rides every key read from that version (one pin serves the whole
// window, however many connections it aggregated). A later Cas resolves
// its token back to the pinned root and publishes through
// Map.CompareApply — the merge-rebase CAS — against exactly the version
// the client saw.
//
// The table is bounded (maxTokens) and deduplicated: registering a
// (map, root) that already has a live pin reuses that pin's token and
// refreshes its LRU position instead of consuming a new slot, so
// sustained read traffic against an unchanged version holds ONE entry —
// the table only churns as fast as *distinct* snapshot roots are
// published. A client's gets→cas round trip therefore loses its pin only
// if maxTokens distinct versions were registered in between (a
// write-heavy storm), not merely maxTokens read requests. That residual
// failure mode is answered conservatively: a cas whose token was
// evicted is indistinguishable from a stale one and gets ErrExists,
// exactly like a memcached cas that lost the item. Each pin holds one
// snapshot reference: the cost is deferred line reclamation, not copies.

// maxTokens bounds the registry's pins.
const maxTokens = 4096

// version names a pinned snapshot for dedup: same map, same root PLID
// and height ⇒ same content ⇒ same version.
type version struct {
	mp  *hds.Map
	seg segment.Seg
}

// tokenPin is one registered snapshot. The registry owns one reference
// on seg until eviction.
type tokenPin struct {
	version
	tok, size uint64
}

type tokenRegistry struct {
	h     *hds.Heap
	mu    sync.Mutex
	m     map[uint64]*list.Element // token → element holding tokenPin
	byVer map[version]uint64       // live token per version
	lru   *list.List               // front = coldest, back = hottest
	next  uint64                   // token counter; 0 is never issued
	cap   int
}

func newTokenRegistry(h *hds.Heap, cap int) *tokenRegistry {
	return &tokenRegistry{h: h, m: map[uint64]*list.Element{}, byVer: map[version]uint64{}, lru: list.New(), cap: cap}
}

// Register takes ownership of the caller's reference on seg and returns
// a token naming the (mp, seg) snapshot. If that snapshot is already
// pinned, its live token is reused (the caller's duplicate reference is
// released) and the pin moves to the hot end of the LRU; otherwise a
// fresh pin is created and, past the cap, the coldest pin is evicted.
func (r *tokenRegistry) Register(mp *hds.Map, seg segment.Seg, size uint64) uint64 {
	v := version{mp, seg}
	r.mu.Lock()
	if tok, ok := r.byVer[v]; ok {
		r.lru.MoveToBack(r.m[tok])
		r.mu.Unlock()
		segment.ReleaseSeg(r.h.M, seg) // the pin already holds one
		return tok
	}
	r.next++
	tok := r.next
	r.m[tok] = r.lru.PushBack(tokenPin{version: v, tok: tok, size: size})
	r.byVer[v] = tok
	var evict tokenPin
	if r.lru.Len() > r.cap {
		evict = r.lru.Remove(r.lru.Front()).(tokenPin)
		delete(r.m, evict.tok)
		delete(r.byVer, evict.version)
	}
	r.mu.Unlock()
	segment.ReleaseSeg(r.h.M, evict.seg) // a zero seg releases nothing
	return tok
}

// Acquire resolves tok to its pin with an extra reference on the
// snapshot for the caller (release with segment.ReleaseSeg), so a
// concurrent eviction cannot pull the root out from under a cas in
// flight.
func (r *tokenRegistry) Acquire(tok uint64) (tokenPin, bool) {
	r.mu.Lock()
	el, ok := r.m[tok]
	if !ok {
		r.mu.Unlock()
		return tokenPin{}, false
	}
	p := el.Value.(tokenPin)
	segment.RetainSeg(r.h.M, p.seg)
	r.mu.Unlock()
	return p, true
}

// ReleaseTokens releases every cas token's pinned snapshot; a Cas on
// any of them answers ErrExists from then on. A front end calls it when
// it stops serving.
func (s *HicampServer) ReleaseTokens() { s.toks.close() }

// close releases every pinned snapshot.
func (r *tokenRegistry) close() {
	r.mu.Lock()
	lru := r.lru
	r.m, r.byVer, r.lru = map[uint64]*list.Element{}, map[version]uint64{}, list.New()
	r.mu.Unlock()
	for el := lru.Front(); el != nil; el = el.Next() {
		segment.ReleaseSeg(r.h.M, el.Value.(tokenPin).seg)
	}
}

// Cas answers for a cas with the wrong key or version.
var (
	// ErrNotFound: the key is not bound.
	ErrNotFound = errors.New("kvstore: cas key not found")
	// ErrExists: the version tok named is gone (evicted, foreign or
	// released), the key's binding moved since it, or a concurrent
	// write to the key won the merge.
	ErrExists = errors.New("kvstore: cas key changed")
)

// Cas binds key to value if key has not changed since the version tok
// names: the compare-and-swap through the merge-rebase publish. The
// pinned snapshot becomes Map.CompareApply's base, so a stale token
// whose staleness is only *disjoint* concurrent writes rebases and
// stores, and only a write to the same key answers ErrExists. That
// same-key check is made here, on the key's bound value, before the
// merge: the merge absorbs a concurrent write of the identical payload,
// so two clients cas-ing the same bytes on one version would otherwise
// both store. Content-unique versions cannot tell A→B→A from no write
// at all, so a key written away and back between gets and cas still
// stores. A stored cas returns after its durability wait.
func (s *HicampServer) Cas(key, value []byte, tok uint64) error {
	mp := s.NamespaceFor(key)
	pin, err := s.casPin(mp, key, tok)
	if err != nil {
		return err
	}
	pairs := [1]hds.Pair{{Key: key, Value: value}}
	err = mp.CompareApply(pin.seg, pin.size, pairs[:], hds.ApplyOptions{})
	segment.ReleaseSeg(s.Heap.M, pin.seg)
	if errors.Is(err, merge.ErrConflict) {
		return ErrExists
	}
	if err != nil {
		return err
	}
	return s.AckDurable()
}

// casPin acquires the snapshot tok names if key is bound in mp, the
// snapshot is mp's and key's binding has not moved since it. The
// request-local key string is built, probed and released in one netting
// scope; the token pin stays on the Machine, outside it.
func (s *HicampServer) casPin(mp *hds.Map, key []byte, tok uint64) (tokenPin, error) {
	sc := s.Heap.M.Scope()
	defer sc.Close()
	k := hds.String{Seg: segment.BuildBytes(sc, key), Len: uint64(len(key))}
	defer segment.ReleaseSeg(sc, k.Seg)
	if !mp.Has(k) { // non-retaining probe: Get would hand us a value reference to release
		return tokenPin{}, ErrNotFound
	}
	pin, ok := s.toks.Acquire(tok)
	if !ok {
		return pin, ErrExists
	}
	if pin.mp != mp || mp.ChangedSince(pin.seg, k) {
		segment.ReleaseSeg(s.Heap.M, pin.seg)
		return pin, ErrExists
	}
	return pin, nil
}
