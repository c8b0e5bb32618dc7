package hds

import (
	"repro/internal/iterreg"
	"repro/internal/merge"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// Map is the paper's key-value map (§4.1, §4.4): a sparse array indexed
// by the content-unique root PLID of the key string. Deduplication
// guarantees each possible key content one index, so lookup needs no
// hashing, probing or key comparison — the index *is* the key identity.
// Each entry occupies four words: the value string's root PLID (a real
// protected reference: the map DAG itself keeps the value alive), the
// value's byte length, the key string's root PLID, and the key's byte
// length. Pinning the key is load-bearing: the slot index is the key's
// root PLID, so the key's lines must stay allocated while the binding
// exists or the PLID could be reused by unrelated content.
//
// The map segment is flagged merge-update, so concurrent inserts and
// deletes of different keys commit without application retries (§4.3).
type Map struct {
	h    *Heap
	vsid word.VSID
}

// NewMap allocates an empty map.
func NewMap(h *Heap) *Map {
	v := h.SM.Create(segmap.Entry{
		Seg:   segment.NewSparse(0),
		Flags: segmap.FlagMergeUpdate,
	})
	return &Map{h: h, vsid: v}
}

// OpenMap adopts an existing map object by its VSID — the durable
// restart path: recovery rebuilds the segment map at exact VSIDs, the
// persistence layer re-binds labels to them, and OpenMap wraps the
// entry without creating anything. The caller is responsible for v
// naming a live map entry.
func OpenMap(h *Heap, v word.VSID) *Map { return &Map{h: h, vsid: v} }

// VSID returns the map's object identity.
func (mp *Map) VSID() word.VSID { return mp.vsid }

// ReadOnlyVSID returns the capability to hand to untrusted readers.
func (mp *Map) ReadOnlyVSID() word.VSID { return segmap.ReadOnlyRef(mp.vsid) }

// Slot layout: four words per possible key.
const (
	slotValue  = 0 // value root PLID (TagPLID), zero for empty values
	slotValLen = 1 // value byte length + 1 (0 = key absent)
	slotKey    = 2 // key root PLID (TagPLID), pins the key string
	slotKeyLen = 3
	slotWords  = 4
)

// slotFor maps a key to its slot base index.
func slotFor(key String) uint64 { return uint64(key.Key()) * slotWords }

// Get returns the value for key in the map's current version. The
// returned string is pinned by the snapshot that found it only while
// that snapshot lives, so Get retains the value root for the caller;
// release it with Release.
func (mp *Map) Get(key String) (String, bool) {
	snap, err := iterreg.Open(mp.h.M, mp.h.SM, segmap.ReadOnlyRef(mp.vsid))
	if err != nil {
		return String{}, false
	}
	defer snap.Close()
	return getFrom(mp.h, mp.h.M, snap, key)
}

// Has reports whether key is bound in the map's current version. Unlike
// Get it hands the caller nothing to release: the probe loads only the
// slot's length word, so existence checks on hot paths (e.g. a cas
// pre-check) cost no reference traffic on the value's lines.
func (mp *Map) Has(key String) bool {
	snap, err := iterreg.Open(mp.h.M, mp.h.SM, segmap.ReadOnlyRef(mp.vsid))
	if err != nil {
		return false
	}
	defer snap.Close()
	lenPlus, _ := snap.Load(slotFor(key) + slotValLen)
	return lenPlus != 0
}

// ChangedSince reports whether key's binding — its value root PLID and
// length — in the map's current version differs from the one in orig, a
// snapshot the caller pinned earlier. A compare-and-swap needs it before
// CompareApply: the three-way merge treats a concurrent write of the very
// bytes this batch writes as already merged (cur == mod), so it cannot
// see that the key moved under orig. Versions are content-unique, so a
// key written away and back (A→B→A) reads as unchanged. Like Has it
// hands the caller nothing to release.
func (mp *Map) ChangedSince(orig segment.Seg, key String) bool {
	snap, err := iterreg.Open(mp.h.M, mp.h.SM, segmap.ReadOnlyRef(mp.vsid))
	if err != nil {
		return true
	}
	defer snap.Close()
	then := iterreg.NewSegmentIterator(mp.h.M, orig)
	defer then.Close()
	slot := slotFor(key)
	for _, w := range [...]uint64{slotValue, slotValLen} {
		cv, ct := snap.Load(slot + w)
		ov, ot := then.Load(slot + w)
		if cv != ov || ct != ot {
			return true
		}
	}
	return false
}

// GetBytesFrom returns the bytes bound to key through an already-open
// iterator (snapshot), the §4.4 client-thread pattern: reload once per
// request, then access directly. Like GetBytesAtInto it runs in one
// netting scope, so building the key, retaining the value under the
// snapshot and releasing both cost no RC-line traffic.
func GetBytesFrom(h *Heap, it *iterreg.Iterator, key []byte) ([]byte, bool) {
	sc := h.M.Scope()
	defer sc.Close()
	k := buildString(sc, key)
	defer segment.ReleaseSeg(sc, k.Seg)
	v, ok := getFrom(h, sc, it, k)
	if !ok {
		return nil, false
	}
	defer segment.ReleaseSeg(sc, v.Seg)
	return segment.ReadBytes(sc, v.Seg, 0, v.Len), true
}

// getFrom reads key's binding through it and retains the value over m.
func getFrom(h *Heap, m word.Mem, it *iterreg.Iterator, key String) (String, bool) {
	slot := slotFor(key)
	lenPlus, _ := it.Load(slot + slotValLen)
	if lenPlus == 0 {
		return String{}, false
	}
	n := lenPlus - 1
	v, tag := it.Load(slot + slotValue)
	if v != 0 && tag != word.TagPLID {
		return String{}, false // corrupt slot; impossible by construction
	}
	val := String{Seg: segment.Seg{Root: word.PLID(v), Height: heightForBytes(h, n)}, Len: n}
	segment.RetainSeg(m, val.Seg)
	return val, true
}

func heightForBytes(h *Heap, n uint64) int {
	words := (n + 7) / 8
	if words == 0 {
		words = 1
	}
	return segment.HeightFor(h.M.LineWords(), words)
}

// Set binds key to value, replacing any previous binding. Merge-update
// absorbs concurrent updates to other keys; only a same-key race causes
// an internal retry. The caller keeps ownership of key and value strings
// (the map DAG takes its own references).
func (mp *Map) Set(key, value String) error {
	sc := mp.h.M.Scope()
	defer sc.Close()
	return mp.set(sc, key, value)
}

// SetBytes builds key and value and binds them in one netting scope with
// the update, so dropping the request-local string references the map
// DAG supersedes costs no RC-line traffic.
func (mp *Map) SetBytes(key, value []byte) error {
	sc := mp.h.M.Scope()
	defer sc.Close()
	k, v := buildString(sc, key), buildString(sc, value)
	err := mp.set(sc, k, v)
	segment.ReleaseSeg(sc, k.Seg)
	segment.ReleaseSeg(sc, v.Seg)
	return err
}

func (mp *Map) set(m word.Mem, key, value String) error {
	ups := bindUpdates(make([]segment.Update, 0, slotWords), key, value)
	return retryCAS(func() (bool, error) {
		e, err := mp.h.SM.Load(mp.vsid)
		if err != nil {
			return false, err
		}
		defer segment.ReleaseSeg(m, e.Seg)
		ok, err := mp.publish(m, e, ups, ApplyOptions{})
		if err == merge.ErrConflict {
			return false, nil // same-slot race: re-execute (paper §3.4 "rare")
		}
		return ok, err
	})
}

// Delete removes key's binding: Apply of one tombstone, on a key the
// caller built. Deleting an absent key leaves the map's root as it is.
func (mp *Map) Delete(key String) error {
	sc := mp.h.M.Scope()
	defer sc.Close()
	replaced, err := mp.applyBuilt(sc, []Pair{{Delete: true}}, []String{key}, []String{{}}, ApplyOptions{})
	segment.ReleaseSeg(sc, replaced)
	return err
}

// Len counts bound keys in the current version (a full scan).
func (mp *Map) Len() uint64 {
	it, err := iterreg.Open(mp.h.M, mp.h.SM, segmap.ReadOnlyRef(mp.vsid))
	if err != nil {
		return 0
	}
	defer it.Close()
	var n uint64
	for at, ok := it.NextNonZero(0); ok; at, ok = it.NextNonZero(at - at%slotWords + slotWords) {
		// The length+1 word is the presence marker; a slot's first
		// non-zero word may be the value root or, for empty values,
		// the marker itself.
		if at%slotWords == slotValue || at%slotWords == slotValLen {
			n++
		}
	}
	return n
}

// Release drops the map object (values are reclaimed recursively by the
// hardware reference-count machinery).
func (mp *Map) Release() error { return mp.h.SM.Delete(mp.vsid) }
