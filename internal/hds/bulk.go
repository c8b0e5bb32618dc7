package hds

import (
	"repro/internal/iterreg"
	"repro/internal/pool"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// Pair is one key/value binding for bulk map loading. A Pair with Delete
// set is a tombstone: Apply unbinds the key in the same wave commit that
// binds its siblings, so a mixed set/delete batch still publishes as one
// version.
type Pair struct {
	Key, Value []byte
	Delete     bool
}

// Item is one numeric-key binding for bulk ordered loading.
type Item struct {
	Key   uint64
	Value []byte
}

// NewStrings builds many strings through one segment.Builder, so repeated
// strings and shared prefixes hit the builder's memo instead of issuing
// per-line store lookups. The caller owns one reference per string.
func NewStrings(h *Heap, bss [][]byte) []String {
	b := segment.NewBuilder(h.M, 0)
	defer b.Close()
	out := make([]String, len(bss))
	for i, bs := range bss {
		out[i] = String{Seg: b.BuildBytes(bs), Len: uint64(len(bs))}
	}
	return out
}

// GetMany returns the values bound to the given keys in one consistent
// snapshot — the read-side counterpart of Apply and the shape of a
// memcached multi-get. All slot words are resolved through one
// level-order gather (segment.GatherWords), so the map DAG's root path
// and the interior nodes shared between slots are fetched once per wave
// instead of once per key. Results are positional; each found value is
// retained for the caller (release with Release).
func (mp *Map) GetMany(keys []String) ([]String, []bool) {
	if len(keys) == 0 {
		return nil, nil
	}
	snap, err := iterreg.Open(mp.h.M, mp.h.SM, segmap.ReadOnlyRef(mp.vsid))
	if err != nil {
		return make([]String, len(keys)), make([]bool, len(keys))
	}
	defer snap.Close()
	return mp.GetManyAt(snap.Seg(), keys)
}

// GetManyAt is GetMany against a caller-pinned snapshot seg (from
// Snapshot or SnapshotEntry) — the network front end's gets/mget path,
// where one pinned root must serve both the gather and a later
// CompareApply against the same version. Results are positional; found
// values are retained for the caller (the snapshot must still be pinned
// at call time, but the values outlive its release).
func (mp *Map) GetManyAt(seg segment.Seg, keys []String) ([]String, []bool) {
	return mp.GetManyAtInto(seg, keys, make([]String, 0, len(keys)), make([]bool, 0, len(keys)))
}

// BytesMany materializes many strings through one level-order bulk read:
// lines shared across strings — deduplicated fragments, repeated values —
// are fetched once per wave instead of once per string. Results are
// positional.
func BytesMany(h *Heap, ss []String) [][]byte {
	rs := make([]segment.Range, len(ss))
	for i, s := range ss {
		rs[i] = segment.Range{Seg: s.Seg, N: (s.Len + 7) / 8}
	}
	words := segment.GatherRanges(h.M, rs)
	out := make([][]byte, len(ss))
	for i, s := range ss {
		b := make([]byte, s.Len)
		for j := uint64(0); j < s.Len; j++ {
			b[j] = byte(words[i][j/8] >> (8 * (j % 8)))
		}
		out[i] = b
	}
	return out
}

// poolRanges, poolIdxs and poolTags back the Into-variants' per-call
// gather scratch.
var (
	poolRanges = pool.NewSlice[segment.Range]("hds.ranges")
	poolIdxs   = pool.NewSlice[uint64]("hds.idxs")
	poolTags   = pool.NewSlice[word.Tag]("hds.tags")
)

// NewStringsInto is NewStrings appending into out, which is reused
// across calls (the caller keeps ownership of one reference per string,
// exactly as NewStrings).
func NewStringsInto(h *Heap, bss [][]byte, out []String) []String {
	b := segment.NewBuilder(h.M, 0)
	defer b.Close()
	out = out[:0]
	for _, bs := range bss {
		out = append(out, String{Seg: b.BuildBytes(bs), Len: uint64(len(bs))})
	}
	return out
}

// GetManyAtInto is GetManyAt appending into caller-retained result
// slices with every gather buffer pooled — the aggregation loop's
// steady-state-zero-allocation read. Found values are retained exactly
// as in GetManyAt.
func (mp *Map) GetManyAtInto(seg segment.Seg, keys []String, vals []String, found []bool) ([]String, []bool) {
	vals, found = vals[:0], found[:0]
	if len(keys) == 0 {
		return vals, found
	}
	var sc pool.Scratch
	defer sc.Release()
	idxs := poolIdxs.Get(&sc, 2*len(keys))
	for i, k := range keys {
		slot := slotFor(k)
		idxs[2*i] = slot + slotValue
		idxs[2*i+1] = slot + slotValLen
	}
	ws := poolIdxs.Get(&sc, len(idxs))
	ts := poolTags.Get(&sc, len(idxs))
	segment.GatherWordsInto(mp.h.M, seg, idxs, ws, ts)
	for i := range keys {
		lenPlus := ws[2*i+1]
		if lenPlus == 0 || (ws[2*i] != 0 && ts[2*i] != word.TagPLID) {
			vals, found = append(vals, String{}), append(found, false)
			continue
		}
		n := lenPlus - 1
		val := String{Seg: segment.Seg{Root: word.PLID(ws[2*i]), Height: heightForBytes(mp.h, n)}, Len: n}
		val.Retain(mp.h) // under the snapshot, which pins the value
		vals, found = append(vals, val), append(found, true)
	}
	return vals, found
}

// BytesManyInto is BytesMany materializing into caller storage: every
// value is carved out of flat (grown once if needed) and the positional
// subslices are appended into out — so a steady-state caller that keeps
// both slices across calls pays zero per-value allocations. The returned
// flat slice must be retained by the caller for reuse; the out entries
// alias it and stay valid until the next call that overwrites flat.
func BytesManyInto(h *Heap, ss []String, flat []byte, out [][]byte) ([][]byte, []byte) {
	var sc pool.Scratch
	defer sc.Release()
	rs := poolRanges.Get(&sc, len(ss))
	total := uint64(0)
	for i, s := range ss {
		rs[i] = segment.Range{Seg: s.Seg, N: (s.Len + 7) / 8}
		total += s.Len
	}
	words := segment.GatherRanges(h.M, rs)
	flat = flat[:0]
	if uint64(cap(flat)) < total {
		flat = make([]byte, 0, total)
	}
	out = out[:0]
	for i, s := range ss {
		start := len(flat)
		for j := uint64(0); j < s.Len; j++ {
			flat = append(flat, byte(words[i][j/8]>>(8*(j%8))))
		}
		out = append(out, flat[start:len(flat):len(flat)])
	}
	return out, flat
}

// Bulk mutation is Apply (apply.go) with the default options.
