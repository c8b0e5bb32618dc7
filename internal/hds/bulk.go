package hds

import (
	"encoding/binary"

	"repro/internal/pool"
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

// poolRanges, poolIdxs and poolTags back the Into-variants' per-call
// gather scratch; poolBytes and poolSegs a build wave's strings and roots.
var (
	poolRanges = pool.NewSlice[segment.Range]("hds.ranges")
	poolIdxs   = pool.NewSlice[uint64]("hds.idxs")
	poolTags   = pool.NewSlice[word.Tag]("hds.tags")
	poolBytes  = pool.NewSlice[[]byte]("hds.bytes", pool.WithClearOnPut())
	poolSegs   = pool.NewSlice[segment.Seg]("hds.segs")
)

// NewStringsInto builds many strings in build waves
// (segment.BuildBytesMany), appending into out, which is reused across
// calls. The caller owns one reference per string.
func NewStringsInto(h *Heap, bss [][]byte, out []String) []String {
	return newStringsInto(h.M, bss, out)
}

func newStringsInto(m word.Mem, bss [][]byte, out []String) []String {
	var sc pool.Scratch
	defer sc.Release()
	segs := poolSegs.Get(&sc, len(bss))
	segment.BuildBytesMany(m, bss, segs)
	out = out[:0]
	for i, bs := range bss {
		out = append(out, String{Seg: segs[i], Len: uint64(len(bs))})
	}
	return out
}

// GetManyAtInto returns the values bound to keys in seg, a snapshot the
// caller pinned (SnapshotEntry), appending into caller-retained result
// slices with every gather buffer pooled. All slot words resolve through
// one level-order gather, so the map DAG's root path and the interior
// lines shared between slots are fetched once per wave instead of once
// per key. Results are positional; each found value is retained for the
// caller (the snapshot must still be pinned at call time, but the values
// outlive its release).
func (mp *Map) GetManyAtInto(seg segment.Seg, keys []String, vals []String, found []bool) ([]String, []bool) {
	return mp.getManyAtInto(mp.h.M, seg, keys, vals, found)
}

func (mp *Map) getManyAtInto(m word.Mem, seg segment.Seg, keys []String, vals []String, found []bool) ([]String, []bool) {
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
	segment.GatherWordsInto(m, seg, idxs, ws, ts)
	for i := range keys {
		lenPlus := ws[2*i+1]
		if lenPlus == 0 || (ws[2*i] != 0 && ts[2*i] != word.TagPLID) {
			vals, found = append(vals, String{}), append(found, false)
			continue
		}
		n := lenPlus - 1
		val := String{Seg: segment.Seg{Root: word.PLID(ws[2*i]), Height: heightForBytes(mp.h, n)}, Len: n}
		segment.RetainSeg(m, val.Seg) // under the snapshot, which pins the value
		vals, found = append(vals, val), append(found, true)
	}
	return vals, found
}

// ReadBuf is GetBytesAtInto's reusable scratch and result. Vals and
// Found are positional; Vals alias the buffer's storage and stay valid
// until its next read. Strs holds the values' strings, which only the
// snapshot the read ran against pins.
type ReadBuf struct {
	Vals  [][]byte
	Found []bool
	Strs  []String
	ks    []String
	flat  []byte
}

// GetBytesAtInto is the map's read: it builds keys, gathers their slots
// in seg (a snapshot the caller pinned), retains and materializes the
// values they bind, and releases keys and values, all in one netting
// scope (core.Scope). Per key, those four ownership hand-offs net to
// zero, so they cost no RC-line traffic: only the caller's snapshot pin
// does (§3.1). A caller that keeps r across calls reads with no per-key
// allocation.
func (mp *Map) GetBytesAtInto(seg segment.Seg, keys [][]byte, r *ReadBuf) {
	sc := mp.h.M.Scope()
	defer sc.Close()
	r.ks = newStringsInto(sc, keys, r.ks)
	r.Strs, r.Found = mp.getManyAtInto(sc, seg, r.ks, r.Strs, r.Found)
	for _, k := range r.ks {
		segment.ReleaseSeg(sc, k.Seg)
	}
	r.Vals, r.flat = BytesManyInto(mp.h, r.Strs, r.flat, r.Vals)
	for i, ok := range r.Found {
		if ok {
			segment.ReleaseSeg(sc, r.Strs[i].Seg)
		}
	}
}

// HasBytesAtInto reports which keys are bound in seg, a snapshot the
// caller pinned, into r.Found (positional; r's other results are left as
// they were). It builds the keys and gathers each slot's length word
// only, in one netting scope: no value line is read, retained or
// materialized, so a probe costs what the map's slot paths cost,
// whatever the values' sizes.
func (mp *Map) HasBytesAtInto(seg segment.Seg, keys [][]byte, r *ReadBuf) {
	r.Found = r.Found[:0]
	if len(keys) == 0 {
		return
	}
	sc := mp.h.M.Scope()
	defer sc.Close()
	r.ks = newStringsInto(sc, keys, r.ks)
	var ps pool.Scratch
	defer ps.Release()
	idxs := poolIdxs.Get(&ps, len(keys))
	for i, k := range r.ks {
		idxs[i] = slotFor(k) + slotValLen
	}
	ws := poolIdxs.Get(&ps, len(keys))
	ts := poolTags.Get(&ps, len(keys))
	segment.GatherWordsInto(sc, seg, idxs, ws, ts)
	for i, k := range r.ks {
		r.Found = append(r.Found, ws[i] != 0)
		segment.ReleaseSeg(sc, k.Seg)
	}
}

// BytesManyInto materializes many strings through one level-order bulk
// read — lines shared across strings (deduplicated fragments, repeated
// values) are fetched once per wave instead of once per string — into
// caller storage: every value is carved out of flat (grown once if needed) and the positional
// subslices are appended into out — so a steady-state caller that keeps
// both slices across calls pays zero per-value allocations. The returned
// flat slice must be retained by the caller for reuse; the out entries
// alias it and stay valid until the next call that overwrites flat.
func BytesManyInto(h *Heap, ss []String, flat []byte, out [][]byte) ([][]byte, []byte) {
	var sc pool.Scratch
	defer sc.Release()
	rs := poolRanges.Get(&sc, len(ss))
	words, total := uint64(0), uint64(0)
	for i, s := range ss {
		rs[i] = segment.Range{Seg: s.Seg, N: (s.Len + 7) / 8}
		words += rs[i].N
		total += s.Len
	}
	ws := poolIdxs.Get(&sc, int(words))
	segment.GatherRanges(h.M, rs, ws)
	if uint64(cap(flat)) < total {
		flat = make([]byte, total)
	}
	flat = flat[:total]
	out = out[:0]
	start := uint64(0)
	for _, s := range ss {
		b := flat[start : start+s.Len : start+s.Len]
		for len(b) >= 8 {
			binary.LittleEndian.PutUint64(b, ws[0])
			b, ws = b[8:], ws[1:]
		}
		for j := range b {
			b[j] = byte(ws[0] >> (8 * j))
		}
		ws = ws[min(len(b), 1):]
		out = append(out, flat[start:start+s.Len:start+s.Len])
		start += s.Len
	}
	return out, flat
}

// Bulk mutation is Apply (apply.go) with the default options.
