// Package hds provides the HICAMP programming model of paper §4: software
// data structures — strings, arrays, maps, counters and queues — mapped
// onto segments, iterator registers and merge-update. Every object is a
// segment named by a VSID; object references are VSIDs; updates commit
// with CAS or merge-update, so every structure here is concurrency-safe
// by construction with snapshot-isolated readers.
package hds

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/iterreg"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

// Heap bundles the machine and its virtual segment map: the "object
// space" applications allocate from.
type Heap struct {
	M  *core.Machine
	SM *segmap.Map
}

// NewHeap builds a heap over a fresh machine.
func NewHeap(cfg core.Config) *Heap {
	m := core.NewMachine(cfg)
	return &Heap{M: m, SM: segmap.New(m)}
}

// String is an immutable byte string stored as a segment. Because the
// representation is canonical, equal strings always have equal roots:
// comparison is O(1) ("two web pages compared in a single compare
// instruction", §2.2), and a string's root PLID is a unique key for its
// content — the property the Map type indexes on.
type String struct {
	Seg segment.Seg
	Len uint64
}

// NewString builds (or re-finds, thanks to deduplication) the string b.
// The caller owns one reference, dropped with Release.
func NewString(h *Heap, b []byte) String { return buildString(h.M, b) }

func buildString(m word.Mem, b []byte) String {
	return String{Seg: segment.BuildBytes(m, b), Len: uint64(len(b))}
}

// Bytes materializes the string's content.
func (s String) Bytes(h *Heap) []byte {
	return segment.ReadBytes(h.M, s.Seg, 0, s.Len)
}

// Equal is the O(1) content comparison.
func (s String) Equal(o String) bool { return s.Len == o.Len && s.Seg.Equal(o.Seg) }

// Key returns the content-unique key for the string (its root PLID).
func (s String) Key() word.PLID { return s.Seg.Root }

// Retain and Release manage the string's root reference.
func (s String) Retain(h *Heap)  { segment.RetainSeg(h.M, s.Seg) }
func (s String) Release(h *Heap) { segment.ReleaseSeg(h.M, s.Seg) }

// Array is a dynamically growable array of tagged words backed by one
// segment-map entry (§4.1: it extends without reallocation or copy, and
// out-of-range writes cannot corrupt neighbouring objects).
type Array struct {
	h    *Heap
	vsid word.VSID
}

// NewArray allocates an empty array.
func NewArray(h *Heap) *Array {
	v := h.SM.Create(segmap.Entry{Seg: segment.NewSparse(0)})
	return &Array{h: h, vsid: v}
}

// VSID returns the array's object identity.
func (a *Array) VSID() word.VSID { return a.vsid }

// Len returns the logical element count (highest committed Set + 1).
func (a *Array) Len() uint64 {
	e, err := a.h.SM.Load(a.vsid)
	if err != nil {
		return 0
	}
	defer segment.ReleaseSeg(a.h.M, e.Seg)
	return e.Size
}

// At reads element i of the current version.
func (a *Array) At(i uint64) uint64 {
	e, err := a.h.SM.Load(a.vsid)
	if err != nil {
		return 0
	}
	defer segment.ReleaseSeg(a.h.M, e.Seg)
	v, _ := segment.ReadWord(a.h.M, e.Seg, i)
	return v
}

// Set writes element i atomically (bounded CAS retry loop).
func (a *Array) Set(i, v uint64) error {
	return retryCAS(func() (bool, error) {
		it, err := iterreg.Open(a.h.M, a.h.SM, a.vsid)
		if err != nil {
			return false, err
		}
		it.Store(i, v, word.TagRaw)
		size := it.Size()
		if i+1 > size {
			size = i + 1
		}
		ok, err := it.TryCommit(size)
		it.Close()
		return ok, err
	})
}

// Append adds v at the end, returning its index.
func (a *Array) Append(v uint64) (uint64, error) {
	var idx uint64
	err := retryCAS(func() (bool, error) {
		it, err := iterreg.Open(a.h.M, a.h.SM, a.vsid)
		if err != nil {
			return false, err
		}
		i := it.Size()
		it.Store(i, v, word.TagRaw)
		ok, err := it.TryCommit(i + 1)
		it.Close()
		if ok {
			idx = i
		}
		return ok, err
	})
	return idx, err
}

// Snapshot returns a stable point-in-time view; callers release it.
func (a *Array) Snapshot() (segment.Seg, uint64, error) {
	e, err := a.h.SM.Load(a.vsid)
	if err != nil {
		return segment.Seg{}, 0, err
	}
	return e.Seg, e.Size, nil
}

// Release drops the array object.
func (a *Array) Release() error { return a.h.SM.Delete(a.vsid) }

func (a *Array) String() string { return fmt.Sprintf("hds.Array(vsid=%d)", a.vsid) }
