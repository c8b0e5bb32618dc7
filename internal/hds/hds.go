// Package hds provides the HICAMP programming model of paper §4 that the
// served system runs on: immutable strings and the key-value map (§4.4),
// mapped onto segments, iterator registers and merge-update. Every object
// is a segment named by a VSID; updates commit with CAS or merge-update,
// so the map is concurrency-safe by construction with snapshot-isolated
// readers.
package hds

import (
	"repro/internal/core"
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
