package chunker

import (
	"encoding/binary"

	"repro/internal/pool"
	"repro/internal/segment"
	"repro/internal/word"
)

// Test support: the read side of a blob and the memo and splitting
// knobs. No binary reads a blob back; the round-trip tests, the fuzzer
// and the accounting pins do.

// ReleaseBlob drops the blob's index-root reference; the chunk sub-DAGs
// are released recursively by the reference-count machinery once nothing
// else points at them.
func ReleaseBlob(m word.Mem, b Blob) { segment.ReleaseSeg(m, b.Index) }

// SetMemoLimit bounds the chunk memo: at most entries associations
// holding at most byteCap key bytes. entries <= 0 disables the memo
// entirely (every chunk builds; used by the accounting-equivalence
// pins); byteCap <= 0 keeps the current byte bound.
func (g *Ingestor) SetMemoLimit(entries, byteCap int) {
	g.memoEntries = entries
	if entries <= 0 {
		g.memo = nil
		g.memoBytes = 0
	}
	if byteCap > 0 {
		g.memoByteCap = byteCap
	}
}

// MemoSize returns the number of memoized chunks (tests, telemetry).
func (g *Ingestor) MemoSize() int { return len(g.memo) }

// Split calls fn for each chunk of data in order; chunks concatenate
// exactly to data. fn returning false stops the walk. Split allocates
// nothing — fn receives subslices of data.
func (c Config) Split(data []byte, fn func(chunk []byte) bool) {
	for len(data) > 0 {
		n := c.Cut(data)
		if !fn(data[:n]) {
			return
		}
		data = data[n:]
	}
}

// ReadBlob materializes the blob's content: one gather over the index,
// then one GatherRanges wave walk across every chunk sub-DAG — lines
// shared between chunks (and between blobs resident in the same
// machine) are fetched once per wave, not once per chunk. It reports
// false when the index is not a well-formed blob (chunk lengths that do
// not sum to the header length, or a chunk root that is not a PLID
// word) — possible only for a segment that was never built by an
// Ingestor.
func ReadBlob(m word.Mem, b Blob) ([]byte, bool) {
	arity := m.LineWords()
	nw := 2 + 2*b.Chunks
	var sc pool.Scratch
	defer sc.Release()
	idxs := poolU64.Get(&sc, nw)
	for i := range idxs {
		idxs[i] = uint64(i)
	}
	vals := poolU64.Get(&sc, nw)
	tags := poolTags.Get(&sc, nw)
	segment.GatherWordsInto(m, b.Index, idxs, vals, tags)
	if vals[0] != b.Len || vals[1] != uint64(b.Chunks) {
		return nil, false
	}
	ranges := make([]segment.Range, 0, b.Chunks)
	total := uint64(0)
	for i := 0; i < b.Chunks; i++ {
		root, clen := vals[2+2*i], vals[3+2*i]
		if total+clen < total || total+clen > b.Len {
			return nil, false
		}
		if root != 0 {
			if tags[2+2*i] != word.TagPLID {
				return nil, false
			}
			words := (clen + 7) / 8
			ranges = append(ranges, segment.Range{
				Seg: segment.Seg{Root: word.PLID(root), Height: segment.HeightFor(arity, words)},
				N:   words,
			})
		}
		total += clen
	}
	if total != b.Len {
		return nil, false
	}
	out := make([]byte, b.Len)
	words := uint64(0)
	for _, r := range ranges {
		words += r.N
	}
	flat := make([]uint64, words)
	segment.GatherRanges(m, ranges, flat)
	ri := 0
	off := uint64(0)
	for i := 0; i < b.Chunks; i++ {
		root, clen := vals[2+2*i], vals[3+2*i]
		if root != 0 {
			ws := flat[:ranges[ri].N]
			flat = flat[ranges[ri].N:]
			ri++
			full := clen / 8
			for j := uint64(0); j < full; j++ {
				binary.LittleEndian.PutUint64(out[off+8*j:], ws[j])
			}
			for j := full * 8; j < clen; j++ {
				out[off+j] = byte(ws[j/8] >> (8 * (j % 8)))
			}
		}
		// An all-zero chunk reads as the zeros out already holds.
		off += clen
	}
	return out, true
}
