package chunker

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pool"
	"repro/internal/segment"
	"repro/internal/word"
)

// Blob is one ingested byte stream: a chunk-index segment whose leaf
// words reference the chunk sub-DAGs by PLID, so the whole blob is one
// canonical DAG — two blobs with equal content have equal index roots,
// and near-duplicate blobs share every unchanged chunk sub-DAG. The
// Blob owns one reference on the index root (ReleaseBlob drops it); the
// index lines own the chunk references, so chunks live exactly as long
// as some index (or other DAG) points at them.
//
// Index layout, 2 header words then 2 words per chunk:
//
//	w0            total blob length in bytes        (TagRaw)
//	w1            chunk count                       (TagRaw)
//	w{2+2i}       chunk i root PLID                 (TagPLID; raw 0 for an all-zero chunk)
//	w{3+2i}       chunk i length in bytes           (TagRaw)
type Blob struct {
	Index  segment.Seg
	Len    uint64 // total content bytes
	Chunks int
}

// IndexWords returns the logical word length of the index segment.
func (b Blob) IndexWords() uint64 { return 2 + 2*uint64(b.Chunks) }

// IndexBytes returns the index segment's logical size in bytes — the
// length a map binding stores so the blob round-trips through hds.
func (b Blob) IndexBytes() uint64 { return 8 * b.IndexWords() }

func (b Blob) String() string {
	return fmt.Sprintf("chunker.Blob(len=%d chunks=%d root=%#x)", b.Len, b.Chunks, uint64(b.Index.Root))
}

// ReleaseBlob drops the blob's index-root reference; the chunk sub-DAGs
// are released recursively by the reference-count machinery once nothing
// else points at them.
func ReleaseBlob(m word.Mem, b Blob) { segment.ReleaseSeg(m, b.Index) }

// RetainBlob acquires an extra index-root reference (e.g. when a blob is
// handed to another owner).
func RetainBlob(m word.Mem, b Blob) { segment.RetainSeg(m, b.Index) }

// memoEntry is one remembered chunk→PLID association. Entries hold NO
// references (the exact discipline of the segment.Builder memo): the
// remembered root is revalidated with one RetainIfContent against the
// remembered root-line content before every reuse, so a stale entry —
// the chunk's last referencing blob was deleted and its lines freed —
// fails revalidation and falls back to the authoritative build. A live
// root pins its whole sub-DAG (lines hold references on their PLID
// children), so a successful revalidation proves the entire chunk DAG
// is still resident.
type memoEntry struct {
	root    word.PLID
	content word.Content // root line content, the revalidation witness
	height  int32
}

// Default memo bounds: entries bound the table, bytes bound the key
// storage (keys are chunk contents, the exact-match key that makes a
// hit unconditionally safe — no hash-collision risk, no verify read).
const (
	DefaultMemoEntries = 1 << 13
	DefaultMemoBytes   = 32 << 20
)

// IngestStats describes one Ingestor's traffic.
type IngestStats struct {
	Blobs       uint64 // IngestBytes calls
	Chunks      uint64 // chunks cut across all blobs
	BytesIn     uint64 // bytes presented
	MemoHits    uint64 // chunks resolved by one revalidating RC touch
	MemoStale   uint64 // memo entries that failed revalidation
	MemoInserts uint64 // entries recorded
	ChunkBuilds uint64 // chunks canonicalized through Builder waves
	BytesBuilt  uint64 // bytes those builds covered
}

// HitRate returns the fraction of chunks served by the memo.
func (s IngestStats) HitRate() float64 {
	if s.Chunks == 0 {
		return 0
	}
	return float64(s.MemoHits) / float64(s.Chunks)
}

// Ingestor turns byte streams into Blobs through the bulk wave
// pipeline: chunk sub-DAGs and the chunk index build through one shared
// segment.Builder (level-order batch canonicalization), and a warm
// chunk→PLID memo resolves every previously-seen chunk with a single
// revalidating reference-count touch — re-ingesting a near-duplicate
// document runs Builder waves only for the edit region's chunks.
//
// An Ingestor is NOT safe for concurrent use (same rule as
// segment.Builder): give each goroutine its own, or serialize access
// (kvstore's blob layer holds one behind a mutex).
type Ingestor struct {
	m   word.Mem
	b   *segment.Builder
	cfg Config

	memo        map[string]memoEntry
	memoEntries int
	memoByteCap int
	memoBytes   int
	stats       IngestStats
}

// NewIngestor creates an ingestor over m with the given chunking
// geometry (zero-value Config selects the defaults). Call Close when
// done.
func NewIngestor(m word.Mem, cfg Config) *Ingestor {
	norm, _, _ := cfg.norm()
	return &Ingestor{
		m: m, b: segment.NewBuilder(m, 0), cfg: norm,
		memoEntries: DefaultMemoEntries, memoByteCap: DefaultMemoBytes,
	}
}

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

// Config returns the normalized chunking geometry this ingestor cuts
// with.
func (g *Ingestor) Config() Config { return g.cfg }

// Stats returns the ingest telemetry.
func (g *Ingestor) Stats() IngestStats { return g.stats }

// MemoSize returns the number of memoized chunks (tests, telemetry).
func (g *Ingestor) MemoSize() int { return len(g.memo) }

// BuilderStats exposes the shared Builder's memo telemetry.
func (g *Ingestor) BuilderStats() segment.BuilderStats { return g.b.Stats() }

// Close drops the memo (entries hold no references, so nothing is
// released) and the Builder's scratch. The Ingestor is reusable
// afterwards with a cold memo.
func (g *Ingestor) Close() {
	g.memo = nil
	g.memoBytes = 0
	g.b.Close()
}

// IngestBytes builds the canonical Blob holding data. The caller owns
// one reference on the index root (ReleaseBlob to drop). Chunks already
// known to the memo cost one revalidating RC touch each; the rest build
// through the shared Builder's waves.
func (g *Ingestor) IngestBytes(data []byte) Blob {
	var sc pool.Scratch
	defer sc.Release()
	// Upper bound on index words: every chunk is at least MinSize bytes
	// except the last, so data cuts into at most len/MinSize + 1 chunks.
	bound := 2 + 2*(len(data)/g.cfg.MinSize+1)
	iw := poolU64.GetCap(&sc, bound)
	it := poolTags.GetCap(&sc, bound)
	iw = append(iw, uint64(len(data)), 0) // header; chunk count patched below
	it = append(it, word.TagRaw, word.TagRaw)
	chunks := 0
	for off := 0; off < len(data); {
		n := g.cfg.Cut(data[off:])
		s := g.chunkSeg(data[off : off+n])
		if s.Root != word.Zero {
			iw = append(iw, uint64(s.Root))
			it = append(it, word.TagPLID)
		} else {
			iw = append(iw, 0)
			it = append(it, word.TagRaw)
		}
		iw = append(iw, uint64(n))
		it = append(it, word.TagRaw)
		chunks++
		off += n
	}
	iw[1] = uint64(chunks)
	idx := g.b.BuildWords(iw, it)
	// The index lines took their own references on every chunk root
	// during the build; drop the ingest-local ones.
	for i := 0; i < chunks; i++ {
		if it[2+2*i] == word.TagPLID {
			g.m.Release(word.PLID(iw[2+2*i]))
		}
	}
	g.stats.Blobs++
	g.stats.BytesIn += uint64(len(data))
	return Blob{Index: idx, Len: uint64(len(data)), Chunks: chunks}
}

// chunkSeg resolves one chunk to an owned sub-DAG root: a memo hit
// revalidates-and-retains the remembered root (one RC touch, no lookup
// traffic, no Builder work), a miss builds the chunk through the shared
// Builder and remembers the result. The returned segment owns one
// root reference either way.
func (g *Ingestor) chunkSeg(chunk []byte) segment.Seg {
	g.stats.Chunks++
	if g.memoEntries > 0 {
		if e, ok := g.memo[string(chunk)]; ok {
			// An all-zero chunk memoizes the architectural zero line,
			// which needs no revalidation (Zero is eternal, refcount-free).
			if e.root == word.Zero || g.m.RetainIfContent(e.root, e.content) {
				g.stats.MemoHits++
				return segment.Seg{Root: e.root, Height: int(e.height)}
			}
			g.stats.MemoStale++
			delete(g.memo, string(chunk))
			g.memoBytes -= len(chunk)
		}
	}
	g.stats.ChunkBuilds++
	g.stats.BytesBuilt += uint64(len(chunk))
	s := g.b.BuildBytes(chunk)
	g.memoAdd(chunk, s)
	return s
}

// memoAdd records chunk -> root without taking a reference. The root
// line's content is read back as the revalidation witness — right after
// the build it is LLC-resident, so the read costs a cache probe, not
// DRAM traffic. Bounds are hard stops, not evictions: a full memo keeps
// serving hits (ref-less entries never pin memory, so staying put is
// free) and simply stops learning new chunks.
func (g *Ingestor) memoAdd(chunk []byte, s segment.Seg) {
	if g.memoEntries <= 0 {
		return
	}
	if len(g.memo) >= g.memoEntries || g.memoBytes+len(chunk) > g.memoByteCap {
		return
	}
	e := memoEntry{root: s.Root, height: int32(s.Height)}
	if s.Root != word.Zero {
		e.content = g.m.ReadLine(s.Root)
	}
	if g.memo == nil {
		g.memo = make(map[string]memoEntry)
	}
	g.memo[string(chunk)] = e
	g.memoBytes += len(chunk)
	g.stats.MemoInserts++
}

// BlobFromSeg reconstructs a Blob from a stored index segment (e.g. a
// value loaded back out of an hds map) by reading the header words. It
// reports false when the header cannot describe a blob held by this
// segment (chunk count beyond the segment's capacity).
func BlobFromSeg(m word.Mem, s segment.Seg) (Blob, bool) {
	hdr := segment.ReadWordsBulk(m, s, 0, 2)
	n, chunks := hdr[0], hdr[1]
	if 2+2*chunks > s.Capacity(m.LineWords()) {
		return Blob{}, false
	}
	return Blob{Index: s, Len: n, Chunks: int(chunks)}, true
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
	nw := int(b.IndexWords())
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
	ranges := poolRanges.GetCap(&sc, b.Chunks)
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
	chunkWords := segment.GatherRanges(m, ranges)
	ri := 0
	off := uint64(0)
	for i := 0; i < b.Chunks; i++ {
		root, clen := vals[2+2*i], vals[3+2*i]
		if root != 0 {
			ws := chunkWords[ri]
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
