package chunker

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/segment"
	"repro/internal/word"
)

// Blob is one ingested byte stream: a chunk-index segment whose leaf
// words reference the chunk sub-DAGs by PLID, so the whole blob is one
// canonical DAG — two blobs with equal content have equal index roots,
// and near-duplicate blobs share every unchanged chunk sub-DAG. The
// Blob owns one reference on the index root; the index lines own the
// chunk references, so chunks live exactly as long as some index (or
// other DAG) points at them.
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

func (b Blob) String() string {
	return fmt.Sprintf("chunker.Blob(len=%d chunks=%d root=%#x)", b.Len, b.Chunks, uint64(b.Index.Root))
}

// memoEntry is one remembered chunk→PLID association. Entries hold NO
// references: the remembered root is revalidated with one
// RetainIfContent against the remembered root-line content before every
// reuse, so a stale entry — the chunk's last referencing blob was
// deleted and its lines freed — fails revalidation and falls back to the
// authoritative build. Holding no reference, the memo can check the PLID
// only by reading its line (§3.1), so each revalidation, stale or not,
// is charged an LLC data probe, a DRAM data read on a miss, and the RC
// touch of a successful retain. A live root pins its whole sub-DAG
// (lines hold references on their PLID children), so a successful
// revalidation proves the entire chunk DAG is still resident.
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
	MemoHits    uint64 // chunks resolved by one revalidating probe and retain
	MemoStale   uint64 // memo entries that failed revalidation
	MemoInserts uint64 // entries recorded
	ChunkBuilds uint64 // chunks canonicalized through segment.BuildBytes
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
// pipeline: chunk sub-DAGs and the chunk index build through
// segment.BuildWords (level-order batch canonicalization), and a warm
// chunk→PLID memo resolves every previously-seen chunk with a single
// revalidation of its root line — re-ingesting a near-duplicate document
// builds only the edit region's chunks.
//
// An Ingestor is NOT safe for concurrent use: give each goroutine its
// own, or serialize access.
type Ingestor struct {
	m   word.Mem
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
		m: m, cfg: norm,
		memoEntries: DefaultMemoEntries, memoByteCap: DefaultMemoBytes,
	}
}

// Config returns the normalized chunking geometry this ingestor cuts
// with.
func (g *Ingestor) Config() Config { return g.cfg }

// Stats returns the ingest telemetry.
func (g *Ingestor) Stats() IngestStats { return g.stats }

// Close drops the memo (entries hold no references, so nothing is
// released). The Ingestor is reusable afterwards with a cold memo.
func (g *Ingestor) Close() {
	g.memo = nil
	g.memoBytes = 0
}

// IngestBytes builds the canonical Blob holding data. The caller owns
// one reference on the index root (ReleaseBlob to drop). Chunks already
// known to the memo cost one revalidation each; the rest build through
// segment.BuildBytes.
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
	idx := segment.BuildWords(g.m, iw, it)
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
// revalidates-and-retains the remembered root (one root-line probe and
// one RC touch, no lookup traffic, no build), a miss builds the chunk
// and remembers the result. The returned segment owns one root
// reference either way.
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
	s := segment.BuildBytes(g.m, chunk)
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
