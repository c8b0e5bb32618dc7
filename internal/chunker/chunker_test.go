package chunker

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/word"
)

// mkdoc generates a deterministic text-like document: sentences drawn
// from a small vocabulary so lines repeat (the regime HICAMP dedup is
// built for) but with enough entropy that chunk boundaries are spread
// realistically.
func mkdoc(seed int64, n int) []byte {
	words := []string{
		"line", "content", "dedup", "segment", "canonical", "wave",
		"snapshot", "merge", "iterator", "refcount", "chunk", "memo",
	}
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	for b.Len() < n {
		k := 4 + rng.Intn(8)
		for i := 0; i < k; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[rng.Intn(len(words))])
		}
		b.WriteString(".\n")
	}
	return b.Bytes()[:n]
}

func insertAt(doc []byte, off int, ins []byte) []byte {
	out := make([]byte, 0, len(doc)+len(ins))
	out = append(out, doc[:off]...)
	out = append(out, ins...)
	return append(out, doc[off:]...)
}

// cutpoints returns the chunk end offsets of data under cfg.
func cutpoints(cfg Config, data []byte) []int {
	var cuts []int
	off := 0
	cfg.Split(data, func(c []byte) bool {
		off += len(c)
		cuts = append(cuts, off)
		return true
	})
	return cuts
}

func TestCutBounds(t *testing.T) {
	cfgs := []Config{
		{},
		{MinSize: 64, AvgSize: 256, MaxSize: 1024},
		{MinSize: 100, AvgSize: 300, MaxSize: 500},
		{MinSize: 1, AvgSize: 1, MaxSize: 1}, // degenerate, must still terminate
	}
	for ci, raw := range cfgs {
		cfg, _, _ := raw.norm()
		data := mkdoc(int64(ci+1), 96<<10)
		var reassembled []byte
		nchunks := 0
		cfg.Split(data, func(c []byte) bool {
			nchunks++
			if len(c) > cfg.MaxSize {
				t.Fatalf("cfg %d: chunk of %d bytes exceeds MaxSize %d", ci, len(c), cfg.MaxSize)
			}
			reassembled = append(reassembled, c...)
			if len(reassembled) < len(data) && len(c) < cfg.MinSize {
				t.Fatalf("cfg %d: non-final chunk of %d bytes under MinSize %d", ci, len(c), cfg.MinSize)
			}
			return true
		})
		if !bytes.Equal(reassembled, data) {
			t.Fatalf("cfg %d: chunks do not concatenate to the input", ci)
		}
		if nchunks < 2 && cfg.MaxSize < len(data) {
			t.Fatalf("cfg %d: only %d chunks for %d bytes", ci, nchunks, len(data))
		}
	}
}

// TestCutExtentLocal pins the property everything else rests on: the cut
// position depends only on the bytes inside the returned extent, so
// changing (or removing) anything after a cutpoint cannot move it.
func TestCutExtentLocal(t *testing.T) {
	var cfg Config
	data := mkdoc(7, 64<<10)
	rng := rand.New(rand.NewSource(8))
	for off := 0; off < len(data)-DefaultMaxSize; {
		n := cfg.Cut(data[off:])
		// Same prefix, arbitrary different suffix: cut must not move.
		junk := make([]byte, 1024)
		rng.Read(junk)
		alt := append(append([]byte{}, data[off:off+n]...), junk...)
		if got := cfg.Cut(alt); got != n {
			t.Fatalf("cut at %d moved from %d to %d when the suffix changed", off, n, got)
		}
		// Truncating exactly at the cut keeps it as the final chunk.
		if got := cfg.Cut(data[off : off+n]); got != n {
			t.Fatalf("cut at %d: truncated input cut %d, want %d", off, got, n)
		}
		off += n
	}
}

// TestBoundaryStability is the shift-survival property: a single
// insertion near the front perturbs only the chunks covering the edit
// window, and the boundary stream re-synchronizes — every cutpoint past
// a bounded window reappears shifted by exactly the insertion length.
func TestBoundaryStability(t *testing.T) {
	var cfg Config
	cfgN, _, _ := cfg.norm()
	doc := mkdoc(21, 256<<10)
	ins := []byte("<!-- one inserted comment -->")
	const editOff = 5000
	edited := insertAt(doc, editOff, ins)

	orig := cutpoints(cfg, doc)
	got := cutpoints(cfg, edited)

	// The window where chunking may differ: the chunk containing the
	// edit plus re-synchronization slack. 4*MaxSize is a deliberately
	// loose pin — in practice resync happens at the next cutpoint.
	window := editOff + 4*cfgN.MaxSize
	var wantTail, gotTail []int
	for _, c := range orig {
		if c > window {
			wantTail = append(wantTail, c+len(ins))
		}
	}
	for _, c := range got {
		if c > window+len(ins) {
			gotTail = append(gotTail, c)
		}
	}
	if len(wantTail) == 0 {
		t.Fatal("test document too small to exercise resynchronization")
	}
	if len(wantTail) != len(gotTail) {
		t.Fatalf("tail cutpoint count diverged: %d vs %d", len(wantTail), len(gotTail))
	}
	for i := range wantTail {
		if wantTail[i] != gotTail[i] {
			t.Fatalf("cutpoint %d: %d != %d+%d — boundaries did not resynchronize",
				i, gotTail[i], wantTail[i]-len(ins), len(ins))
		}
	}
}

func TestIngestReadBlobRoundTrip(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	g := NewIngestor(m, Config{MinSize: 64, AvgSize: 256, MaxSize: 1024})
	defer g.Close()
	sizes := []int{0, 1, 7, 8, 63, 64, 65, 256, 1024, 5000, 40000}
	for _, n := range sizes {
		data := mkdoc(int64(n)+1, n)
		b := g.IngestBytes(data)
		if b.Len != uint64(n) {
			t.Fatalf("n=%d: blob len %d", n, b.Len)
		}
		got, ok := ReadBlob(m, b)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("n=%d: round trip failed (ok=%v, %d bytes back)", n, ok, len(got))
		}
		ReleaseBlob(m, b)
	}
	g.Close()
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines leaked after releasing all blobs", live)
	}
}

func TestIngestAllZero(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	g := NewIngestor(m, Config{})
	defer g.Close()
	data := make([]byte, 3*DefaultMaxSize+17)
	b := g.IngestBytes(data)
	got, ok := ReadBlob(m, b)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("all-zero round trip failed (ok=%v)", ok)
	}
	ReleaseBlob(m, b)
}

// TestIngestCanonical: equal content ingests to the equal index root, on
// the same machine and across independently warmed ingestors.
func TestIngestCanonical(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	data := mkdoc(3, 50<<10)
	g1 := NewIngestor(m, Config{})
	g2 := NewIngestor(m, Config{})
	defer g1.Close()
	defer g2.Close()
	b1 := g1.IngestBytes(data)
	b2 := g2.IngestBytes(data)
	b3 := g1.IngestBytes(data) // warm path must agree with its own cold path
	if b1.Index != b2.Index || b1.Index != b3.Index {
		t.Fatalf("equal content gave roots %#x / %#x / %#x", b1.Index.Root, b2.Index.Root, b3.Index.Root)
	}
	ReleaseBlob(m, b1)
	ReleaseBlob(m, b2)
	ReleaseBlob(m, b3)
}

// TestShiftedDedupFootprint is the Table-1 extension this PR exists for:
// after a 16-byte insertion, chunked ingest adds only the edit region's
// lines, while the aligned baseline re-canonicalizes everything past the
// edit. The delta footprints must differ by well over the 2x acceptance
// bar.
func TestShiftedDedupFootprint(t *testing.T) {
	doc := mkdoc(11, 256<<10)
	edited := insertAt(doc, 700, []byte("[sixteen bytes!]"))

	// Chunked: ingest both versions, count incremental unique lines.
	mc := core.NewMachine(core.TestConfig())
	g := NewIngestor(mc, Config{})
	defer g.Close()
	g.IngestBytes(doc)
	base := mc.LiveLines()
	g.IngestBytes(edited)
	chunkedDelta := mc.LiveLines() - base

	// Aligned BuildBytes baseline on a twin machine.
	ma := core.NewMachine(core.TestConfig())
	segment.BuildBytes(ma, doc)
	abase := ma.LiveLines()
	segment.BuildBytes(ma, edited)
	alignedDelta := ma.LiveLines() - abase

	if chunkedDelta*2 > alignedDelta {
		t.Fatalf("shifted ingest: chunked added %d lines, aligned %d — want >=2x win",
			chunkedDelta, alignedDelta)
	}
	t.Logf("shifted-insert footprint delta: chunked %d lines, aligned %d lines (%.1fx)",
		chunkedDelta, alignedDelta, float64(alignedDelta)/float64(chunkedDelta))
}

// TestWarmMemoReingest pins the memo's perf claim on a twin machine
// pair: re-ingesting a near-duplicate with a warm memo charges
// measurably less simulated DRAM than the same ingest on an identical
// machine with a cold memo.
func TestWarmMemoReingest(t *testing.T) {
	doc := mkdoc(13, 128<<10)
	edited := insertAt(doc, 40<<10, []byte("shifted by an inserted clause"))

	ma, mb := ampleMachine(64), ampleMachine(64)
	warm := NewIngestor(ma, Config{})
	defer warm.Close()
	warm.IngestBytes(doc)
	ma.FlushCache()

	coldPre := NewIngestor(mb, Config{})
	coldPre.IngestBytes(doc) // identical machine history, then lose the memo
	coldPre.Close()
	cold := NewIngestor(mb, Config{})
	defer cold.Close()
	mb.FlushCache()

	warmDram := dram(ma, func() { warm.IngestBytes(edited) })
	coldDram := dram(mb, func() { cold.IngestBytes(edited) })

	st := warm.Stats()
	if st.MemoHits == 0 {
		t.Fatal("warm re-ingest produced no memo hits")
	}
	if st.MemoHits+st.ChunkBuilds != st.Chunks {
		t.Fatalf("stats do not add up: %+v", st)
	}
	if warmDram >= coldDram {
		t.Fatalf("warm re-ingest charged %d DRAM accesses, cold %d — memo must be measurably cheaper",
			warmDram, coldDram)
	}
	t.Logf("near-duplicate re-ingest DRAM: warm %d, cold %d (%.2fx), memo hit rate %.0f%%",
		warmDram, coldDram, float64(coldDram)/float64(warmDram), 100*st.HitRate())
}

// TestMemoStaleRevalidation: deleting every blob that pins a chunk frees
// its lines; the ref-less memo entry must detect that via revalidation
// and rebuild rather than resurrect a dangling PLID.
func TestMemoStaleRevalidation(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	g := NewIngestor(m, Config{})
	defer g.Close()
	data := mkdoc(17, 32<<10)
	b := g.IngestBytes(data)
	ReleaseBlob(m, b)
	if live := m.LiveLines(); live != 0 {
		t.Fatalf("%d lines live after the only blob was released", live)
	}
	b2 := g.IngestBytes(data)
	st := g.Stats()
	if st.MemoStale == 0 {
		t.Fatalf("no stale memo entries detected after frees: %+v", st)
	}
	got, ok := ReadBlob(m, b2)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("rebuild after stale memo does not round-trip")
	}
	ReleaseBlob(m, b2)
}

func TestMemoDisabled(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	g := NewIngestor(m, Config{})
	defer g.Close()
	g.SetMemoLimit(0, 0)
	data := mkdoc(19, 16<<10)
	b1 := g.IngestBytes(data)
	b2 := g.IngestBytes(data)
	st := g.Stats()
	if st.MemoHits != 0 || st.MemoInserts != 0 || g.MemoSize() != 0 {
		t.Fatalf("disabled memo still active: %+v size=%d", st, g.MemoSize())
	}
	if b1.Index != b2.Index {
		t.Fatal("canonical roots diverged without the memo")
	}
	ReleaseBlob(m, b1)
	ReleaseBlob(m, b2)
}

// ampleMachine / dram: the twin-machine accounting discipline (see
// segment/write_batch_test.go) — ample LLC so capacity misses never
// perturb the comparison, flush after the measured window so deferred
// writebacks are charged.
func ampleMachine(lineBytes int) *core.Machine {
	return core.NewMachine(core.Config{
		LineBytes: lineBytes, BucketBits: 16, DataWays: 12,
		CacheLines: 1 << 15, CacheWays: 8,
	})
}

func dram(m *core.Machine, fn func()) uint64 {
	m.ResetStats()
	fn()
	m.FlushCache()
	return m.Stats().Store.Total()
}

func packLE(b []byte) []uint64 {
	ws := make([]uint64, (len(b)+7)/8)
	for i := 0; i < len(b)/8; i++ {
		ws[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	for k := len(b) / 8 * 8; k < len(b); k++ {
		ws[k/8] |= uint64(b[k]) << (8 * (k % 8))
	}
	return ws
}

// ingestSerial is the per-chunk reference replay of IngestBytes: the
// same chunking, each chunk built on its own via segment.BuildWords, the
// index likewise — the semantic and accounting baseline.
func ingestSerial(m word.Mem, cfg Config, data []byte) Blob {
	norm, _, _ := cfg.norm()
	iw := []uint64{uint64(len(data)), 0}
	it := []word.Tag{word.TagRaw, word.TagRaw}
	var roots []segment.Seg
	norm.Split(data, func(c []byte) bool {
		s := segment.BuildWords(m, packLE(c), nil)
		roots = append(roots, s)
		if s.Root != word.Zero {
			iw = append(iw, uint64(s.Root))
			it = append(it, word.TagPLID)
		} else {
			iw = append(iw, 0)
			it = append(it, word.TagRaw)
		}
		iw = append(iw, uint64(len(c)))
		it = append(it, word.TagRaw)
		return true
	})
	iw[1] = uint64(len(roots))
	idx := segment.BuildWords(m, iw, it)
	for _, s := range roots {
		segment.ReleaseSeg(m, s)
	}
	return Blob{Index: idx, Len: uint64(len(data)), Chunks: len(roots)}
}

// TestIngestAccountingPin is the twin-machine pin: chunked wave ingest
// (chunk memo disabled, so both paths do the same authoritative lookups)
// must not charge more simulated DRAM than its serial replay, and a
// third identical machine with the memo enabled must not charge more
// than the memo-disabled wave.
func TestIngestAccountingPin(t *testing.T) {
	data := mkdoc(29, 96<<10)
	ma, mb, mc := ampleMachine(64), ampleMachine(64), ampleMachine(64)

	gNoMemo := NewIngestor(ma, Config{})
	defer gNoMemo.Close()
	gNoMemo.SetMemoLimit(0, 0)
	var waveBlob Blob
	waveDram := dram(ma, func() { waveBlob = gNoMemo.IngestBytes(data) })

	var serialBlob Blob
	serialDram := dram(mb, func() { serialBlob = ingestSerial(mb, Config{}, data) })

	gMemo := NewIngestor(mc, Config{})
	defer gMemo.Close()
	memoDram := dram(mc, func() { gMemo.IngestBytes(data) })

	if waveBlob.Index != serialBlob.Index || waveBlob.Chunks != serialBlob.Chunks {
		t.Fatalf("wave %+v != serial %+v on twin machines", waveBlob, serialBlob)
	}
	if waveDram > serialDram {
		t.Fatalf("wave ingest charged %d DRAM accesses, serial replay %d — wave must not cost more",
			waveDram, serialDram)
	}
	if memoDram > waveDram {
		t.Fatalf("memo-enabled ingest charged %d DRAM accesses, memo-disabled %d — the memo must never add traffic",
			memoDram, waveDram)
	}
	t.Logf("ingest DRAM: wave %d, serial %d, wave+memo %d", waveDram, serialDram, memoDram)
}
