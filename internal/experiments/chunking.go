package experiments

import (
	"repro/internal/chunker"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/segment"
)

// Content-defined chunked ingest over shifted near-duplicate corpora —
// the workload Table 1's aligned corpora deliberately avoid. The
// aligned baseline (one BuildBytes segment per document) re-
// canonicalizes every line after an insertion, so near-duplicates of
// unpadded documents share almost nothing; chunked ingest cuts at
// content-defined boundaries, so every chunk outside the edit windows
// re-resolves to its existing sub-DAG. Two metrics per line size:
// resident unique-line footprint (aligned vs chunked, after loading
// bases + variants) and simulated DRAM per variant ingest with a cold
// vs warm chunk memo.

// ChunkingRow is one line-size row of the chunking experiment.
type ChunkingRow struct {
	LineBytes      int
	Items          int
	TotalBytes     uint64
	AlignedLines   uint64  // live lines after aligned BuildBytes of all items
	ChunkedLines   uint64  // live lines after chunked ingest of all items
	FootprintRatio float64 // aligned/chunked; >1 means chunking wins
	ColdDRAM       uint64  // simulated DRAM ingesting the variants, cold memo
	WarmDRAM       uint64  // same variants, memo warm from the bases
	DRAMRatio      float64 // cold/warm
	MemoHitRate    float64 // fraction of variant chunks served by the memo
}

// chunkingMachine: ample LLC (the accounting regime of the twin-machine
// pins) so the cold/warm comparison measures memo traffic, not cache
// capacity.
func chunkingMachine(lineBytes int) *core.Machine {
	return core.NewMachine(core.Config{
		LineBytes: lineBytes, BucketBits: 16, DataWays: 12,
		CacheLines: 1 << 15, CacheWays: 8,
	})
}

func chunkingDram(m *core.Machine, fn func()) uint64 {
	m.ResetStats()
	fn()
	m.FlushCache()
	return m.Stats().Store.Total()
}

// RunChunking loads a shifted near-duplicate corpus three ways per line
// size — aligned BuildBytes, chunked ingest, and chunked re-ingest of
// the variants against a warm memo — and reports footprint and DRAM.
func RunChunking(sc Scale) (Table, []ChunkingRow) {
	nBases, variantsPer, editsPer, mean := 8, 3, 4, 24<<10
	if sc == ScalePaper {
		nBases, variantsPer, editsPer, mean = 32, 5, 6, 48<<10
	}
	c := datagen.NearDuplicateCorpus("shifted-html", nBases, variantsPer, editsPer, mean, 211)
	items := c.AllItems()

	t := Table{
		Title: "Chunked ingest: shift-surviving dedup on near-duplicate documents",
		Note:  "aligned = one BuildBytes segment per doc; chunked = content-defined chunk DAGs; DRAM columns ingest the variants only",
		Headers: []string{"LS", "items", "MB", "aligned lines", "chunked lines", "ratio",
			"cold DRAM", "warm DRAM", "ratio", "memo hit"},
	}
	var rows []ChunkingRow
	for _, lb := range []int{16, 32, 64} {
		row := ChunkingRow{LineBytes: lb, Items: len(items), TotalBytes: c.TotalBytes()}

		// Footprint: everything resident at once, like a cache holding
		// every revision of its hot documents.
		ma := chunkingMachine(lb)
		for _, it := range items {
			segment.BuildBytes(ma, it)
		}
		row.AlignedLines = ma.LiveLines()

		mc := chunkingMachine(lb)
		g := chunker.NewIngestor(mc, chunker.Config{})
		for _, it := range c.Bases {
			g.IngestBytes(it)
		}
		mc.FlushCache()
		preStats := g.Stats()
		row.WarmDRAM = chunkingDram(mc, func() {
			for _, it := range c.Variants {
				g.IngestBytes(it)
			}
		})
		post := g.Stats()
		if vc := post.Chunks - preStats.Chunks; vc > 0 {
			row.MemoHitRate = float64(post.MemoHits-preStats.MemoHits) / float64(vc)
		}
		row.ChunkedLines = mc.LiveLines()
		g.Close()

		// Cold: identical machine history (bases ingested the same way),
		// but the variant pass starts with an empty memo.
		md := chunkingMachine(lb)
		g1 := chunker.NewIngestor(md, chunker.Config{})
		for _, it := range c.Bases {
			g1.IngestBytes(it)
		}
		g1.Close()
		g2 := chunker.NewIngestor(md, chunker.Config{})
		md.FlushCache()
		row.ColdDRAM = chunkingDram(md, func() {
			for _, it := range c.Variants {
				g2.IngestBytes(it)
			}
		})
		g2.Close()

		if row.ChunkedLines > 0 {
			row.FootprintRatio = float64(row.AlignedLines) / float64(row.ChunkedLines)
		}
		if row.WarmDRAM > 0 {
			row.DRAMRatio = float64(row.ColdDRAM) / float64(row.WarmDRAM)
		}
		rows = append(rows, row)
		t.AddRow(u(uint64(lb)), u(uint64(row.Items)), mb(row.TotalBytes),
			u(row.AlignedLines), u(row.ChunkedLines), f2(row.FootprintRatio),
			u(row.ColdDRAM), u(row.WarmDRAM), f2(row.DRAMRatio), pct(row.MemoHitRate))
	}
	return t, rows
}
