package kvstore

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/store"
)

// mutateItem returns the item's bytes at the given version: a set command
// stores a value that differs from the resident one in a small region
// (the common memcached pattern — a counter, timestamp or fragment
// changes while most of the page stays identical). HICAMP's copy-on-write
// shares the unchanged lines; the conventional server rewrites the item.
func mutateItem(item []byte, version int) []byte {
	if version == 0 {
		return item
	}
	out := make([]byte, len(item))
	copy(out, item)
	stamp := fmt.Sprintf("<!-- ver=%08d -->", version)
	at := len(out) / 2
	if at+len(stamp) > len(out) {
		at = 0
	}
	copy(out[at:], stamp)
	return out
}

// Fig6Result is one line-size column of Figure 6: off-chip DRAM accesses
// for the conventional and HICAMP memcached processing the same trace.
type Fig6Result struct {
	LineBytes int
	Requests  int

	// Conventional architecture (reads = miss fills, writes = dirty
	// writebacks), the left bar of each pair.
	ConvReads  uint64
	ConvWrites uint64

	// HICAMP, split into the stacked categories of the figure.
	HicReads   uint64 // demand reads (cache miss fills)
	HicWrites  uint64 // writebacks of newly created lines
	HicLookups uint64 // signature + candidate reads for content lookup
	HicDealloc uint64 // line de-allocation operations
	HicRC      uint64 // reference-count line traffic
}

// ConvTotal and HicampTotal return the bar heights.
func (r Fig6Result) ConvTotal() uint64 { return r.ConvReads + r.ConvWrites }
func (r Fig6Result) HicampTotal() uint64 {
	return r.HicReads + r.HicWrites + r.HicLookups + r.HicDealloc + r.HicRC
}

// Workload bundles a corpus with a request trace.
type Workload struct {
	Corpus *datagen.Corpus
	Trace  []datagen.Request
}

// NewWorkload generates the §5.1.2 setup scaled by items/requests: items
// preloaded, then requests at the paper's 10:1 get:set ratio with
// power-law popularity and sizes.
func NewWorkload(items, requests, meanSize int, seed int64) Workload {
	return Workload{
		Corpus: datagen.HTMLCorpus("memcached", items, meanSize, seed),
		Trace:  datagen.RequestTrace(items, requests, 10, seed+100),
	}
}

// corpusBatch builds the preload batch binding every corpus key.
func corpusBatch(c *datagen.Corpus) Batch {
	b := make(Batch, len(c.Keys))
	for i := range c.Keys {
		b[i] = KV{Key: []byte(c.Keys[i]), Value: c.Items[i]}
	}
	return b
}

// RunHicamp preloads the corpus, then measures the trace on the HICAMP
// server, returning the store counters accumulated during the measured
// window (preload traffic excluded, end-of-run cache flush included).
func RunHicamp(cfg core.Config, w Workload) (store.Stats, *HicampServer, error) {
	srv := NewHicampServer(cfg)
	if err := srv.Write(corpusBatch(w.Corpus)); err != nil {
		return store.Stats{}, nil, fmt.Errorf("preload: %w", err)
	}
	// Drain preload writebacks before opening the measurement window so
	// the trace is charged only for its own traffic.
	srv.Heap.M.FlushCache()
	srv.Heap.M.ResetStats()
	reader, err := srv.OpenReader()
	if err != nil {
		return store.Stats{}, nil, err
	}
	defer reader.Close()
	versions := make(map[int]int)
	for _, req := range w.Trace {
		key := []byte(w.Corpus.Keys[req.Key])
		if req.Get {
			srv.GetVia(reader, key)
		} else {
			versions[req.Key]++
			val := mutateItem(w.Corpus.Items[req.Key], versions[req.Key])
			if err := srv.Set(key, val); err != nil {
				return store.Stats{}, nil, err
			}
		}
	}
	srv.Heap.M.FlushCache()
	return srv.Stats().Store, srv, nil
}

// RunFig6 produces one Figure 6 column pair.
func RunFig6(lineBytes int, w Workload) (Fig6Result, error) {
	res := Fig6Result{LineBytes: lineBytes, Requests: len(w.Trace)}

	// Conventional side.
	conv := NewConvServer(lineBytes, len(w.Corpus.Keys))
	for i, key := range w.Corpus.Keys {
		conv.Set(key, len(w.Corpus.Items[i]))
	}
	conv.Space.Flush()
	baseline := conv.Space.Stats()
	for _, req := range w.Trace {
		key := w.Corpus.Keys[req.Key]
		if req.Get {
			conv.Get(key)
		} else {
			conv.Set(key, len(w.Corpus.Items[req.Key]))
		}
	}
	conv.Space.Flush()
	cs := conv.Space.Stats()
	res.ConvReads = cs.DRAMReads - baseline.DRAMReads
	res.ConvWrites = cs.DRAMWrites - baseline.DRAMWrites

	// HICAMP side.
	cfg := core.DefaultConfig(lineBytes)
	hs, _, err := RunHicamp(cfg, w)
	if err != nil {
		return res, err
	}
	res.HicReads = hs.DataReads
	res.HicWrites = hs.DataWrites
	res.HicLookups = hs.LookupTraffic()
	res.HicDealloc = hs.DeallocOps
	res.HicRC = hs.RCTraffic()
	return res, nil
}

// CompactionRatio measures Table 1's metric for a corpus at a line size:
// conventional bytes (item sizes) divided by deduplicated HICAMP line
// bytes, using the streaming unique-line counter.
func CompactionRatio(lineBytes int, c *datagen.Corpus) float64 {
	unique := store.UniqueLineCount(lineBytes, c.Items...)
	hicampBytes := float64(unique * uint64(lineBytes))
	if hicampBytes == 0 {
		return 0
	}
	return float64(c.TotalBytes()) / hicampBytes
}
