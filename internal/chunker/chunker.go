// Package chunker implements content-defined chunked ingest: a Gear
// rolling-hash chunker whose boundaries are a function of local byte
// content, mapped onto segment sub-DAGs so that near-duplicate byte
// streams share lines even when their content is shifted.
//
// The fixed-arity segment tree dedups aligned lines only: inserting one
// byte into a stream re-packs every word after it, so every line past
// the edit re-canonicalizes and the paper's Table 1 dedup wins vanish
// for byte-stream workloads. Content-defined boundaries restore them —
// a chunk's extent depends only on the bytes inside a small rolling
// window, so an insertion perturbs the chunks covering the edit region
// and the stream re-synchronizes at the next content-defined cutpoint.
// Unchanged chunks re-canonicalize to the same sub-DAG roots, and the
// Ingestor's chunk→PLID memo turns that re-canonicalization into a
// single revalidating reference-count touch per chunk.
package chunker

import "math/bits"

// Config sets the chunking geometry. Boundaries use normalized
// chunking (FastCDC-style): between MinSize and AvgSize the cutpoint
// judgement uses a stricter mask, past AvgSize a looser one, which
// concentrates chunk sizes around AvgSize without losing the
// content-defined property. The zero value selects the defaults.
type Config struct {
	// MinSize is the smallest chunk emitted (except for a short final
	// chunk). Cutpoint judgement starts here, so the rolling hash never
	// declares a boundary inside the minimum.
	MinSize int
	// AvgSize is the target mean chunk size; it is rounded up to a
	// power of two to derive the cutpoint masks.
	AvgSize int
	// MaxSize bounds a chunk: a stream with no qualifying cutpoint is
	// force-cut here (the only non-content-defined boundary).
	MaxSize int
}

// Default chunking geometry: 2 KB average chunks keep a chunk's
// sub-DAG at 32-128 leaf lines (16-64 B lines), deep enough to amortize
// the index entry, small enough that an edit region re-canonicalizes
// only a few KB.
const (
	DefaultMinSize = 512
	DefaultAvgSize = 2048
	DefaultMaxSize = 8192
)

// norm fills defaults and repairs degenerate geometry so every Config
// chunks deterministically. It returns the two cutpoint masks.
func (c Config) norm() (cfg Config, maskS, maskL uint64) {
	if c.MinSize <= 0 {
		c.MinSize = DefaultMinSize
	}
	if c.AvgSize <= 0 {
		c.AvgSize = DefaultAvgSize
	}
	if c.MaxSize <= 0 {
		c.MaxSize = DefaultMaxSize
	}
	if c.AvgSize < c.MinSize {
		c.AvgSize = c.MinSize
	}
	if c.MaxSize < c.AvgSize {
		c.MaxSize = c.AvgSize
	}
	// Mask bits from the (power-of-two rounded) average: the strict mask
	// uses two more bits than the average alone would (cut probability
	// 1/4 of nominal before the normalization point), the loose mask two
	// fewer (4x nominal after it) — FastCDC's normalization level 2.
	b := bits.Len(uint(c.AvgSize - 1))
	s, l := b+2, b-2
	if l < 1 {
		l = 1
	}
	if s > 63 {
		s = 63
	}
	return c, 1<<s - 1, 1<<l - 1
}

// gearTable is the byte→random-word substitution the rolling hash
// shifts through. Seeded splitmix64 so every build of the package chunks
// identically; a byte's influence on the hash dies after 64 shifts, so
// the effective boundary window is 64 bytes.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// Cut returns the length of the first chunk of data: the first
// content-defined cutpoint after MinSize, the force-cut at MaxSize, or
// len(data) when the remainder is short. Cut(data) > 0 whenever
// len(data) > 0, and depends only on the bytes within the returned
// extent — the property that makes chunk identity shift-surviving.
func (c Config) Cut(data []byte) int {
	cfg, maskS, maskL := c.norm()
	n := len(data)
	if n <= cfg.MinSize {
		return n
	}
	if n > cfg.MaxSize {
		n = cfg.MaxSize
	}
	normPoint := cfg.AvgSize
	if normPoint > n {
		normPoint = n
	}
	var h uint64
	// The hash warms up inside the minimum region (judgement-free), so
	// the first eligible position already carries a full 64-byte window.
	warm := cfg.MinSize - 64
	if warm < 0 {
		warm = 0
	}
	for i := warm; i < cfg.MinSize; i++ {
		h = h<<1 + gearTable[data[i]]
	}
	for i := cfg.MinSize; i < normPoint; i++ {
		h = h<<1 + gearTable[data[i]]
		if h&maskS == 0 {
			return i + 1
		}
	}
	for i := normPoint; i < n; i++ {
		h = h<<1 + gearTable[data[i]]
		if h&maskL == 0 {
			return i + 1
		}
	}
	return n
}
