// Package word defines the architectural data types of the HICAMP memory
// system: physical line IDs (PLIDs), virtual segment IDs (VSIDs), per-word
// tags, and fixed-size line content.
//
// A HICAMP memory line is a small fixed-size unit (16, 32 or 64 bytes)
// holding 64-bit words. Every word carries a hardware tag identifying it as
// raw data, a protected PLID reference, a PLID with a compacted DAG path
// (path compaction, paper §3.2), an inline-packed vector of small values
// (data compaction, paper §3.2), or a protected VSID reference. In the
// hardware proposal the tags live in spare ECC bits; here they are explicit.
package word

import "fmt"

// PLID is a physical line identifier. PLIDs are a hardware-protected type:
// they can only be produced by a lookup-by-content operation or copied from
// an existing PLID. The zero PLID names the architectural all-zero line.
type PLID uint64

// VSID is a virtual segment identifier, resolved to a root PLID through the
// virtual segment map (paper §2.3). The zero VSID is the null reference.
type VSID uint64

// Zero is the PLID of the architectural zero line. Reading it returns
// all-zero content without any memory access, and reference-count
// operations on it are no-ops.
const Zero PLID = 0

// Tag identifies the hardware type of one 64-bit word within a line.
type Tag uint8

const (
	// TagRaw marks an untyped data word.
	TagRaw Tag = iota
	// TagPLID marks a word holding a PLID reference to another line.
	TagPLID
	// TagCompact marks a word holding a PLID plus a compacted DAG path
	// (the word stands for a chain of interior nodes that each had a
	// single non-zero child).
	TagCompact
	// TagInline marks a word holding an arity-sized vector of small
	// values packed into 64 bits, standing for an entire leaf line.
	TagInline
	// TagVSID marks a word holding a VSID reference. VSIDs do not pin
	// lines directly; they resolve through the segment map.
	TagVSID
)

// String returns a short mnemonic for the tag.
func (t Tag) String() string {
	switch t {
	case TagRaw:
		return "raw"
	case TagPLID:
		return "plid"
	case TagCompact:
		return "compact"
	case TagInline:
		return "inline"
	case TagVSID:
		return "vsid"
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

// MaxWords is the largest supported line size in 64-bit words (64 bytes).
const MaxWords = 8

// Content is the full content of one memory line: N 64-bit words plus their
// tags. Content values are comparable with == and serve directly as
// deduplication keys. Words at index >= N must be zero with TagRaw so that
// equal logical contents compare equal.
type Content struct {
	W [MaxWords]uint64
	T [MaxWords]Tag
	N uint8
}

// NewContent returns an all-zero content for a line of n words.
// It panics if n is not a supported line width.
func NewContent(n int) Content {
	if n != 2 && n != 4 && n != 8 {
		panic(fmt.Sprintf("word: unsupported line width %d words", n))
	}
	return Content{N: uint8(n)}
}

// IsZero reports whether every word is zero raw data, i.e. the content of
// the architectural zero line.
func (c Content) IsZero() bool {
	for i := 0; i < int(c.N); i++ {
		if c.W[i] != 0 || c.T[i] != TagRaw {
			return false
		}
	}
	return true
}

// Words returns the used words as a slice (a copy).
func (c Content) Words() []uint64 {
	out := make([]uint64, c.N)
	copy(out, c.W[:c.N])
	return out
}

// Bytes serializes the data words little-endian, 8 bytes per word,
// ignoring tags. It is the byte-level view of a leaf line.
func (c Content) Bytes() []byte {
	out := make([]byte, int(c.N)*8)
	for i := 0; i < int(c.N); i++ {
		putLE64(out[i*8:], c.W[i])
	}
	return out
}

// ContentFromBytes builds leaf content of n words from up to n*8 bytes,
// zero-padding the tail. All words are tagged raw.
func ContentFromBytes(n int, b []byte) Content {
	c := NewContent(n)
	for i := 0; i < n; i++ {
		lo := i * 8
		if lo >= len(b) {
			break
		}
		hi := lo + 8
		if hi > len(b) {
			hi = len(b)
		}
		c.W[i] = le64(b[lo:hi])
	}
	return c
}

// Hash returns a 64-bit FNV-1a hash of the content including tags. The
// memory system derives the DRAM hash bucket and the 8-bit signature from
// disjoint portions of this value.
func (c Content) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	step := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	step(c.N)
	for i := 0; i < int(c.N); i++ {
		w := c.W[i]
		for s := 0; s < 64; s += 8 {
			step(byte(w >> s))
		}
		step(byte(c.T[i]))
	}
	return h
}

// SignatureOf derives the bucket signature from an already computed content
// hash, so batch paths that need both the bucket index and the signature
// hash each content once.
func SignatureOf(h uint64) uint8 {
	s := uint8(h >> 56)
	if s == 0 {
		s = 0xA5
	}
	return s
}

// Mem is the HICAMP memory system's operation set (§3.1) as the DAG
// machinery sees it: lookup-by-content, read-by-PLID, reference counting
// and the line geometry. core.Machine implements it with a deduplicating
// store fronted by the HICAMP cache.
type Mem interface {
	// LookupLine returns the PLID of the line with the given content,
	// allocating it if absent. The caller acquires one reference. Looking
	// up all-zero content returns Zero without allocation. When a new
	// line is allocated, the memory system takes one reference on every
	// PLID-tagged word inside it (released again when the line is freed).
	LookupLine(c Content) PLID
	// ReadLine returns the content of the line named by p. Reading Zero
	// returns all-zero content.
	ReadLine(p PLID) Content
	// LookupLineBatchInto returns what one LookupLine per element returns,
	// writing out[i] for cs[i] (len(out) must equal len(cs)): one reference
	// acquired per element, all-zero contents resolving to Zero. The
	// memory system takes its internal locks once per batch instead of
	// once per line, and probes every content before filling any, so its
	// cache accounting can differ from the serial loop's: a content given
	// twice misses twice, and a probe may hit a line that an earlier
	// element's fill would have evicted. Engines pass deduplicated batches
	// (segment.CanonBatch).
	LookupLineBatchInto(cs []Content, out []PLID)
	// ReadLineBatchInto behaves exactly like one ReadLine per element —
	// the same per-line cache and DRAM accounting — writing out[i] for
	// ps[i] (len(out) must equal len(ps)).
	ReadLineBatchInto(ps []PLID, out []Content)
	// RetainIfContent acquires one reference on p only if the line is
	// still live and still holds content c, reporting whether it did: the
	// revalidation behind content memos, whose remembered line may have
	// been freed (and reallocated for other content) by a concurrent
	// release. False sends the caller to LookupLine. Every call charges
	// the read that checks the line (an LLC data probe, a DRAM data read
	// on a miss), and a successful one one reference-count touch; never
	// lookup traffic.
	RetainIfContent(p PLID, c Content) bool
	// Retain adds a reference to p. Retaining Zero is a no-op.
	Retain(p PLID)
	// Release drops a reference to p, freeing the line (and recursively
	// releasing the lines it references) when the count reaches zero.
	Release(p PLID)
	// LineWords returns the line width in 64-bit words (the DAG arity).
	LineWords() int
	// PLIDBits returns how many low bits of a word a PLID can occupy,
	// bounding the space available for path compaction.
	PLIDBits() int
}

// BulkMem is a Mem that also offers the allocating batch variants,
// returning fresh result slices. core.Machine implements it.
type BulkMem interface {
	Mem
	LookupLineBatch(cs []Content) []PLID
	ReadLineBatch(ps []PLID) []Content
}

// BatchIntoMem names the two caller-buffered batch operations of Mem.
type BatchIntoMem interface {
	LookupLineBatchInto(cs []Content, out []PLID)
	ReadLineBatchInto(ps []PLID, out []Content)
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < len(b) && i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
