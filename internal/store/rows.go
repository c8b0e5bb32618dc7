package store

import (
	"math/bits"

	"repro/internal/word"
)

// Host layout. A hash bucket is one DRAM row (Fig. 2): a signature line, a
// reference-count line and DataWays data lines. The host record mirrors
// that row as one contiguous run of 64-bit words sized by the configured
// arity:
//
//	words 0-1                the signature line: one byte per way, then the
//	                         used and in-DRAM bitmaps in the top half of word 1
//	tagOff .. +ways*arity/8  the word tags (ECC bits in the hardware
//	                         proposal), one byte per word, a line's tags
//	                         packed together
//	dataOff .. +ways*arity   the data lines
//	rcOff .. +ways           the reference-count line, one count per way
//
// so modelling a 256-byte row of 16-byte lines costs 328 host bytes, a
// signature probe reads one host cache line, a content compare is arity
// words plus one packed tag compare, and every access to a row stays
// within one host page. The counts sit last (not second, as in Fig. 2) so
// that what a read needs — the used bit, the tags and the data — starts
// in the record's first cache line. Nothing in a record is a pointer: the
// garbage collector never scans bucket storage.
//
// A record comes in two widths, laid out alike by newGeom: small, with
// smallWays ways, and full, with DataWays. Most buckets never hold more
// than four lines (hicampd's set_write ends with 92 % of its buckets at
// four ways or fewer), so every bucket starts small — on first touch,
// under its stripe's exclusive lock — and grows to full width when an
// allocation (a lookup, or a restore naming a way past the small width)
// finds no free way in it. Growth copies the signature line verbatim (its
// layout does not depend on the width) and each used way's tags, data
// and count into a fresh full record, repoints the bucket's directory
// entry, and zeroes the small record onto its stripe's free list, where
// the next bucket of that stripe to be touched takes it. Buckets never
// shrink. Way indices never move, so PLIDs, the first-free-way choice,
// scan order and every simulated counter are the same as if each bucket
// had been full from the start: growth is host bookkeeping, not DRAM
// traffic. Readers need no width check: a way at or beyond a record's
// width reads as unused, because its used bit is never set.
//
// Where the records' words live — one reservation outside the Go heap or
// heap chunks made on first use — is the build's choice (arena.go). The
// overflow area is one more run of full records, always on the heap,
// grown a record at a time under the overflow lock.
//
// Signatures, bitmaps, tags and data are written under the row's exclusive
// lock and read under its shared lock. Counts are accessed with atomics so
// the dedup-hit and retain fast paths can adjust them under the shared
// lock: while any shared lock is held a used line cannot be freed (freeing
// needs the exclusive lock), so an atomic increment of a live line's count
// is always safe.

// smallWays is the width every bucket record starts at. Of the widths
// tried on set_write, two widths {4, 12} left the least table touched:
// {3, 12} and {5, 12} touched 6–11 % more, and {2, 4, 8, 12} stranded
// freed narrow records for no gain.
const smallWays = 4

// Record widths, indexing Store.geos and stored in the low bit of a
// directory handle.
const (
	small = 0
	full  = 1
)

const (
	tagOff      = 2  // first tag word; words 0-1 are the signature line
	usedShift   = 32 // bit of way 0 in word 1's used bitmap
	inDRAMShift = 48 // bit of way 0 in word 1's in-DRAM bitmap
)

// geom packs a record's geometry — and, in a lineRef, the way the view
// names — into one word, so that a view is four machine words and the
// compiler keeps it in registers instead of spilling it around every call.
//
//	bits 0-3 way | 4-7 arity | 8-11 ways | 12-19 dataOff | 20-31 rcOff
type geom uint64

func newGeom(ways, arity int) geom {
	dataOff := tagOff + (ways*arity+7)/8
	rcOff := dataOff + ways*arity
	return geom(arity<<4 | ways<<8 | dataOff<<12 | rcOff<<20)
}

func (g geom) way() int     { return int(g & 0xF) }
func (g geom) arity() int   { return int(g >> 4 & 0xF) }
func (g geom) ways() int    { return int(g >> 8 & 0xF) }
func (g geom) dataOff() int { return int(g >> 12 & 0xFF) }
func (g geom) rcOff() int   { return int(g >> 20 & 0xFFF) }

// recWords returns the record length in words.
func (g geom) recWords() int { return g.rcOff() + g.ways() }

// units returns the record's stride in whole 64-byte host lines: records
// are carved on those boundaries so a signature line never straddles two
// of them.
func (g geom) units() uint32 { return uint32(g.recWords()+7) / 8 }

// rowRef is a by-value view of one row record, lineRef of one line slot in
// it (g additionally carries the way). The caller holds the row's lock
// (shared or exclusive) for as long as it uses the view.
type rowRef struct {
	rec []uint64
	g   geom
}

type lineRef rowRef

// row returns the view of record i in a run of records.
func (g geom) row(run []uint64, i int) rowRef {
	n := g.recWords()
	return rowRef{rec: run[i*n : i*n+n : i*n+n], g: g}
}

func (r rowRef) line(way int) lineRef { return lineRef{r.rec, r.g | geom(way)} }

// freeWay returns the lowest unused way, or -1 when the row is full.
func (r rowRef) freeWay() int {
	if w := bits.TrailingZeros16(^uint16(r.rec[1] >> usedShift)); w < r.g.ways() {
		return w
	}
	return -1
}

func (l lineRef) used() bool   { return l.rec[1]>>(usedShift+l.g.way())&1 != 0 }
func (l lineRef) inDRAM() bool { return l.rec[1]>>(inDRAMShift+l.g.way())&1 != 0 }
func (l lineRef) setInDRAM()   { l.rec[1] |= 1 << (inDRAMShift + l.g.way()) }

// sigCell locates the line's signature byte in the signature line.
func (l lineRef) sigCell() (*uint64, int) {
	w := l.g.way()
	return &l.rec[w>>3], (w & 7) * 8
}

func (l lineRef) sig() uint8 {
	cell, shift := l.sigCell()
	return uint8(*cell >> shift)
}

// rc returns the line's reference count cell, for atomic access.
func (l lineRef) rc() *uint64 { return &l.rec[l.g.rcOff()+l.g.way()] }

// words returns the line's data words.
func (l lineRef) words() []uint64 {
	a := l.g.arity()
	off := l.g.dataOff() + l.g.way()*a
	return l.rec[off : off+a]
}

// tagCell locates the line's packed tags: arity bytes inside one word
// (arity divides 8, so a line's tags never straddle words).
func (l lineRef) tagCell() (*uint64, int) {
	bit := l.g.way() * l.g.arity() * 8
	return &l.rec[tagOff+bit>>6], bit & 63
}

// tagMask returns the low arity bytes (at arity 8 the shift overflows to
// zero and the subtraction leaves all ones).
func (g geom) tagMask() uint64 { return 1<<(8*g.arity()) - 1 }

// packTags packs a content's tags the way a record stores them.
func packTags(c *word.Content) uint64 {
	var t uint64
	for i := 0; i < int(c.N); i++ {
		t |= uint64(c.T[i]) << (8 * i)
	}
	return t
}

// equal reports whether the slot holds exactly content c.
func (l lineRef) equal(c *word.Content) bool {
	if int(c.N) != l.g.arity() {
		return false
	}
	for i, w := range l.words() {
		if w != c.W[i] {
			return false
		}
	}
	cell, shift := l.tagCell()
	return *cell>>shift&l.g.tagMask() == packTags(c)
}

// loadInto overwrites *c with the slot's content.
func (l lineRef) loadInto(c *word.Content) {
	*c = word.Content{N: uint8(l.g.arity())}
	cell, shift := l.tagCell()
	t := *cell >> shift
	for i, w := range l.words() {
		c.W[i] = w
		c.T[i] = word.Tag(t >> (8 * i))
	}
}

// load returns the slot's content.
func (l lineRef) load() (c word.Content) {
	l.loadInto(&c)
	return c
}

// store fills a free slot with a line; exclusive lock required.
func (l lineRef) store(c *word.Content, sig uint8, rc uint64, inDRAM bool) {
	copy(l.words(), c.W[:])
	cell, shift := l.tagCell()
	*cell = *cell&^(l.g.tagMask()<<shift) | packTags(c)<<shift
	sc, ss := l.sigCell()
	*sc |= uint64(sig) << ss // a free way's signature is zero
	*l.rc() = rc
	l.rec[1] |= 1 << (usedShift + l.g.way())
	if inDRAM {
		l.setInDRAM()
	}
}

// copyTo copies every used way of r into the empty, wider record to — the
// body of a bucket's growth; exclusive lock required.
func (r rowRef) copyTo(to rowRef) {
	copy(to.rec[:tagOff], r.rec[:tagOff]) // signatures and bitmaps
	for w := 0; w < r.g.ways(); w++ {
		if ln := r.line(w); ln.used() {
			c := ln.load()
			to.line(w).store(&c, ln.sig(), *ln.rc(), ln.inDRAM())
		}
	}
}

// clear frees the slot (its signature is zeroed); exclusive lock required.
func (l lineRef) clear() {
	sc, ss := l.sigCell()
	*sc &^= 0xFF << ss
	*l.rc() = 0
	l.rec[1] &^= 1<<(usedShift+l.g.way()) | 1<<(inDRAMShift+l.g.way())
}
