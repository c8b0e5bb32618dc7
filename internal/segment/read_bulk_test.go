package segment

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

// randSeg builds a segment of n pseudo-random words with zero runs mixed
// in, so the DAG exercises zero elision, inlining and path compaction.
func randSeg(m word.Mem, rng *rand.Rand, n int) (Seg, []uint64) {
	ws := make([]uint64, n)
	for i := range ws {
		switch rng.Intn(4) {
		case 0: // zero run
			for j := 0; j < 1+rng.Intn(8) && i < n; j++ {
				i++
			}
			i--
		case 1: // repeated block, feeds dedup
			ws[i] = 0xABCD
		default:
			ws[i] = rng.Uint64()
		}
	}
	return BuildWords(m, ws, nil), ws
}

// readWordsBulk reads n words starting at off through ReadWordsBulkInto.
func readWordsBulk(m word.Mem, s Seg, off, n uint64) []uint64 {
	vals := make([]uint64, n)
	ReadWordsBulkInto(m, s, off, vals)
	return vals
}

func TestGatherWordsMatchesReadWord(t *testing.T) {
	for _, m := range machines(t) {
		rng := rand.New(rand.NewSource(42))
		for si, s := range gatherSegs(t, m, rng) {
			// Scattered, duplicated, adjacent and out-of-capacity indexes.
			var idxs []uint64
			for i := 0; i < 400; i++ {
				switch rng.Intn(3) {
				case 0:
					idxs = append(idxs, uint64(rng.Intn(1100)))
				case 1:
					if len(idxs) > 0 {
						idxs = append(idxs, idxs[len(idxs)-1]+1)
					}
				default:
					idxs = append(idxs, uint64(rng.Intn(40)))
				}
			}
			vals, tags := GatherWords(m, s, idxs)
			for i, idx := range idxs {
				w, tg := ReadWord(m, s, idx)
				if vals[i] != w || tags[i] != tg {
					t.Fatalf("arity %d seg %d: idx %d: got (%#x,%v), want (%#x,%v)",
						m.LineWords(), si, idx, vals[i], tags[i], w, tg)
				}
			}
		}
	}
}

func TestReadWordsBulkMatchesSerial(t *testing.T) {
	for _, m := range machines(t) {
		rng := rand.New(rand.NewSource(43))
		for si, s := range gatherSegs(t, m, rng) {
			for _, win := range [][2]uint64{{0, 1100}, {3, 517}, {17, 100}, {255, 2}, {1000, 300}, {0, 0}} {
				got := readWordsBulk(m, s, win[0], win[1])
				if want := ReadWords(m, s, win[0], win[1]); !slices.Equal(got, want) {
					t.Fatalf("arity %d seg %d: off=%d n=%d differs", m.LineWords(), si, win[0], win[1])
				}
			}
		}
	}
}

func TestReadBytesBulkMatchesSerial(t *testing.T) {
	for _, m := range machines(t) {
		data := make([]byte, 3000)
		rng := rand.New(rand.NewSource(44))
		rng.Read(data)
		s := BuildBytes(m, data)
		for _, win := range [][2]uint64{{0, 3000}, {3, 41}, {2990, 10}, {7, 0}} {
			got := ReadBytesBulk(m, s, win[0], win[1])
			want := ReadBytes(m, s, win[0], win[1])
			if !bytes.Equal(got, want) {
				t.Fatalf("arity %d: off=%d n=%d: bulk bytes differ", m.LineWords(), win[0], win[1])
			}
		}
	}
}

// gatherRanges returns GatherRanges' words split per range.
func gatherRanges(m word.Mem, rs []Range) [][]uint64 {
	total := uint64(0)
	for _, r := range rs {
		total += r.N
	}
	flat := make([]uint64, total)
	GatherRanges(m, rs, flat)
	out := make([][]uint64, len(rs))
	for i, r := range rs {
		out[i], flat = flat[:r.N:r.N], flat[r.N:]
	}
	return out
}

func TestGatherRangesMatchesSerial(t *testing.T) {
	for _, m := range machines(t) {
		rng := rand.New(rand.NewSource(45))
		var rs []Range
		var want [][]uint64
		for i := 0; i < 8; i++ {
			s, _ := randSeg(m, rng, 50+rng.Intn(400))
			off := uint64(rng.Intn(30))
			n := uint64(rng.Intn(80))
			rs = append(rs, Range{Seg: s, Off: off, N: n})
			want = append(want, ReadWords(m, s, off, n))
		}
		// A zero-root range and an empty range among real ones, then
		// ranges over every edge kind, past capacity and repeated.
		rs = append(rs, Range{Seg: Seg{}, N: 5}, Range{Seg: rs[0].Seg, Off: 1, N: 0})
		want = append(want, make([]uint64, 5), []uint64{})
		for _, r := range gatherRangeCases(m, rng, gatherSegs(t, m, rng)) {
			rs = append(rs, r)
			want = append(want, ReadWords(m, r.Seg, r.Off, r.N))
		}
		got := gatherRanges(m, rs)
		for i := range rs {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("arity %d: range %d: len %d, want %d", m.LineWords(), i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("arity %d: range %d word %d differs", m.LineWords(), i, j)
				}
			}
		}
	}
}

// countingMem wraps a Mem and counts line reads, the unit of DAG-walk
// cost a read path pays: one per ReadLine, one per element of a batch.
// It also counts lookups and, when touched is non-nil, records every
// read, retain and release per PLID and every looked-up content.
type countingMem struct {
	word.Mem
	reads   int
	lookups int
	touched map[word.PLID]int
	looked  []word.Content
}

func (c *countingMem) touch(p word.PLID) {
	if c.touched != nil {
		c.touched[p]++
	}
}

func (c *countingMem) ReadLine(p word.PLID) word.Content {
	c.reads++
	c.touch(p)
	return c.Mem.ReadLine(p)
}

func (c *countingMem) ReadLineBatchInto(ps []word.PLID, out []word.Content) {
	c.reads += len(ps)
	for _, p := range ps {
		c.touch(p)
	}
	c.Mem.ReadLineBatchInto(ps, out)
}

func (c *countingMem) LookupLine(ct word.Content) word.PLID {
	c.lookups++
	if c.touched != nil {
		c.looked = append(c.looked, ct)
	}
	return c.Mem.LookupLine(ct)
}

func (c *countingMem) LookupLineBatchInto(cs []word.Content, out []word.PLID) {
	c.lookups += len(cs)
	if c.touched != nil {
		c.looked = append(c.looked, cs...)
	}
	c.Mem.LookupLineBatchInto(cs, out)
}

func (c *countingMem) Retain(p word.PLID) {
	c.touch(p)
	c.Mem.Retain(p)
}

func (c *countingMem) Release(p word.PLID) {
	c.touch(p)
	c.Mem.Release(p)
}

// TestReadBytesStridesPerWord pins the satellite fix: ReadBytes must
// re-walk the DAG once per covering *word* (like reading ceil(n/8) words
// serially), not once per byte as it did before.
func TestReadBytesStridesPerWord(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	data := make([]byte, 4096)
	rand.New(rand.NewSource(47)).Read(data)
	s := BuildBytes(m, data)

	cm := &countingMem{Mem: m}
	got := ReadBytes(cm, s, 0, uint64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatal("ReadBytes round trip failed")
	}
	perByte := cm.reads

	cm.reads = 0
	ReadWords(cm, s, 0, uint64(len(data)/8))
	perWord := cm.reads

	if perByte != perWord {
		t.Fatalf("ReadBytes walked %d lines, serial per-word read walks %d", perByte, perWord)
	}
	// And far fewer than the old one-walk-per-byte cost.
	if perByte*2 > perWord*8 {
		t.Fatalf("ReadBytes cost %d not clearly below per-byte cost %d", perByte, perWord*8)
	}
}

// TestGatherFetchesSharedLinesOncePerWave checks the dedup that justifies
// the bulk path: materializing a segment whose leaves are all identical
// content must read each distinct line once, not once per request.
func TestGatherFetchesSharedLinesOncePerWave(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	arity := uint64(m.LineWords())
	n := 64 * arity
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = 0xFEED // every leaf line is the same content
	}
	s := BuildWords(m, ws, nil)

	cm := &countingMem{Mem: m}
	got := readWordsBulk(cm, s, 0, n)
	for i, w := range got {
		if w != 0xFEED {
			t.Fatalf("word %d = %#x", i, w)
		}
	}
	distinct := int(Measure(m, s).Lines)
	// Every line the bulk walk reads is distinct within its wave, so the
	// total is at most one read per distinct line per level it appears on
	// — far below the n/arity leaf visits a serial walk pays.
	if cm.reads > distinct+s.Height {
		t.Fatalf("bulk read %d lines; DAG has %d distinct", cm.reads, distinct)
	}
}
