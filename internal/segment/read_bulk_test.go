package segment

import (
	"bytes"
	"math/rand"
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
		s, _ := randSeg(m, rng, 700)
		idxs := make([]uint64, 0, 300)
		for i := 0; i < 300; i++ {
			// Scattered, duplicated, and out-of-capacity indexes.
			idxs = append(idxs, uint64(rng.Intn(900)))
		}
		vals, tags := GatherWords(m, s, idxs)
		for i, idx := range idxs {
			w, tg := ReadWord(m, s, idx)
			if vals[i] != w || tags[i] != tg {
				t.Fatalf("arity %d: idx %d: got (%#x,%v), want (%#x,%v)",
					m.LineWords(), idx, vals[i], tags[i], w, tg)
			}
		}
	}
}

func TestReadWordsBulkMatchesSerial(t *testing.T) {
	for _, m := range machines(t) {
		rng := rand.New(rand.NewSource(43))
		s, _ := randSeg(m, rng, 500)
		for _, win := range [][2]uint64{{0, 500}, {17, 100}, {490, 40}, {0, 0}} {
			got := readWordsBulk(m, s, win[0], win[1])
			want := ReadWords(m, s, win[0], win[1])
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("arity %d: off=%d n=%d: word %d differs", m.LineWords(), win[0], win[1], i)
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
		// A zero-root range and an empty range among real ones.
		rs = append(rs, Range{Seg: Seg{}, N: 5}, Range{Seg: rs[0].Seg, Off: 1, N: 0})
		want = append(want, make([]uint64, 5), []uint64{})
		got := GatherRanges(m, rs)
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
