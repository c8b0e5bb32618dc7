package iterreg

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/segment"
	"repro/internal/word"
)

// Scan is the iterator register's streaming read, kept as a test fixture
// because no binary scans through a register. It streams every non-zero
// tagged word of the snapshot at index >= from to fn in ascending index
// order — the elements a NextNonZero/Load loop visits — through the
// level-order batch read path (segment.ScanWords). fn returning false
// stops the scan. Pending writes interleave with the snapshot stream:
// buffered values shadow the snapshot's at equal indexes, zero writes
// suppress, and buffered indexes past the snapshot's last element are
// emitted as a tail.
func (it *Iterator) Scan(from uint64, fn func(idx uint64, w uint64, t word.Tag) bool) segment.ScanStats {
	if len(it.writes) == 0 {
		st := segment.ScanWords(it.m, it.entry.Seg, from, fn)
		return st
	}
	over := it.sortedWrites()
	pos := sort.Search(len(over), func(i int) bool { return over[i].Idx >= from })
	emitted := uint64(0)
	stopped := false
	emit := func(idx, w uint64, t word.Tag) bool {
		emitted++
		if !fn(idx, w, t) {
			stopped = true
			return false
		}
		return true
	}
	// Drains the overlay up to (exclusive) bound, skipping zero writes.
	drain := func(bound uint64) bool {
		for pos < len(over) && over[pos].Idx < bound {
			u := over[pos]
			pos++
			if u.W == 0 && u.T == word.TagRaw {
				continue
			}
			if !emit(u.Idx, u.W, u.T) {
				return false
			}
		}
		return true
	}
	st := segment.ScanWords(it.m, it.entry.Seg, from, func(idx uint64, w uint64, t word.Tag) bool {
		if !drain(idx) {
			return false
		}
		if pos < len(over) && over[pos].Idx == idx {
			u := over[pos]
			pos++
			if u.W == 0 && u.T == word.TagRaw {
				return true // overwritten to zero: suppress
			}
			return emit(idx, u.W, u.T)
		}
		return emit(idx, w, t)
	})
	if !stopped {
		drain(^uint64(0))
	}
	st.Emitted = emitted
	return st
}

type scanEmit struct {
	idx uint64
	w   uint64
	t   word.Tag
}

// TestIteratorScanMatchesLoadLoop pins Iterator.Scan against the
// point-read walk: NextNonZero plus Load must see exactly the scan's
// emissions.
func TestIteratorScanMatchesLoadLoop(t *testing.T) {
	m, _ := setup()
	rng := rand.New(rand.NewSource(61))
	ws := make([]uint64, 3000)
	for i := range ws {
		if rng.Intn(3) == 0 {
			ws[i] = rng.Uint64()
		}
	}
	seg := segment.BuildWords(m, ws, nil)

	ref := NewSegmentIterator(m, seg)
	var want []scanEmit
	for idx := uint64(0); ; {
		nz, ok := ref.NextNonZero(idx)
		if !ok {
			break
		}
		w, tag := ref.Load(nz)
		want = append(want, scanEmit{nz, w, tag})
		idx = nz + 1
	}

	it := NewSegmentIterator(m, seg)
	var got []scanEmit
	st := it.Scan(0, func(idx uint64, w uint64, tag word.Tag) bool {
		got = append(got, scanEmit{idx, w, tag})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Scan emitted %d words, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("emission %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st.LineReads == 0 {
		t.Fatalf("scan reported no line reads: %+v", st)
	}
	if st.Emitted != uint64(len(got)) {
		t.Fatalf("Emitted = %d, want %d", st.Emitted, len(got))
	}
}

// TestIteratorScanSeesPendingWrites pins the transaction fallback: a scan
// over an iterator with buffered stores must reflect them.
func TestIteratorScanSeesPendingWrites(t *testing.T) {
	m, _ := setup()
	seg := segment.BuildWords(m, []uint64{1, 2, 3, 4}, nil)
	it := NewSegmentIterator(m, seg)
	it.Store(2, 99, word.TagRaw)
	it.Store(10, 7, word.TagRaw)
	got := map[uint64]uint64{}
	it.Scan(0, func(idx uint64, w uint64, tag word.Tag) bool {
		got[idx] = w
		return true
	})
	if got[2] != 99 || got[10] != 7 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("scan over pending writes = %v", got)
	}
}

// TestPowersTableSurvivesHeightGrowth pins the memoized arity-power
// table: seeks keep working after the iterator's segment grows taller
// (the table extends, never shrinks).
func TestPowersTableSurvivesHeightGrowth(t *testing.T) {
	m, _ := setup()
	small := segment.BuildWords(m, []uint64{5, 6}, nil)
	it := NewSegmentIterator(m, small)
	if v, _ := it.Load(1); v != 6 {
		t.Fatalf("small load = %d", v)
	}
	if got := it.powers(3); len(got) != 4 || got[3] != uint64(m.LineWords()*m.LineWords()*m.LineWords()) {
		t.Fatalf("powers(3) = %v", got)
	}
	// The same slice extends for a deeper segment and stays consistent.
	p5 := it.powers(5)
	for d := 1; d < len(p5); d++ {
		if p5[d] != p5[d-1]*uint64(m.LineWords()) {
			t.Fatalf("powers not multiplicative at depth %d: %v", d, p5)
		}
	}
	big := make([]uint64, 4096)
	for i := range big {
		big[i] = uint64(i) + 1
	}
	bseg := segment.BuildWords(m, big, nil)
	it2 := NewSegmentIterator(m, bseg)
	for _, idx := range []uint64{0, 63, 4095} {
		if v, _ := it2.Load(idx); v != big[idx] {
			t.Fatalf("big load[%d] = %d, want %d", idx, v, big[idx])
		}
	}
}
