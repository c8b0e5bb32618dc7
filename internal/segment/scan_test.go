package segment

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

type emit struct {
	idx uint64
	w   uint64
	t   word.Tag
}

// serialEmits walks s the pre-scan way: one NextNonZero descent plus one
// ReadWord per element.
func serialEmits(m word.Mem, s Seg, from uint64) []emit {
	var out []emit
	for idx := from; ; {
		nz, ok := NextNonZero(m, s, idx)
		if !ok {
			return out
		}
		w, t := ReadWord(m, s, nz)
		out = append(out, emit{nz, w, t})
		idx = nz + 1
	}
}

func scanEmits(m word.Mem, s Seg, from uint64, window int) ([]emit, ScanStats) {
	var out []emit
	st := ScanWordsWindow(m, s, from, window, func(idx uint64, w uint64, t word.Tag) bool {
		out = append(out, emit{idx, w, t})
		return true
	})
	return out, st
}

func sameEmits(t *testing.T, label string, got, want []emit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: emitted %d words, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: emission %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestScanWordsMatchesSerialWalk(t *testing.T) {
	for _, m := range machines(t) {
		rng := rand.New(rand.NewSource(401))
		for _, n := range []int{1, 7, 300, 2000} {
			s, _ := randSeg(m, rng, n)
			cap := s.Capacity(m.LineWords())
			froms := []uint64{0, 1, uint64(n) / 3, uint64(n) - 1, cap - 1, cap, cap + 5}
			for _, from := range froms {
				want := serialEmits(m, s, from)
				for _, window := range []int{1, 16, 257, DefaultScanWindow} {
					got, _ := scanEmits(m, s, from, window)
					sameEmits(t, "scan", got, want)
				}
			}
		}
	}
}

func TestScanWordsStats(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	rng := rand.New(rand.NewSource(402))
	s, _ := randSeg(m, rng, 3000)
	got, st := scanEmits(m, s, 0, 256)
	if st.Emitted != uint64(len(got)) {
		t.Fatalf("Emitted = %d, want %d", st.Emitted, len(got))
	}
	if st.Chunks == 0 || st.Waves == 0 || st.LineReads == 0 {
		t.Fatalf("scan stats not populated: %+v", st)
	}
}

// TestScanWordsAccountingMatchesSerial pins the accounting-equivalence
// claim: with an LLC ample enough that nothing is evicted mid-walk, the
// wave scan and the serial iterator loop both miss every distinct line of
// a shared-subtree segment exactly once, so they charge the simulated
// memory system identically. (The scan's advantage appears under cache
// pressure, where the serial walk re-misses shared lines; that is the
// benchmark's job, not this pin's.) Two machines are built through the
// same deterministic sequence so cache and store state match exactly.
func TestScanWordsAccountingMatchesSerial(t *testing.T) {
	cfg := core.Config{LineBytes: 16, BucketBits: 12, DataWays: 12, CacheLines: 16384, CacheWays: 16}
	build := func() (*core.Machine, Seg) {
		m := core.NewMachine(cfg)
		// Shared subtrees: one 64-word tile repeated, so interior and leaf
		// lines have high fan-in.
		rng := rand.New(rand.NewSource(403))
		tile := make([]uint64, 64)
		for i := range tile {
			tile[i] = rng.Uint64()
		}
		ws := make([]uint64, 0, 4096)
		for len(ws) < 4096 {
			ws = append(ws, tile...)
		}
		return m, BuildWords(m, ws, nil)
	}

	m1, s1 := build()
	m1.FlushCache()
	m1.ResetStats()
	serial := serialEmits(m1, s1, 0)
	serialDelta := m1.Stats().Store.Total()

	m2, s2 := build()
	if s2.Root != s1.Root {
		t.Fatalf("deterministic builds diverged: %v vs %v", s1.Root, s2.Root)
	}
	m2.FlushCache()
	m2.ResetStats()
	scan, _ := scanEmits(m2, s2, 0, DefaultScanWindow)
	scanDelta := m2.Stats().Store.Total()

	sameEmits(t, "accounting walk", scan, serial)
	if scanDelta != serialDelta {
		t.Fatalf("DRAM delta: scan %d, serial walk %d — must be identical under an ample LLC",
			scanDelta, serialDelta)
	}
}

// TestScanEarlyStopBoundedByWindow pins the lookahead contract: a consumer
// that stops after the first element pays at most one window of fetches,
// not the whole segment.
func TestScanEarlyStopBoundedByWindow(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	rng := rand.New(rand.NewSource(404))
	ws := make([]uint64, 65536)
	for i := range ws {
		ws[i] = rng.Uint64()
	}
	s := BuildWords(m, ws, nil)

	cm := &countingMem{Mem: m}
	ScanWordsWindow(cm, s, 0, DefaultScanWindow, func(uint64, uint64, word.Tag) bool { return true })
	fullReads := cm.reads

	const window = 64
	cm.reads = 0
	st := ScanWordsWindow(cm, s, 0, window, func(uint64, uint64, word.Tag) bool { return false })
	if st.Emitted != 1 {
		t.Fatalf("Emitted = %d after immediate stop, want 1", st.Emitted)
	}
	// Splitting the head costs O(height) serial reads; expanding one
	// window of dense words costs about 2*window/arity lines.
	bound := s.Height + 2*window/m.LineWords() + 4
	if cm.reads > bound {
		t.Fatalf("early stop read %d lines, want <= %d", cm.reads, bound)
	}
	if cm.reads*16 > fullReads {
		t.Fatalf("early stop read %d lines vs %d for the full scan — window did not bound over-fetch",
			cm.reads, fullReads)
	}
}

func TestScanBytesMatchesReadBytes(t *testing.T) {
	for _, m := range machines(t) {
		data := make([]byte, 9001)
		rand.New(rand.NewSource(405)).Read(data)
		s := BuildBytes(m, data)
		for _, off := range []uint64{0, 1, 13, 8000} {
			want := ReadBytes(m, s, off, uint64(len(data))-off)
			var got []byte
			st := ScanBytes(m, s, off, uint64(len(data))-off, func(o uint64, chunk []byte) bool {
				if o != off+uint64(len(got)) {
					t.Fatalf("chunk offset %d, want %d", o, off+uint64(len(got)))
				}
				got = append(got, chunk...)
				return true
			})
			if string(got) != string(want) {
				t.Fatalf("arity %d off %d: ScanBytes mismatch", m.LineWords(), off)
			}
			if st.Emitted != uint64(len(want)) {
				t.Fatalf("Emitted = %d, want %d", st.Emitted, len(want))
			}
		}
		// Early stop: one chunk only.
		calls := 0
		ScanBytes(m, s, 0, uint64(len(data)), func(uint64, []byte) bool {
			calls++
			return false
		})
		if calls != 1 {
			t.Fatalf("early-stopped ScanBytes made %d calls, want 1", calls)
		}
	}
}

// diffEmit records one reported difference.
type diffEmit struct {
	idx    uint64
	av, bv uint64
	at, bt word.Tag
}

func diffEmits(m word.Mem, a, b Seg) ([]diffEmit, DiffStats) {
	var out []diffEmit
	st := DiffWords(m, a, b, func(idx uint64, av, bv uint64, at, bt word.Tag) bool {
		out = append(out, diffEmit{idx, av, bv, at, bt})
		return true
	})
	return out, st
}

// bruteDiff compares the two segments word by word through ReadWord.
func bruteDiff(m word.Mem, a, b Seg) []diffEmit {
	arity := m.LineWords()
	capA, capB := a.Capacity(arity), b.Capacity(arity)
	n := capA
	if capB > n {
		n = capB
	}
	var out []diffEmit
	for idx := uint64(0); idx < n; idx++ {
		av, at := ReadWord(m, a, idx)
		bv, bt := ReadWord(m, b, idx)
		if av != bv || at != bt {
			out = append(out, diffEmit{idx, av, bv, at, bt})
		}
	}
	return out
}

func TestDiffWordsMatchesBruteForce(t *testing.T) {
	for _, m := range machines(t) {
		rng := rand.New(rand.NewSource(406))
		base := make([]uint64, 2048)
		for i := range base {
			if rng.Intn(3) == 0 {
				base[i] = rng.Uint64()
			}
		}
		a := BuildWords(m, base, nil)

		// A handful of scattered mutations, including zeroing.
		mut := append([]uint64(nil), base...)
		for i := 0; i < 9; i++ {
			mut[rng.Intn(len(mut))] = rng.Uint64()
		}
		mut[100] = 0
		b := BuildWords(m, mut, nil)

		got, st := diffEmits(m, a, b)
		want := bruteDiff(m, a, b)
		if len(got) != len(want) {
			t.Fatalf("arity %d: %d diffs, want %d", m.LineWords(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("arity %d: diff %d = %+v, want %+v", m.LineWords(), i, got[i], want[i])
			}
		}
		if st.DiffWords != uint64(len(want)) {
			t.Fatalf("DiffWords counter = %d, want %d", st.DiffWords, len(want))
		}
		if st.SubDAGSkips == 0 {
			t.Fatalf("expected PLID-equality skips on a near-identical pair, got %+v", st)
		}
	}
}

func TestDiffWordsDifferentHeights(t *testing.T) {
	for _, m := range machines(t) {
		rng := rand.New(rand.NewSource(407))
		short := make([]uint64, 100)
		for i := range short {
			short[i] = rng.Uint64()
		}
		long := append([]uint64(nil), short...)
		for len(long) < 1000 {
			long = append(long, rng.Uint64())
		}
		a := BuildWords(m, short, nil)
		b := BuildWords(m, long, nil)
		got, _ := diffEmits(m, a, b)
		want := bruteDiff(m, a, b)
		if len(got) != len(want) {
			t.Fatalf("arity %d: %d diffs, want %d", m.LineWords(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("arity %d: diff %d = %+v, want %+v", m.LineWords(), i, got[i], want[i])
			}
		}
	}
}

// TestDiffWordsIdenticalZeroReads pins the O(1) identity check of
// §2.2/§3.4: diffing a segment against itself performs zero line reads.
func TestDiffWordsIdenticalZeroReads(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	rng := rand.New(rand.NewSource(408))
	s, _ := randSeg(m, rng, 5000)

	cm := &countingMem{Mem: m}
	got, st := diffEmits(cm, s, s)
	if len(got) != 0 {
		t.Fatalf("self-diff reported %d differences", len(got))
	}
	if cm.reads != 0 {
		t.Fatalf("self-diff read %d lines, want 0", cm.reads)
	}
	if st.LineReads != 0 || st.SubDAGSkips != 1 {
		t.Fatalf("self-diff stats = %+v, want 1 root skip and 0 reads", st)
	}
	if st.SkippedWords != s.Capacity(m.LineWords()) {
		t.Fatalf("SkippedWords = %d, want the full capacity %d", st.SkippedWords, s.Capacity(m.LineWords()))
	}
}

// TestDiffWordsReadsProportionalToChanges pins the delta-cost claim: a
// few changed words in a large segment cost line reads proportional to
// the changed root-to-leaf paths, not the segment size.
func TestDiffWordsReadsProportionalToChanges(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	rng := rand.New(rand.NewSource(409))
	base := make([]uint64, 32768)
	for i := range base {
		base[i] = rng.Uint64()
	}
	a := BuildWords(m, base, nil)
	mut := append([]uint64(nil), base...)
	const changes = 3
	for i := 0; i < changes; i++ {
		mut[rng.Intn(len(mut))]++
	}
	b := BuildWords(m, mut, nil)

	cm := &countingMem{Mem: m}
	got, st := diffEmits(cm, a, b)
	if len(got) != changes {
		t.Fatalf("reported %d diffs, want %d", len(got), changes)
	}
	// Each changed path costs at most height+1 lines per side; everything
	// else must be pruned by PLID equality.
	bound := 2 * changes * (a.Height + 1) * m.LineWords()
	if cm.reads > bound {
		t.Fatalf("diff read %d lines for %d changes (height %d), want <= %d",
			cm.reads, changes, a.Height, bound)
	}
	if st.SubDAGSkips == 0 || st.SkippedWords == 0 {
		t.Fatalf("no sub-DAG skips recorded: %+v", st)
	}
}

func TestDiffWordsEarlyStop(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	rng := rand.New(rand.NewSource(410))
	base := make([]uint64, 4096)
	for i := range base {
		base[i] = rng.Uint64()
	}
	a := BuildWords(m, base, nil)
	mut := append([]uint64(nil), base...)
	for i := 0; i < 50; i++ {
		mut[i*80]++
	}
	b := BuildWords(m, mut, nil)
	calls := 0
	st := DiffWords(m, a, b, func(uint64, uint64, uint64, word.Tag, word.Tag) bool {
		calls++
		return false
	})
	if calls != 1 || st.DiffWords != 1 {
		t.Fatalf("early-stopped diff made %d calls (counter %d), want 1", calls, st.DiffWords)
	}
}

func TestScanWordsZeroSegment(t *testing.T) {
	m := core.NewMachine(core.TestConfig())
	s := NewSparse(3)
	if got, _ := scanEmits(m, s, 0, 64); len(got) != 0 {
		t.Fatalf("zero segment emitted %d words", len(got))
	}
	if ds := DiffWords(m, s, s, nil); ds.SubDAGSkips != 0 || ds.LineReads != 0 {
		t.Fatalf("zero self-diff stats = %+v", ds)
	}
}
