package merge

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/segmap"
	"repro/internal/segment"
	"repro/internal/word"
)

func setup() (*core.Machine, *segmap.Map) {
	m := core.NewMachine(core.TestConfig())
	return m, segmap.New(m)
}

func buildAt(m *core.Machine, height int, kv map[uint64]uint64) segment.Seg {
	return modify(m, segment.NewSparse(height), kv)
}

func modify(m *core.Machine, base segment.Seg, kv map[uint64]uint64) segment.Seg {
	ups := make([]segment.Update, 0, len(kv))
	for k, v := range kv {
		ups = append(ups, segment.Update{Idx: k, W: v, T: word.TagRaw})
	}
	return write(m, base, ups...)
}

// write commits ups over base in one WriteBatch; the caller owns the
// returned root and keeps its reference on base.
func write(m word.Mem, base segment.Seg, ups ...segment.Update) segment.Seg {
	s, _ := segment.WriteBatch(m, base, ups)
	return s
}

func TestMergeDisjointWrites(t *testing.T) {
	// §3.4: two non-conflicting entries added concurrently both land.
	m, _ := setup()
	orig := buildAt(m, 8, map[uint64]uint64{10: 1, 200: 2})
	mod := modify(m, orig, map[uint64]uint64{50: 77})  // this thread
	cur := modify(m, orig, map[uint64]uint64{400: 88}) // interleaver
	var st Stats
	got, err := Merge(m, orig, mod, cur, &st)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{10: 1, 200: 2, 50: 77, 400: 88}
	for k, v := range want {
		if g, _ := segment.ReadWord(m, got, k); g != v {
			t.Fatalf("merged[%d] = %d, want %d", k, g, v)
		}
	}
	if st.SubDAGSkips == 0 {
		t.Fatal("identical sub-DAGs not skipped by PLID comparison")
	}
}

func TestMergeInsertAndDelete(t *testing.T) {
	// Concurrent insert (zero -> value) and delete (value -> zero) on
	// different entries resolve without conflict (§4.3).
	m, _ := setup()
	orig := buildAt(m, 8, map[uint64]uint64{100: 5})
	mod := modify(m, orig, map[uint64]uint64{100: 0}) // delete
	cur := modify(m, orig, map[uint64]uint64{101: 9}) // insert
	got, err := Merge(m, orig, mod, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := segment.ReadWord(m, got, 100); v != 0 {
		t.Fatal("delete lost in merge")
	}
	if v, _ := segment.ReadWord(m, got, 101); v != 9 {
		t.Fatal("insert lost in merge")
	}
}

func TestMergeCounterDeltas(t *testing.T) {
	// §3.4: counter segments merge by summing concurrent increments.
	m, _ := setup()
	orig := buildAt(m, 4, map[uint64]uint64{3: 100})
	mod := modify(m, orig, map[uint64]uint64{3: 107}) // +7
	cur := modify(m, orig, map[uint64]uint64{3: 104}) // +4
	got, err := Merge(m, orig, mod, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := segment.ReadWord(m, got, 3); v != 111 {
		t.Fatalf("merged counter = %d, want 111", v)
	}
}

func TestMergeSameValueBothSides(t *testing.T) {
	m, _ := setup()
	orig := buildAt(m, 4, map[uint64]uint64{1: 1})
	mod := modify(m, orig, map[uint64]uint64{2: 42})
	cur := modify(m, orig, map[uint64]uint64{2: 42})
	got, err := Merge(m, orig, mod, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := segment.ReadWord(m, got, 2); v != 42 {
		t.Fatalf("merged = %d, want 42", v)
	}
	if !got.Equal(cur) {
		t.Fatal("identical updates must merge to the identical segment")
	}
}

func TestMergePLIDConflictFails(t *testing.T) {
	// Two threads storing distinct references into the same field is a
	// true conflict (§3.4).
	m, _ := setup()
	pa := m.LookupLine(word.ContentFromBytes(m.LineWords(), []byte("target A")))
	pb := m.LookupLine(word.ContentFromBytes(m.LineWords(), []byte("target B")))
	orig := buildAt(m, 4, map[uint64]uint64{7: 1})
	mkRef := func(p word.PLID) segment.Seg {
		return write(m, orig, segment.Update{Idx: 9, W: uint64(p), T: word.TagPLID})
	}
	mod, cur := mkRef(pa), mkRef(pb)
	if _, err := Merge(m, orig, mod, cur, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
}

func TestMergeVSIDSameRefBothSides(t *testing.T) {
	m, _ := setup()
	orig := buildAt(m, 4, map[uint64]uint64{1: 1})
	mk := func(extra uint64) segment.Seg {
		ups := []segment.Update{{Idx: 5, W: 123, T: word.TagVSID}}
		if extra != 0 {
			ups = append(ups, segment.Update{Idx: 6, W: extra, T: word.TagRaw})
		}
		return write(m, orig, ups...)
	}
	mod, cur := mk(0), mk(99)
	got, err := Merge(m, orig, mod, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, tag := segment.ReadWord(m, got, 5); v != 123 || tag != word.TagVSID {
		t.Fatalf("VSID word = %d/%v", v, tag)
	}
	if v, _ := segment.ReadWord(m, got, 6); v != 99 {
		t.Fatal("cur-side write lost")
	}
}

func TestMergeHeightMismatchRebases(t *testing.T) {
	// A version that grew (taller DAG) merges against shorter versions by
	// zero-padded re-rooting instead of conflicting; disjoint writes all
	// land and the result takes the maximum height.
	m, _ := setup()
	orig := buildAt(m, 3, map[uint64]uint64{1: 1, 7: 7})
	mod := modify(m, orig, map[uint64]uint64{1 << 12: 42}) // grows past capacity
	cur := modify(m, orig, map[uint64]uint64{2: 9})        // stays short
	if mod.Height <= orig.Height {
		t.Fatalf("test setup: mod did not grow (height %d)", mod.Height)
	}
	var st Stats
	got, err := Merge(m, orig, mod, cur, &st)
	if err != nil {
		t.Fatalf("height-mismatched disjoint merge conflicted: %v", err)
	}
	if got.Height != mod.Height {
		t.Fatalf("merged height = %d, want %d", got.Height, mod.Height)
	}
	if st.HeightAligned != 1 {
		t.Fatalf("HeightAligned = %d, want 1", st.HeightAligned)
	}
	for k, v := range map[uint64]uint64{1: 1, 7: 7, 1 << 12: 42, 2: 9} {
		if g, _ := segment.ReadWord(m, got, k); g != v {
			t.Fatalf("merged[%d] = %d, want %d", k, g, v)
		}
	}
	// The rebased result must be canonical: PLID-equal to writing the
	// same content directly.
	direct := modify(m, mod, map[uint64]uint64{2: 9})
	if !got.Equal(direct) {
		t.Fatalf("rebased merge not canonical (%#x/%d vs %#x/%d)",
			got.Root, got.Height, direct.Root, direct.Height)
	}
}

func TestMergeHeightMismatchAllShapes(t *testing.T) {
	// Any of the three versions may be the tall one; every shape rebases.
	m, _ := setup()
	short := buildAt(m, 3, map[uint64]uint64{1: 1})
	tall := modify(m, short, map[uint64]uint64{1 << 12: 5})
	cases := []struct {
		name             string
		orig, mod, cur   segment.Seg
		wantIdx, wantVal uint64
	}{
		{"mod grew", short, tall, modify(m, short, map[uint64]uint64{2: 2}), 1 << 12, 5},
		{"cur grew", short, modify(m, short, map[uint64]uint64{2: 2}), tall, 1 << 12, 5},
		{"orig tallest (both truncated views identical)", tall, short, short, 1, 1},
	}
	for _, tc := range cases {
		got, err := Merge(m, tc.orig, tc.mod, tc.cur, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if v, _ := segment.ReadWord(m, got, tc.wantIdx); v != tc.wantVal {
			t.Fatalf("%s: merged[%d] = %d, want %d", tc.name, tc.wantIdx, v, tc.wantVal)
		}
	}
}

func TestMergeTrueConflictAcrossHeights(t *testing.T) {
	// Height alignment does not mask true conflicts: distinct references
	// stored into the same field still fail, even when one side grew.
	m, _ := setup()
	pa := m.LookupLine(word.ContentFromBytes(m.LineWords(), []byte("target A")))
	pb := m.LookupLine(word.ContentFromBytes(m.LineWords(), []byte("target B")))
	orig := buildAt(m, 3, map[uint64]uint64{1: 1})
	mkRef := func(p word.PLID, grow bool) segment.Seg {
		ups := []segment.Update{{Idx: 9, W: uint64(p), T: word.TagPLID}}
		if grow {
			ups = append(ups, segment.Update{Idx: 1 << 12, W: 3, T: word.TagRaw})
		}
		return write(m, orig, ups...)
	}
	mod, cur := mkRef(pa, true), mkRef(pb, false)
	if _, err := Merge(m, orig, mod, cur, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
}

func TestMergeMatchesSerial(t *testing.T) {
	// The wave engine and the recursive reference walker are PLID-equal
	// on every equal-height input.
	m, _ := setup()
	orig := buildAt(m, 8, map[uint64]uint64{3: 3, 900: 9, 5000: 5})
	mod := modify(m, orig, map[uint64]uint64{3: 30, 77: 7})
	cur := modify(m, orig, map[uint64]uint64{900: 90, 5001: 51})
	var wst, sst Stats
	wave, err := Merge(m, orig, mod, cur, &wst)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := MergeSerial(m, orig, mod, cur, &sst)
	if err != nil {
		t.Fatal(err)
	}
	if !wave.Equal(serial) {
		t.Fatalf("wave %#x/%d != serial %#x/%d",
			wave.Root, wave.Height, serial.Root, serial.Height)
	}
	if wst.WaveLevels == 0 || wst.LineReads == 0 {
		t.Fatalf("wave stats not populated: %+v", wst)
	}
}

func TestMCASResolvesContention(t *testing.T) {
	// The paper's mCAS: concurrent disjoint updates all land without
	// application-level retry.
	m, sm := setup()
	base := buildAt(m, 10, map[uint64]uint64{0: 1})
	v := sm.Create(segmap.Entry{Seg: base, Flags: segmap.FlagMergeUpdate})

	const workers, updates = 8, 25
	var wg sync.WaitGroup
	var st Stats
	var mu sync.Mutex
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < updates; i++ {
				old, err := sm.Load(v)
				if err != nil {
					t.Error(err)
					return
				}
				idx := uint64(1 + g*updates + i) // disjoint per worker
				next := write(m, old.Seg, segment.Update{Idx: idx, W: uint64(g + 1), T: word.TagRaw})
				var local Stats
				ok, err := MCAS(m, sm, v, old.Seg, next, 0, &local)
				segment.ReleaseSeg(m, old.Seg)
				if err != nil || !ok {
					t.Errorf("worker %d update %d: ok=%v err=%v", g, i, ok, err)
					return
				}
				mu.Lock()
				st.Merges += local.Merges
				st.Failures += local.Failures
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	final, _ := sm.Load(v)
	defer segment.ReleaseSeg(m, final.Seg)
	for g := 0; g < workers; g++ {
		for i := 0; i < updates; i++ {
			idx := uint64(1 + g*updates + i)
			if val, _ := segment.ReadWord(m, final.Seg, idx); val != uint64(g+1) {
				t.Fatalf("update [%d] lost: %d", idx, val)
			}
		}
	}
	if st.Failures != 0 {
		t.Fatalf("%d merge failures for disjoint updates", st.Failures)
	}
}

func TestMCASCounterSegment(t *testing.T) {
	// §4.3: concurrent counter increments resolve to the sum via the
	// raw-word delta rule. Each worker adds a distinct amount (64^g):
	// content-unique versions make two IDENTICAL concurrent deltas
	// indistinguishable from an already-merged state (cur == mod absorbs
	// instead of summing — the paper's rule shares this), so exactness
	// requires concurrent increments to differ in content, which
	// worker-distinct amounts guarantee.
	m, sm := setup()
	base := buildAt(m, 6, map[uint64]uint64{0: 0})
	v := sm.Create(segmap.Entry{Seg: base, Flags: segmap.FlagMergeUpdate})
	const workers, incs = 6, 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			amount := uint64(1) << (6 * g)
			for i := 0; i < incs; i++ {
				old, _ := sm.Load(v)
				cur, _ := segment.ReadWord(m, old.Seg, 0)
				next := write(m, old.Seg, segment.Update{Idx: 0, W: cur + amount, T: word.TagRaw})
				if ok, err := MCAS(m, sm, v, old.Seg, next, 0, nil); !ok || err != nil {
					t.Errorf("mcas: %v %v", ok, err)
				}
				segment.ReleaseSeg(m, old.Seg)
			}
		}(g)
	}
	wg.Wait()
	final, _ := sm.Load(v)
	defer segment.ReleaseSeg(m, final.Seg)
	var want uint64
	for g := 0; g < workers; g++ {
		want += uint64(incs) << (6 * g)
	}
	if got, _ := segment.ReadWord(m, final.Seg, 0); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestMCASRequiresFlag(t *testing.T) {
	m, sm := setup()
	base := buildAt(m, 4, map[uint64]uint64{0: 1})
	v := sm.Create(segmap.Entry{Seg: base}) // no merge-update flag
	old, _ := sm.Load(v)
	next := modify(m, old.Seg, map[uint64]uint64{1: 2})
	if ok, err := MCAS(m, sm, v, old.Seg, next, 0, nil); ok || err == nil {
		t.Fatal("MCAS on unflagged segment succeeded")
	}
	segment.ReleaseSeg(m, old.Seg)
}

func TestMergeLeavesNoLeaks(t *testing.T) {
	m, sm := setup()
	base := buildAt(m, 8, map[uint64]uint64{5: 50})
	v := sm.Create(segmap.Entry{Seg: base, Flags: segmap.FlagMergeUpdate})
	for i := 0; i < 20; i++ {
		old, _ := sm.Load(v)
		next := modify(m, old.Seg, map[uint64]uint64{uint64(i): uint64(i + 1)})
		if ok, _ := MCAS(m, sm, v, old.Seg, next, 0, nil); !ok {
			t.Fatal("mcas failed")
		}
		segment.ReleaseSeg(m, old.Seg)
	}
	final, _ := sm.Load(v)
	ext := map[word.PLID]uint64{final.Seg.Root: 2} // map's ref + our load
	if err := m.CheckConsistency(ext); err != nil {
		t.Fatal(err)
	}
	segment.ReleaseSeg(m, final.Seg)
}

// BenchmarkMergeWaveRebase times the wave rebase engine on a full-depth
// triple: mod and cur update adjacent words of the same 32 leaf lines of
// a 16384-word segment, so neither side can resolve by sub-DAG skipping
// near the root.
func BenchmarkMergeWaveRebase(b *testing.B) {
	const n, k = 16384, 32
	m := core.NewMachine(core.DefaultConfig(64))
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = uint64(i%509) + 1
	}
	orig := segment.BuildWords(m, ws, nil)
	ups := func(off int) []segment.Update {
		out := make([]segment.Update, k)
		for i := range out {
			out[i] = segment.Update{
				Idx: uint64((n/k)*i + off),
				W:   uint64(i + off + 5000),
				T:   word.TagRaw,
			}
		}
		return out
	}
	mod, _ := segment.WriteBatch(m, orig, ups(0))
	cur, _ := segment.WriteBatch(m, orig, ups(1))
	b.Run("wave", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, err := Merge(m, orig, mod, cur, nil)
			if err != nil {
				b.Fatal(err)
			}
			segment.ReleaseSeg(m, got)
		}
	})
}
