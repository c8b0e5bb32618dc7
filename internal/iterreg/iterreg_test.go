package iterreg

import (
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

func TestSequentialAccessReusesPath(t *testing.T) {
	m, _ := setup()
	ws := make([]uint64, 256)
	for i := range ws {
		ws[i] = uint64(i) << 33 // defeat inlining: full DAG of lines
	}
	seg := segment.BuildWords(m, ws, nil)
	it := NewSegmentIterator(m, seg)
	for i := range ws {
		if v, _ := it.Load(uint64(i)); v != ws[i] {
			t.Fatalf("load[%d] = %d, want %d", i, v, ws[i])
		}
	}
	if it.Stats.PathReuses == 0 {
		t.Fatal("sequential scan never reused the cached path")
	}
	// §3.3: sequential access through the register costs at most ~2x the
	// line count of the flat data (interior nodes), not height * leaves.
	leaves := uint64(len(ws) / m.LineWords())
	if it.Stats.LineLoads > 2*leaves+uint64(seg.Height)+1 {
		t.Fatalf("LineLoads = %d for %d leaves; path caching broken",
			it.Stats.LineLoads, leaves)
	}
}

func TestRandomAccessCorrectness(t *testing.T) {
	m, _ := setup()
	ws := make([]uint64, 512)
	for i := range ws {
		ws[i] = uint64(i * i)
	}
	seg := segment.BuildWords(m, ws, nil)
	it := NewSegmentIterator(m, seg)
	for _, i := range []uint64{511, 0, 256, 255, 3, 500, 1, 499} {
		if v, _ := it.Load(i); v != ws[i] {
			t.Fatalf("load[%d] = %d, want %d", i, v, ws[i])
		}
	}
	if v, _ := it.Load(1 << 30); v != 0 {
		t.Fatal("out-of-capacity load non-zero")
	}
}

func TestIteratorSnapshotIsolation(t *testing.T) {
	// §4.2: an iterator visits the collection exactly as it was when the
	// register was loaded, independent of concurrent updates.
	m, sm := setup()
	v := sm.Create(segmap.Entry{Seg: segment.BuildWords(m, []uint64{1, 2, 3, 4}, nil), Size: 32})
	reader, err := Open(m, sm, segmap.ReadOnlyRef(v))
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	writer, _ := Open(m, sm, v)
	writer.Store(1, 99, word.TagRaw)
	if ok, err := writer.TryCommit(32); !ok || err != nil {
		t.Fatalf("commit: %v %v", ok, err)
	}
	writer.Close()

	if got, _ := reader.Load(1); got != 2 {
		t.Fatalf("snapshot saw concurrent update: %d", got)
	}
	fresh, _ := Open(m, sm, v)
	defer fresh.Close()
	if got, _ := fresh.Load(1); got != 99 {
		t.Fatalf("new iterator missed committed update: %d", got)
	}
}

func TestReadOnlyIteratorCannotCommit(t *testing.T) {
	m, sm := setup()
	v := sm.Create(segmap.Entry{Seg: segment.BuildWords(m, []uint64{7}, nil)})
	it, _ := Open(m, sm, segmap.ReadOnlyRef(v))
	defer it.Close()
	it.Store(0, 1, word.TagRaw)
	ok, _ := it.TryCommit(8)
	if ok {
		t.Fatal("read-only reference committed")
	}
	cur, _ := sm.Load(v)
	defer segment.ReleaseSeg(m, cur.Seg)
	if got, _ := segment.ReadWord(m, cur.Seg, 0); got != 7 {
		t.Fatal("read-only commit mutated the segment")
	}
}

func TestTryCommitConflictRetry(t *testing.T) {
	m, sm := setup()
	v := sm.Create(segmap.Entry{Seg: segment.BuildWords(m, []uint64{10, 20}, nil)})
	a, _ := Open(m, sm, v)
	b, _ := Open(m, sm, v)
	defer a.Close()
	defer b.Close()

	a.Store(0, 11, word.TagRaw)
	b.Store(1, 21, word.TagRaw)
	if ok, _ := a.TryCommit(16); !ok {
		t.Fatal("first commit failed")
	}
	if ok, _ := b.TryCommit(16); ok {
		t.Fatal("stale commit succeeded without merge")
	}
	// The failed iterator reloaded; the conventional CAS retry loop:
	b.Store(1, 21, word.TagRaw)
	if ok, _ := b.TryCommit(16); !ok {
		t.Fatal("retry after reload failed")
	}
	final, _ := Open(m, sm, v)
	defer final.Close()
	if x, _ := final.Load(0); x != 11 {
		t.Fatal("first writer's update lost")
	}
	if x, _ := final.Load(1); x != 21 {
		t.Fatal("second writer's update lost")
	}
}

func TestCommitStatsCountOutcomes(t *testing.T) {
	// Commits counts successful publishes only; a lost CAS is a
	// CommitFail, not a commit. (Regression: the counter used to
	// increment before the outcome was known, so contended commits
	// inflated it.)
	m, sm := setup()
	v := sm.Create(segmap.Entry{Seg: segment.BuildWords(m, []uint64{10, 20}, nil)})
	a, _ := Open(m, sm, v)
	b, _ := Open(m, sm, v)
	defer a.Close()
	defer b.Close()

	a.Store(0, 11, word.TagRaw)
	b.Store(1, 21, word.TagRaw)
	if ok, _ := a.TryCommit(16); !ok {
		t.Fatal("first commit failed")
	}
	if ok, _ := b.TryCommit(16); ok {
		t.Fatal("stale commit succeeded without merge")
	}
	if b.Stats.Commits != 0 || b.Stats.CommitFails != 1 {
		t.Fatalf("after lost CAS: Commits=%d CommitFails=%d, want 0/1",
			b.Stats.Commits, b.Stats.CommitFails)
	}
	b.Store(1, 21, word.TagRaw)
	if ok, _ := b.TryCommit(16); !ok {
		t.Fatal("retry after reload failed")
	}
	if b.Stats.Commits != 1 || b.Stats.CommitFails != 1 {
		t.Fatalf("after retry: Commits=%d CommitFails=%d, want 1/1",
			b.Stats.Commits, b.Stats.CommitFails)
	}
	// An empty commit publishes nothing and counts nothing.
	if ok, _ := b.TryCommit(16); !ok {
		t.Fatal("empty commit should trivially succeed")
	}
	if b.Stats.Commits != 1 {
		t.Fatal("empty commit must not count as a publish")
	}
	if a.Stats.Commits != 1 || a.Stats.CommitFails != 0 {
		t.Fatalf("winner: Commits=%d CommitFails=%d, want 1/0",
			a.Stats.Commits, a.Stats.CommitFails)
	}
}

// CommitMerge is TryCommit with merge-update (§3.4): on CAS conflict the
// versions are three-way merged and only true data conflicts fail. The
// segment must be flagged segmap.FlagMergeUpdate. No binary publishes
// through a register with merge-update (hds lowers its updates to
// segment.WriteBatch and merge.MCAS), so only these tests reach it.
func (it *Iterator) CommitMerge(size uint64) (bool, error) {
	return it.commit(size, true)
}

func TestCommitMergeResolvesConflict(t *testing.T) {
	m, sm := setup()
	v := sm.Create(segmap.Entry{
		Seg:   segment.BuildWords(m, []uint64{1, 0, 0, 0}, nil),
		Flags: segmap.FlagMergeUpdate,
	})
	a, _ := Open(m, sm, v)
	b, _ := Open(m, sm, v)
	defer a.Close()
	defer b.Close()
	a.Store(1, 100, word.TagRaw)
	b.Store(2, 200, word.TagRaw)
	if ok, err := a.CommitMerge(32); !ok || err != nil {
		t.Fatalf("a: %v %v", ok, err)
	}
	if ok, err := b.CommitMerge(32); !ok || err != nil {
		t.Fatalf("b (merge path): %v %v", ok, err)
	}
	final, _ := Open(m, sm, v)
	defer final.Close()
	for i, want := range []uint64{1, 100, 200, 0} {
		if got, _ := final.Load(uint64(i)); got != want {
			t.Fatalf("final[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestIteratorNextNonZero(t *testing.T) {
	m, sm := setup()
	var ups []segment.Update
	for _, i := range []uint64{3, 700, 1500} {
		ups = append(ups, segment.Update{Idx: i, W: i, T: word.TagRaw})
	}
	seg, _ := segment.WriteBatch(m, segment.NewSparse(10), ups)
	v := sm.Create(segmap.Entry{Seg: seg})
	it, _ := Open(m, sm, v)
	defer it.Close()
	var got []uint64
	for at, ok := it.NextNonZero(0); ok; at, ok = it.NextNonZero(at + 1) {
		got = append(got, at)
	}
	want := []uint64{3, 700, 1500}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestNextNonZeroSeesPendingWrites(t *testing.T) {
	m, sm := setup()
	v := sm.Create(segmap.Entry{Seg: segment.NewSparse(6)})
	it, _ := Open(m, sm, v)
	defer it.Close()
	it.Store(42, 1, word.TagRaw)
	at, ok := it.NextNonZero(0)
	if !ok || at != 42 {
		t.Fatalf("NextNonZero = %d,%v", at, ok)
	}
}

func TestAbortViaCloseReleasesLines(t *testing.T) {
	m, sm := setup()
	v := sm.Create(segmap.Entry{Seg: segment.BuildWords(m, []uint64{1, 2, 3, 4}, nil)})
	live := m.LiveLines()
	it, _ := Open(m, sm, v)
	it.Store(0, 999, word.TagRaw)
	it.Close() // abort
	if m.LiveLines() != live {
		t.Fatalf("abandoned writes leaked lines: %d -> %d", live, m.LiveLines())
	}
}

func TestDetachedCommitSegment(t *testing.T) {
	m, _ := setup()
	base := segment.BuildWords(m, []uint64{5, 6}, nil)
	it := NewSegmentIterator(m, base)
	it.Store(0, 50, word.TagRaw)
	got := it.CommitSegment()
	if v, _ := segment.ReadWord(m, got, 0); v != 50 {
		t.Fatal("detached commit lost write")
	}
	if v, _ := segment.ReadWord(m, base, 0); v != 5 {
		t.Fatal("detached commit mutated base")
	}
}

func TestLoadAfterStoreSeesOwnWrite(t *testing.T) {
	m, sm := setup()
	v := sm.Create(segmap.Entry{Seg: segment.BuildWords(m, []uint64{1}, nil)})
	it, _ := Open(m, sm, v)
	defer it.Close()
	it.Store(0, 2, word.TagRaw)
	if got, _ := it.Load(0); got != 2 {
		t.Fatalf("read-own-write = %d", got)
	}
}
