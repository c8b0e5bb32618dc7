package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hds"
	"repro/internal/segmap"
	"repro/internal/word"
)

// testOpts keeps unit tests fast: no aggregation window, tiny segments
// so rolls and truncation actually happen.
func testOpts(dir string) Options {
	return Options{Dir: dir, FlushWindow: 1, SegmentBytes: 4 << 10}
}

// openHeap builds a fresh heap and attaches a DB to it.
func openHeap(t *testing.T, opts Options) (*hds.Heap, *DB) {
	t.Helper()
	h := hds.NewHeap(core.TestConfig())
	db, err := Open(opts, h.M, h.SM)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return h, db
}

// externalRefs derives the CheckConsistency external-reference map from
// the segment map roots — after recovery these are the only references
// not explained by the line DAG itself.
func externalRefs(sm *segmap.Map) map[word.PLID]uint64 {
	ext := make(map[word.PLID]uint64)
	for _, de := range sm.Dump() {
		if de.E.Seg.Root != word.Zero {
			ext[de.E.Seg.Root]++
		}
	}
	return ext
}

func checkMachine(t *testing.T, h *hds.Heap, where string) {
	t.Helper()
	if err := h.M.CheckConsistency(externalRefs(h.SM)); err != nil {
		t.Fatalf("%s: CheckConsistency: %v", where, err)
	}
}

// set writes one pair and releases the builder references.
func set(t *testing.T, h *hds.Heap, mp *hds.Map, k, v string) {
	t.Helper()
	ks := hds.NewString(h, []byte(k))
	vs := hds.NewString(h, []byte(v))
	if err := mp.Set(ks, vs); err != nil {
		t.Fatalf("Set(%q): %v", k, err)
	}
	ks.Release(h)
	vs.Release(h)
}

func del(t *testing.T, h *hds.Heap, mp *hds.Map, k string) {
	t.Helper()
	ks := hds.NewString(h, []byte(k))
	if err := mp.Delete(ks); err != nil {
		t.Fatalf("Delete(%q): %v", k, err)
	}
	ks.Release(h)
}

// get reads one key, releasing every transient reference.
func get(t *testing.T, h *hds.Heap, mp *hds.Map, k string) (string, bool) {
	t.Helper()
	ks := hds.NewString(h, []byte(k))
	defer ks.Release(h)
	vs, ok := mp.Get(ks)
	if !ok {
		return "", false
	}
	b := vs.Bytes(h)
	vs.Release(h)
	return string(b), true
}

// TestDurableRoundTrip is the basic write → close → reopen path: every
// synced key readable byte-for-byte through a fresh machine, derived
// refcounts passing the store's own audit.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h, db := openHeap(t, testOpts(dir))
	mp := hds.NewMap(h)
	if err := db.Bind("kv:test", mp.VSID()); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	want := make(map[string]string)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := fmt.Sprintf("value-%03d-%s", i, string(bytes.Repeat([]byte{'a' + byte(i%26)}, i)))
		set(t, h, mp, k, v)
		want[k] = v
	}
	// Overwrites and deletes must survive too.
	for i := 0; i < 64; i += 3 {
		k := fmt.Sprintf("key-%03d", i)
		if i%2 == 0 {
			set(t, h, mp, k, "rewritten-"+k)
			want[k] = "rewritten-" + k
		} else {
			del(t, h, mp, k)
			delete(want, k)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	h2, db2 := openHeap(t, testOpts(dir))
	defer db2.Close()
	checkMachine(t, h2, "after reopen")
	st := db2.Stats()
	if st.RecoveredLines == 0 || st.ReplayedRecords == 0 {
		t.Fatalf("recovery stats empty: %+v", st)
	}
	v, ok := db2.Binding("kv:test")
	if !ok {
		t.Fatalf("binding lost across restart")
	}
	mp2 := hds.OpenMap(h2, v)
	for k, wantV := range want {
		got, ok := get(t, h2, mp2, k)
		if !ok || got != wantV {
			t.Fatalf("key %q: got (%q, %v), want %q", k, got, ok, wantV)
		}
	}
	for i := 3; i < 64; i += 6 {
		k := fmt.Sprintf("key-%03d", i)
		if _, ok := get(t, h2, mp2, k); ok {
			t.Fatalf("deleted key %q visible after recovery", k)
		}
	}
}

// TestDurableBindings: rebinding overwrites, and both survive a restart.
func TestDurableBindings(t *testing.T) {
	dir := t.TempDir()
	h, db := openHeap(t, testOpts(dir))
	a, b := hds.NewMap(h), hds.NewMap(h)
	if err := db.Bind("root", a.VSID()); err != nil {
		t.Fatal(err)
	}
	if err := db.Bind("root", b.VSID()); err != nil {
		t.Fatal(err)
	}
	if err := db.Bind("other", a.VSID()); err != nil {
		t.Fatal(err)
	}
	db.Close()

	h2, db2 := openHeap(t, testOpts(dir))
	defer db2.Close()
	_ = h2
	if v, ok := db2.Binding("root"); !ok || v != b.VSID() {
		t.Fatalf("root = (%#x, %v), want %#x", uint64(v), ok, uint64(b.VSID()))
	}
	if v, ok := db2.Binding("other"); !ok || v != a.VSID() {
		t.Fatalf("other = (%#x, %v), want %#x", uint64(v), ok, uint64(a.VSID()))
	}
}

// TestDurableTornTail: garbage appended past the last durable frame (a
// torn write at crash) must not lose or corrupt acked state.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	h, db := openHeap(t, testOpts(dir))
	mp := hds.NewMap(h)
	db.Bind("kv:test", mp.VSID())
	set(t, h, mp, "alpha", "one")
	set(t, h, mp, "beta", "two")
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].path
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible-length prefix followed by garbage: parseFrame must
	// reject it on CRC and recovery must stop there.
	f.Write([]byte{40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	f.Close()

	h2, db2 := openHeap(t, testOpts(dir))
	defer db2.Close()
	checkMachine(t, h2, "after torn tail")
	v, _ := db2.Binding("kv:test")
	mp2 := hds.OpenMap(h2, v)
	for k, want := range map[string]string{"alpha": "one", "beta": "two"} {
		if got, ok := get(t, h2, mp2, k); !ok || got != want {
			t.Fatalf("key %q: got (%q, %v), want %q", k, got, ok, want)
		}
	}
}

// TestDurableCheckpointTruncatesLog: after a checkpoint, sealed segments
// behind the anchor are gone, the checkpoint file exists, and recovery
// from checkpoint + tail reproduces the state.
func TestDurableCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SegmentBytes = 1 << 10 // force many rolls
	h, db := openHeap(t, opts)
	mp := hds.NewMap(h)
	db.Bind("kv:test", mp.VSID())
	// Sync every 20 sets: each flush rolls to a fresh segment once the
	// current one is full, so the log spans several segments whatever the
	// background flusher got to run (at GOMAXPROCS=1 it may not run at all
	// during the loop, and one final flush would leave only two).
	for i := 0; i < 200; i++ {
		set(t, h, mp, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i))
		if i%20 == 19 {
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	segsBefore, _ := listSegments(dir)
	if len(segsBefore) < 3 {
		t.Fatalf("expected several segments before checkpoint, got %d", len(segsBefore))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	segsAfter, _ := listSegments(dir)
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("checkpoint did not truncate: %d -> %d segments", len(segsBefore), len(segsAfter))
	}
	if st := db.Stats(); st.Checkpoints != 1 || st.CheckpointLines == 0 {
		t.Fatalf("checkpoint stats: %+v", st)
	}

	// Post-checkpoint writes land in the tail and must replay on top.
	set(t, h, mp, "k000", "rewritten")
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	h2, db2 := openHeap(t, opts)
	defer db2.Close()
	checkMachine(t, h2, "after checkpointed reopen")
	v, _ := db2.Binding("kv:test")
	mp2 := hds.OpenMap(h2, v)
	if got, ok := get(t, h2, mp2, "k000"); !ok || got != "rewritten" {
		t.Fatalf("k000 = (%q, %v), want tail write", got, ok)
	}
	if got, ok := get(t, h2, mp2, "k199"); !ok || got != "v199" {
		t.Fatalf("k199 = (%q, %v), want checkpointed write", got, ok)
	}
}

// TestDurableGeometryMismatch: the PLID space is positional, so a
// machine with different geometry must be refused, not corrupted.
func TestDurableGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	h, db := openHeap(t, testOpts(dir))
	mp := hds.NewMap(h)
	set(t, h, mp, "a", "b")
	db.Sync()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	cfg := core.TestConfig()
	cfg.BucketBits = cfg.BucketBits + 1
	m := core.NewMachine(cfg)
	sm := segmap.New(m)
	if _, err := Open(testOpts(dir), m, sm); err == nil {
		t.Fatalf("Open accepted a mismatched geometry")
	}
}

// TestRecoveryIdempotent: recovery is read-only on disk, so recovering
// the same directory twice — the crash-during-recovery scenario — must
// produce byte-identical state.
func TestRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	h, db := openHeap(t, testOpts(dir))
	mp := hds.NewMap(h)
	db.Bind("kv:test", mp.VSID())
	for i := 0; i < 100; i++ {
		set(t, h, mp, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	db.Sync()
	db.Checkpoint()
	for i := 0; i < 50; i++ {
		set(t, h, mp, fmt.Sprintf("k%d", i), fmt.Sprintf("w%d", i))
	}
	db.Sync()
	db.Close()

	recoverOnce := func() (map[word.PLID]word.Content, []segmap.DumpEntry, map[string]word.VSID) {
		m := core.NewMachine(core.TestConfig())
		sm := segmap.New(m)
		rec, err := recoverState(dir, m, sm)
		if err != nil {
			t.Fatalf("recoverState: %v", err)
		}
		lines := make(map[word.PLID]word.Content)
		m.ForEachLiveLine(func(p word.PLID, c word.Content, _ uint64) bool {
			lines[p] = c
			return true
		})
		return lines, sm.Dump(), rec.bindings
	}
	l1, r1, b1 := recoverOnce()
	l2, r2, b2 := recoverOnce()
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("line sets differ between recoveries: %d vs %d", len(l1), len(l2))
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("segment maps differ between recoveries")
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Fatalf("bindings differ between recoveries")
	}
	if len(l1) == 0 || len(r1) == 0 {
		t.Fatalf("recovered nothing: %d lines, %d roots", len(l1), len(r1))
	}
}

// TestDurableFrameRoundTrip exercises the record codec for every kind.
func TestDurableFrameRoundTrip(t *testing.T) {
	var c word.Content
	c.N = 3
	c.T[0], c.W[0] = word.TagRaw, 0x1122334455667788
	c.T[1], c.W[1] = word.TagPLID, 42
	c.T[2], c.W[2] = word.TagCompact, 0xdeadbeef

	var buf []byte
	buf = appendAllocFrame(buf, 1, word.PLID(7), c)
	buf = appendFreeFrame(buf, 2, word.PLID(7))
	buf = appendPublishFrame(buf, 3, word.VSID(9), word.PLID(7), 4, 1, 123)
	buf = appendDeleteFrame(buf, 4, word.VSID(9))
	buf = appendBindFrame(buf, 5, "kv:root", word.VSID(9))

	wantKinds := []uint8{recAlloc, recFree, recPublish, recDelete, recBind}
	p := buf
	for i, k := range wantKinds {
		f, n, intact, err := parseFrame(p)
		if err != nil || !intact {
			t.Fatalf("frame %d: err=%v intact=%v", i, err, intact)
		}
		if f.kind != k || f.lsn != uint64(i+1) {
			t.Fatalf("frame %d: kind=%d lsn=%d", i, f.kind, f.lsn)
		}
		switch k {
		case recAlloc:
			if f.plid != 7 || f.content != c {
				t.Fatalf("alloc frame mismatch: %+v", f)
			}
		case recPublish:
			if f.vsid != 9 || f.root != 7 || f.height != 4 || f.flags != 1 || f.size != 123 {
				t.Fatalf("publish frame mismatch: %+v", f)
			}
		case recBind:
			if f.label != "kv:root" || f.vsid != 9 {
				t.Fatalf("bind frame mismatch: %+v", f)
			}
		}
		p = p[n:]
	}
	if len(p) != 0 {
		t.Fatalf("%d trailing bytes", len(p))
	}

	// Torn head: every strict prefix of the last frame parses as
	// not-intact, never as an error or a bogus frame.
	p = buf
	off := 0
	for i := 0; i < len(wantKinds)-1; i++ {
		_, n, _, _ := parseFrame(p)
		p = p[n:]
		off += n
	}
	for cut := off + 1; cut < len(buf); cut++ {
		_, _, intact, err := parseFrame(buf[off:cut])
		if err != nil {
			t.Fatalf("cut %d: spurious error %v", cut, err)
		}
		if intact {
			t.Fatalf("cut %d: truncated frame parsed as intact", cut)
		}
	}
	// A corrupted byte inside a full frame must fail the CRC.
	bad := append([]byte(nil), buf[off:]...)
	bad[len(bad)-1] ^= 0xff
	if _, _, intact, _ := parseFrame(bad); intact {
		t.Fatalf("corrupted frame parsed as intact")
	}
}

// TestDurableCleanDirIsEmpty: opening an empty directory recovers
// nothing and works.
func TestDurableCleanDirIsEmpty(t *testing.T) {
	dir := t.TempDir()
	_, db := openHeap(t, testOpts(dir))
	defer db.Close()
	st := db.Stats()
	if st.RecoveredLines != 0 || st.RecoveredRoots != 0 || st.ReplayedRecords != 0 {
		t.Fatalf("fresh dir recovered state: %+v", st)
	}
	if !db.Enabled() {
		t.Fatalf("open DB does not report itself enabled")
	}
	if err := db.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// TestDurableCrashedCheckpointIgnored: a .tmp checkpoint (crash before
// rename) must be ignored and cleaned by the next checkpoint.
func TestDurableCrashedCheckpointIgnored(t *testing.T) {
	dir := t.TempDir()
	h, db := openHeap(t, testOpts(dir))
	mp := hds.NewMap(h)
	db.Bind("kv:test", mp.VSID())
	set(t, h, mp, "a", "b")
	db.Sync()
	db.Close()

	tmp := filepath.Join(dir, ckptName(99)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	h2, db2 := openHeap(t, testOpts(dir))
	defer db2.Close()
	v, _ := db2.Binding("kv:test")
	mp2 := hds.OpenMap(h2, v)
	if got, ok := get(t, h2, mp2, "a"); !ok || got != "b" {
		t.Fatalf("a = (%q, %v)", got, ok)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale .tmp survived a checkpoint: %v", err)
	}
}

// TestDurableBackgroundCheckpoints: the CheckpointEvery loop runs and
// the DB stays consistent underneath it.
func TestDurableBackgroundCheckpoints(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.CheckpointEvery = 5 * time.Millisecond
	h, db := openHeap(t, opts)
	mp := hds.NewMap(h)
	db.Bind("kv:test", mp.VSID())
	deadline := time.Now().Add(200 * time.Millisecond)
	i := 0
	for time.Now().Before(deadline) {
		set(t, h, mp, fmt.Sprintf("k%d", i%32), fmt.Sprintf("v%d", i))
		i++
		if db.Stats().Checkpoints >= 2 && i > 64 {
			break
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Checkpoints == 0 {
		t.Skip("no background checkpoint completed in the window (slow host)")
	}
	db.Close()
	h2, db2 := openHeap(t, testOpts(dir))
	defer db2.Close()
	checkMachine(t, h2, "after background checkpoints")
}

// TestSyncCutsFlushWindowShort: the flush window is there so concurrent
// appenders share an fsync, not to make a parked waiter sit it out — a
// lone writer's Sync returns in about an fsync, not a window.
func TestSyncCutsFlushWindowShort(t *testing.T) {
	const window = 200 * time.Millisecond
	h, db := openHeap(t, Options{Dir: t.TempDir(), FlushWindow: window})
	defer db.Close()
	mp := hds.NewMap(h)
	best := window
	for i := 0; i < 3 && best >= window/2; i++ { // best of three: one slow fsync is not a failure
		set(t, h, mp, fmt.Sprintf("k%d", i), "v")
		start := time.Now()
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	if best >= window/2 {
		t.Fatalf("lone append + Sync took %v with a %v flush window", best, window)
	}
}
