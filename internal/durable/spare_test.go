package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hds"
)

// stat returns the FileInfo of one file in dir.
func stat(t *testing.T, dir, name string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// checkKeys reopens dir and checks that exactly want is bound.
func checkKeys(t *testing.T, opts Options, want map[string]string, absent []string) {
	t.Helper()
	h, db := openHeap(t, opts)
	defer db.Close()
	checkMachine(t, h, "after reopen")
	v, ok := db.Binding("kv:test")
	if !ok {
		t.Fatalf("binding lost across restart")
	}
	mp := hds.OpenMap(h, v)
	for k, wantV := range want {
		if got, ok := get(t, h, mp, k); !ok || got != wantV {
			t.Fatalf("key %q: got (%q, %v), want %q", k, got, ok, wantV)
		}
	}
	for _, k := range absent {
		if _, ok := get(t, h, mp, k); ok {
			t.Fatalf("deleted key %q visible after recovery", k)
		}
	}
}

// TestDurableSpareSegmentsReused: checkpoints retire segments as spare
// files instead of deleting them, the next segments are written over
// those files in place, and recovery reads a reused segment only up to
// its own records — in a non-final segment (which ends where its
// successor starts) and in the final one (which ends at the first stale
// record) alike.
func TestDurableSpareSegmentsReused(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SegmentBytes = 1 << 20 // segments roll only when asked to
	h, db := openHeap(t, opts)
	mp := hds.NewMap(h)
	db.Bind("kv:test", mp.VSID())
	want := make(map[string]string)
	put := func(k, v string) {
		set(t, h, mp, k, v)
		want[k] = v
	}
	sync := func() {
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := func() {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 100; i++ {
		put(fmt.Sprintf("k%03d", i), fmt.Sprintf("first-%03d", i))
	}
	sync()
	seg1 := stat(t, dir, walName(1))
	checkpoint() // seg1 becomes a spare
	for i := 0; i < 3; i++ {
		put(fmt.Sprintf("k%03d", i), "second")
	}
	sync()
	seg2 := stat(t, dir, walName(2))
	checkpoint() // seg3 is written over seg1's file; seg2 becomes a spare
	if seg3 := stat(t, dir, walName(3)); !os.SameFile(seg1, seg3) || seg3.Size() != seg1.Size() {
		t.Fatalf("segment 3 is not segment 1's file overwritten in place")
	}
	put("k010", "third")
	put("k011", "third")
	sync()
	// Roll without a checkpoint: seg3 stays needed as a non-final
	// segment with seg1's stale records behind its own.
	if _, err := db.lw.rollNow(); err != nil {
		t.Fatal(err)
	}
	if seg4 := stat(t, dir, walName(4)); !os.SameFile(seg2, seg4) {
		t.Fatalf("segment 4 is not segment 2's file overwritten in place")
	}
	put("k020", "fourth")
	sync()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(listSpares(dir)); n > 2*maxSpares {
		t.Fatalf("%d spare files, want at most %d", n, 2*maxSpares)
	}
	checkKeys(t, opts, want, nil)
}

// TestDurableSpareCheckpointReused: a checkpoint written over an older,
// larger generation's file loads up to its end marker and ignores the
// stale bytes behind it.
func TestDurableSpareCheckpointReused(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	h, db := openHeap(t, opts)
	mp := hds.NewMap(h)
	db.Bind("kv:test", mp.VSID())
	want := make(map[string]string)
	var gone []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		set(t, h, mp, k, "value-"+k)
		want[k] = "value-" + k
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gen1 := stat(t, dir, ckptName(1))
	for i := 10; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		del(t, h, mp, k)
		delete(want, k)
		gone = append(gone, k)
	}
	for gen := 2; gen <= 3; gen++ { // gen 2 retires gen 1; gen 3 reuses its file
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	gen3 := stat(t, dir, ckptName(3))
	if !os.SameFile(gen1, gen3) || gen3.Size() != gen1.Size() {
		t.Fatalf("checkpoint 3 is not checkpoint 1's file overwritten in place")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ck, err := latestCheckpoint(dir)
	if err != nil || ck == nil || ck.gen != 3 {
		t.Fatalf("latest checkpoint: %v, %v", ck, err)
	}
	checkKeys(t, opts, want, gone)
}
