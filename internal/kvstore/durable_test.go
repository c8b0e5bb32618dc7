package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hds"
	"repro/internal/segment"
)

// TestDurableServerRestart round-trips a server through its data
// directory: string keys on the root map, tenant keys on their own
// VSIDs and deletes all survive a close/reopen, a label binding no
// server asks for (the "blob:" maps of older data directories) recovers
// as an unused binding, and the restarted server keeps accepting writes
// on the re-adopted maps.
func TestDurableServerRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *HicampServer {
		s, err := NewHicampServerOpts(core.TestConfig(), ServerOptions{DataDir: dir, FlushWindow: 1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := open()
	if !s.Durable() {
		t.Fatal("server with DataDir is not durable")
	}
	var wb Batch
	for i := 0; i < 24; i++ {
		wb = wb.Set([]byte(fmt.Sprintf("dk-%02d", i)), []byte(fmt.Sprintf("dv-%02d", i)))
	}
	wb = wb.Set([]byte("acme/k"), []byte("tenant-acme")).
		Set([]byte("beta/k"), []byte("tenant-beta")).
		Del([]byte("dk-03"))
	if err := s.Write(wb); err != nil {
		t.Fatal(err)
	}
	if err := del(s, []byte("dk-05")); err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("blob payload, chunked and deduplicated. "), 600)
	stale := hds.NewMap(s.Heap)
	if err := stale.Apply([]hds.Pair{{Key: []byte("img"), Value: blob}}, hds.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"blob:", "blob:acme"} {
		if err := s.db.Bind(label, stale.VSID()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A post-checkpoint tail, replayed from the log on reopen.
	if err := s.Set([]byte("tail-key"), []byte("tail-value")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := open()
	defer r.Close()
	ds := r.DurableStats()
	if ds.RecoveredLines == 0 || ds.RecoveredRoots == 0 {
		t.Fatalf("recovery stats empty: %+v", ds)
	}
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("dk-%02d", i)
		v, ok := get(r, []byte(key))
		if i == 3 || i == 5 {
			if ok {
				t.Fatalf("deleted key %s resurrected as %q", key, v)
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("dv-%02d", i) {
			t.Fatalf("Get(%s) = %q,%v after restart", key, v, ok)
		}
	}
	for key, want := range map[string]string{
		"acme/k": "tenant-acme", "beta/k": "tenant-beta", "tail-key": "tail-value",
	} {
		if v, ok := get(r, []byte(key)); !ok || string(v) != want {
			t.Fatalf("Get(%s) = %q,%v after restart, want %q", key, v, ok, want)
		}
	}
	for _, label := range []string{"blob:", "blob:acme"} {
		v, ok := r.db.Binding(label)
		if !ok {
			t.Fatalf("binding %q lost in recovery", label)
		}
		seg, _, err := hds.OpenMap(r.Heap, v).SnapshotEntry()
		if err != nil {
			t.Fatal(err)
		}
		var rb hds.ReadBuf
		hds.OpenMap(r.Heap, v).GetBytesAtInto(seg, [][]byte{[]byte("img")}, &rb)
		segment.ReleaseSeg(r.Heap.M, seg)
		if !rb.Found[0] || !bytes.Equal(rb.Vals[0], blob) {
			t.Fatalf("map bound to %q after restart: found=%v len=%d want %d", label, rb.Found[0], len(rb.Vals[0]), len(blob))
		}
	}
	// Tenant isolation survives: re-adopted maps, not root fallbacks.
	if r.NamespaceFor([]byte("acme/k")) == r.Map() {
		t.Fatal("tenant map fell back to root after restart")
	}
	// The re-adopted maps still take writes that persist further.
	if err := r.Set([]byte("acme/k2"), []byte("second-life")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := open()
	defer r2.Close()
	if v, ok := get(r2, []byte("acme/k2")); !ok || string(v) != "second-life" {
		t.Fatalf("second-generation write lost: %q,%v", v, ok)
	}
	if v, ok := get(r2, []byte("tail-key")); !ok || string(v) != "tail-value" {
		t.Fatalf("tail-key lost in second restart: %q,%v", v, ok)
	}
}

// TestCloseWithWritesInFlight closes a durable server while a writer is
// still setting keys. Close detaches the journals under the writer's
// feet, so run it with -race: the detach must be synchronized with the
// allocations and publishes that read the journals. After Close the
// writes are simply no longer durable — no error reaches the writer and
// acknowledgements return at once.
func TestCloseWithWritesInFlight(t *testing.T) {
	s, err := NewHicampServerOpts(core.TestConfig(), ServerOptions{DataDir: t.TempDir(), FlushWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var first error
		for i := 0; i < 200; i++ {
			if err := s.Set([]byte(fmt.Sprintf("inflight-%03d", i)), []byte(fmt.Sprintf("value-%03d", i))); err != nil && first == nil {
				first = err
			}
			if i == 0 {
				close(started)
			}
		}
		done <- first
	}()
	<-started
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("writer saw %v across Close", err)
	}
	if err := s.AckDurable(); err != nil {
		t.Fatalf("AckDurable after Close: %v", err)
	}
}

// TestMemoryServerDurableSurface pins the memory-only server's durable
// surface: not durable, zero stats, and Sync/Checkpoint/Close no-ops.
func TestMemoryServerDurableSurface(t *testing.T) {
	s := NewHicampServer(core.TestConfig())
	if s.Durable() {
		t.Fatal("memory-only server claims durability")
	}
	if ds := s.DurableStats(); ds.Appends != 0 || ds.RecoveredLines != 0 {
		t.Fatalf("memory-only DurableStats = %+v", ds)
	}
	if err := s.AckDurable(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}
