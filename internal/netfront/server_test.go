package netfront

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/pool"
)

func testCfg() core.Config {
	return core.Config{LineBytes: 16, BucketBits: 14, DataWays: 12, CacheLines: 4096, CacheWays: 16}
}

// startServer spins up a loopback server; Close runs in cleanup.
func startServer(t testing.TB, opts Options) (*Server, string) {
	t.Helper()
	s := NewServer(kvstore.NewHicampServer(testCfg()), opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func dialOrFatal(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// The memcached text protocol end to end over the window-aggregation
// path.
func TestLoopbackProtocol(t *testing.T) {
	t.Run("aggregate", func(t *testing.T) {
		_, addr := startServer(t, DefaultOptions())
		c := dialOrFatal(t, addr)

		// Miss, then store/fetch with flags round-trip.
		if _, ok, err := c.Get("nope"); err != nil || ok {
			t.Fatalf("miss: ok=%v err=%v", ok, err)
		}
		if err := c.SendSet("k1", 42, []byte("hello"), false); err != nil {
			t.Fatal(err)
		}
		c.Flush()
		if r, _ := c.ReadReply(); r != "STORED" {
			t.Fatalf("set: %s", r)
		}
		if err := c.SendGet(false, "k1"); err != nil {
			t.Fatal(err)
		}
		c.Flush()
		vs, err := c.ReadValues()
		if err != nil || len(vs) != 1 {
			t.Fatalf("get: %v %v", vs, err)
		}
		if vs[0].Key != "k1" || vs[0].Flags != 42 || string(vs[0].Data) != "hello" {
			t.Fatalf("get = %+v", vs[0])
		}

		// noreply set is executed but unacknowledged.
		if err := c.SendSet("quiet", 0, []byte("q"), true); err != nil {
			t.Fatal(err)
		}
		// Multi-key get straight after: pipelined on the same
		// connection, so it must observe the noreply set (class
		// barrier) and keep request key order in the response.
		c.SendGet(false, "k1", "quiet", "nope")
		c.Flush()
		vs, err = c.ReadValues()
		if err != nil || len(vs) != 2 {
			t.Fatalf("multiget: %v %v", vs, err)
		}
		if vs[0].Key != "k1" || vs[1].Key != "quiet" || string(vs[1].Data) != "q" {
			t.Fatalf("multiget = %+v", vs)
		}

		// Namespaced keys route to tenant maps transparently.
		if err := c.Set("acme/nk", []byte("nv")); err != nil {
			t.Fatal(err)
		}
		if v, ok, _ := c.Get("acme/nk"); !ok || string(v) != "nv" {
			t.Fatalf("tenant get = %q %v", v, ok)
		}

		// Delete semantics.
		if ok, _ := c.Delete("k1"); !ok {
			t.Fatal("delete k1: want DELETED")
		}
		if ok, _ := c.Delete("k1"); ok {
			t.Fatal("delete k1 again: want NOT_FOUND")
		}
		if _, ok, _ := c.Get("k1"); ok {
			t.Fatal("k1 survived delete")
		}

		// Errors keep the connection usable.
		c.bw.WriteString("bogus\r\n")
		c.Flush()
		if r, _ := c.ReadReply(); r != "ERROR" {
			t.Fatalf("bogus: %s", r)
		}
		c.bw.WriteString("get \x01bad\r\n")
		c.Flush()
		if r, _ := c.ReadReply(); r != "CLIENT_ERROR bad key" {
			t.Fatalf("bad key: %s", r)
		}

		if v, err := c.Version(); err != nil || v == "" {
			t.Fatalf("version: %q %v", v, err)
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st["cmd_set"] == 0 || st["get_hits"] == 0 {
			t.Fatalf("stats missing counters: %v", st)
		}
		// Host memory, explained from inside: sets touched some of
		// the bucket table, never more than all of it, and a handful
		// of keys leaves every bucket at its small starting width.
		reserved, touched := st["hicamp_table_reserved_bytes"], st["hicamp_table_touched_bytes"]
		if touched == 0 || touched > reserved || st["go_heap_bytes"] == 0 {
			t.Fatalf("stats: table touched %d of %d reserved bytes, go heap %d",
				touched, reserved, st["go_heap_bytes"])
		}
		if full, ok := st["hicamp_table_full_buckets"]; !ok || full != 0 {
			t.Fatalf("stats: hicamp_table_full_buckets = %d (present %v), want 0", full, ok)
		}
		// The simulated LLC: the gets above hit lines the sets just
		// filled, and a 4096-line cache holding a few keys evicts
		// nothing.
		if st["hicamp_llc_hits"] == 0 || st["hicamp_llc_misses"] == 0 {
			t.Fatalf("stats: LLC hits %d, misses %d; want both nonzero",
				st["hicamp_llc_hits"], st["hicamp_llc_misses"])
		}
		for _, k := range []string{"hicamp_llc_evictions", "hicamp_llc_dirty_evictions"} {
			if v, ok := st[k]; !ok || v != 0 {
				t.Fatalf("stats: %s = %d (present %v), want 0", k, v, ok)
			}
		}
		// The served DRAM split: the five Figure 6 terms sum to the total.
		var sum uint64
		for _, k := range []string{"hicamp_dram_sig", "hicamp_dram_lookup", "hicamp_dram_data", "hicamp_dram_rc", "hicamp_dram_dealloc"} {
			v, ok := st[k]
			if !ok {
				t.Fatalf("stats: %s missing", k)
			}
			sum += v
		}
		if total := st["hicamp_dram_accesses"]; total == 0 || sum != total {
			t.Fatalf("stats: DRAM split sums to %d, hicamp_dram_accesses = %d", sum, total)
		}
	})
}

// The acceptance pin: a cas whose token (pinned snapshot) went stale to
// DISJOINT concurrent writes still stores, by rebasing through the
// three-way merge — while a concurrent write to the same key answers
// EXISTS, and a vanished key answers NOT_FOUND.
func TestCasMergeRebase(t *testing.T) {
	t.Run("aggregate", func(t *testing.T) {
		_, addr := startServer(t, DefaultOptions())
		c := dialOrFatal(t, addr)
		other := dialOrFatal(t, addr)

		for _, k := range []string{"mine", "theirs", "gone"} {
			if err := c.Set(k, []byte(k+"-v0")); err != nil {
				t.Fatal(err)
			}
		}
		v, ok, err := c.Gets("mine")
		if err != nil || !ok || v.Cas == 0 {
			t.Fatalf("gets: %+v %v %v", v, ok, err)
		}

		// Another connection moves the map under the token: writes to
		// DIFFERENT keys.
		if err := other.Set("theirs", []byte("theirs-v1")); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Delete("gone"); err != nil {
			t.Fatal(err)
		}

		// Stale token + disjoint interleaved writes: merge-rebase
		// publishes instead of failing.
		if r, err := c.Cas("mine", []byte("mine-v1"), v.Cas); err != nil || r != "STORED" {
			t.Fatalf("disjoint stale cas = %q %v, want STORED", r, err)
		}
		if got, _, _ := c.Get("mine"); string(got) != "mine-v1" {
			t.Fatalf("mine = %q", got)
		}
		if got, _, _ := c.Get("theirs"); string(got) != "theirs-v1" {
			t.Fatalf("theirs = %q (interleaved write lost)", got)
		}

		// Same-key interleaved write: true conflict, EXISTS.
		v2, _, _ := c.Gets("mine")
		if err := other.Set("mine", []byte("mine-v2")); err != nil {
			t.Fatal(err)
		}
		if r, _ := c.Cas("mine", []byte("mine-v2-mine"), v2.Cas); r != "EXISTS" {
			t.Fatalf("same-key stale cas = %q, want EXISTS", r)
		}
		if got, _, _ := c.Get("mine"); string(got) != "mine-v2" {
			t.Fatalf("mine = %q (conflicting cas landed)", got)
		}

		// Missing key: NOT_FOUND regardless of token.
		v3, _, _ := c.Gets("theirs")
		if _, err := other.Delete("theirs"); err != nil {
			t.Fatal(err)
		}
		if r, _ := c.Cas("theirs", []byte("x"), v3.Cas); r != "NOT_FOUND" {
			t.Fatalf("cas on deleted key = %q, want NOT_FOUND", r)
		}

		// Garbage token on a live key: EXISTS.
		if err := c.Set("alive", []byte("a")); err != nil {
			t.Fatal(err)
		}
		if r, _ := c.Cas("alive", []byte("b"), 1<<60); r != "EXISTS" {
			t.Fatalf("garbage token cas = %q, want EXISTS", r)
		}
	})
}

// Two clients read the same key and both cas the SAME bytes with their
// tokens: the first stores, the second lost the race and must answer
// EXISTS — even though the three-way merge alone would absorb the
// identical write (cur == mod) and report no conflict.
func TestCasIdenticalPayloadLoses(t *testing.T) {
	t.Run("aggregate", func(t *testing.T) {
		_, addr := startServer(t, DefaultOptions())
		a := dialOrFatal(t, addr)
		b := dialOrFatal(t, addr)
		if err := a.Set("k", []byte("v0")); err != nil {
			t.Fatal(err)
		}
		va, ok, err := a.Gets("k")
		if err != nil || !ok {
			t.Fatalf("gets a: %v %v", ok, err)
		}
		vb, ok, err := b.Gets("k")
		if err != nil || !ok {
			t.Fatalf("gets b: %v %v", ok, err)
		}
		if r, err := a.Cas("k", []byte("same"), va.Cas); err != nil || r != "STORED" {
			t.Fatalf("first cas = %q %v, want STORED", r, err)
		}
		if r, err := b.Cas("k", []byte("same"), vb.Cas); err != nil || r != "EXISTS" {
			t.Fatalf("second identical cas = %q %v, want EXISTS", r, err)
		}
		if got, _, _ := a.Get("k"); string(got) != "same" {
			t.Fatalf("k = %q", got)
		}
	})
}

// Pipelined loopback stress under the race detector: concurrent
// connections hammer mixed workloads while a writer publishes paired
// keys atomically (one Apply commit); every mget must observe the pair
// from ONE version — the snapshot-consistency pin. Run with
// -race -cpu=1,4 in CI.
func TestStressSnapshotConsistentMGet(t *testing.T) {
	s, addr := startServer(t, Options{
		MaxBatch:    64,
		FlushWindow: 100 * time.Microsecond,
	})

	// Paired keys, flipped atomically by in-process bulk commits.
	store := s.Store()
	pairKeys := []string{"pair/a", "pair/b"}
	set := func(gen int) {
		v := []byte(fmt.Sprintf("gen-%06d", gen))
		if err := store.Write(kvstore.Batch{}.Set([]byte(pairKeys[0]), v).Set([]byte(pairKeys[1]), v)); err != nil {
			t.Error(err)
		}
	}
	set(0)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := 1; !stop.Load(); gen++ {
			set(gen)
			// Throttle: keep flipping versions under the readers without
			// starving single-CPU runs of the serving goroutines.
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const conns = 6
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 150; i++ {
				// Private churn to fill aggregation windows.
				key := fmt.Sprintf("w%d-k%d", w, i%7)
				if err := c.SendSet(key, 0, []byte(fmt.Sprintf("v%d", i)), false); err != nil {
					errs <- err
					return
				}
				c.SendMGet("pair/a", "pair/b")
				if err := c.Flush(); err != nil {
					errs <- err
					return
				}
				if r, err := c.ReadReply(); err != nil || r != "STORED" {
					errs <- fmt.Errorf("worker %d set: %q %v", w, r, err)
					return
				}
				vs, err := c.ReadValues()
				if err != nil || len(vs) != 2 {
					errs <- fmt.Errorf("worker %d mget: %v %v", w, vs, err)
					return
				}
				if string(vs[0].Data) != string(vs[1].Data) {
					errs <- fmt.Errorf("worker %d torn mget: %q vs %q", w, vs[0].Data, vs[1].Data)
					return
				}
				if vs[0].Cas != vs[1].Cas || vs[0].Cas == 0 {
					errs <- fmt.Errorf("worker %d mget tokens differ: %d vs %d", w, vs[0].Cas, vs[1].Cas)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < conns; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if c := s.Counters(); c.Batches == 0 || c.BatchedOps < c.Batches {
		t.Fatalf("aggregation loop never batched: %+v", c)
	}
}

// Clean shutdown returns every pooled buffer: for all netfront pools,
// acquisitions (hits+misses+oversize) equal returns — the leak pin the
// CI smoke stage also asserts end-to-end.
func TestShutdownPoolLeakPin(t *testing.T) {
	s, addr := startServer(t, DefaultOptions())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("t%d/k%d", w, i)
				if err := c.Set(key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, ok, err := c.Get(key); !ok || err != nil {
					t.Errorf("get %s: %v %v", key, ok, err)
					return
				}
				if i%5 == 0 {
					if _, _, err := c.Gets(key); err != nil {
						t.Error(err)
						return
					}
				}
				if i%7 == 0 {
					if _, err := c.Delete(key); err != nil {
						t.Error(err)
						return
					}
				}
			}
			c.Quit()
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ps := range pool.Snapshot() {
		if len(ps.Name) < 9 || ps.Name[:9] != "netfront." {
			continue
		}
		if got, want := ps.Hits+ps.Misses+ps.Oversize, ps.Returned; got != want {
			t.Errorf("pool %s leaked: acquired %d, returned %d", ps.Name, got, want)
		}
	}
}

// The cas existence probe must not retain the value: after gets→cas
// churn with a distinct payload per round, deleting the key and closing
// the server (draining the token registry's snapshot pins) must reclaim
// every value's lines. A leaked reference per cas would pin ~30 dead
// 512-byte values — thousands of lines — forever.
func TestCasDoesNotLeakValueRefs(t *testing.T) {
	s, addr := startServer(t, DefaultOptions())
	heap := s.Store().Heap
	base := heap.M.LiveLines()
	c := dialOrFatal(t, addr)

	val := make([]byte, 512)
	for i := 0; i < 30; i++ {
		for j := range val {
			val[j] = byte(i + j)
		}
		if i == 0 {
			if err := c.Set("leak", val); err != nil {
				t.Fatal(err)
			}
			continue
		}
		v, ok, err := c.Gets("leak")
		if err != nil || !ok {
			t.Fatalf("gets round %d: ok=%v err=%v", i, ok, err)
		}
		if r, err := c.Cas("leak", val, v.Cas); err != nil || r != "STORED" {
			t.Fatalf("cas round %d: %q %v", i, r, err)
		}
	}
	if _, err := c.Delete("leak"); err != nil {
		t.Fatal(err)
	}
	c.Quit()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if end := heap.M.LiveLines(); end > base+256 {
		t.Fatalf("value lines leaked: live lines %d → %d", base, end)
	}
}

// Finished connections deregister themselves: connection churn must not
// grow the server's conn table (or a later Close would re-close
// thousands of dead sockets).
func TestConnChurnPrunesRegistry(t *testing.T) {
	s, addr := startServer(t, DefaultOptions())
	for i := 0; i < 16; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Set("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		c.Quit()
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d dead connections still registered", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Closing the server with connections mid-flight must not hang.
func TestCloseWithLiveConns(t *testing.T) {
	s, addr := startServer(t, DefaultOptions())
	c := dialOrFatal(t, addr)
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with a live connection")
	}
}

// A read-only mget window charges RC-line traffic for its snapshot pin
// only: the per-key key strings and value references it hands off run in
// one netting scope (hds.Map.GetBytesAtInto) and net to zero. Filler
// written after the keys pushes their RC lines out of the LLC, so an
// unnetted per-key RC event would miss and show up in hicamp_dram_rc.
func TestReadScopeMGetWindowChargesOnlyRootPin(t *testing.T) {
	s, addr := startServer(t, DefaultOptions())
	c := dialOrFatal(t, addr)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("scoped-%02d", i)
		if err := c.Set(keys[i], []byte(fmt.Sprintf("value of %s, long enough for a few lines", keys[i]))); err != nil {
			t.Fatal(err)
		}
	}
	var filler kvstore.Batch
	for i := 0; i < 2000; i++ {
		filler = filler.Set([]byte(fmt.Sprintf("filler-%04d", i)), []byte(fmt.Sprintf("filler value %04d, padded past a few lines", i)))
	}
	if err := s.Store().Write(filler); err != nil {
		t.Fatal(err)
	}
	s.Store().Heap.M.FlushCache() // the mget's fills then evict only clean lines
	st0, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendMGet(keys...); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	vals, err := c.ReadValues()
	if err != nil || len(vals) != len(keys) {
		t.Fatalf("mget: %d values, err %v", len(vals), err)
	}
	st1, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if d := st1["hicamp_dram_rc"] - st0["hicamp_dram_rc"]; d > 2 {
		t.Fatalf("mget of %d keys charged %d RC-line DRAM accesses, want <= 2 (the root pin and its release)", len(keys), d)
	}
}

// A delete window answers DELETED/NOT_FOUND from a presence probe that
// reads no line of the value it unbinds: on two servers holding the same
// keys, deleting a key bound to a 4 KB value issues exactly the reads
// that deleting it when bound to 16 bytes does.
func TestDeleteWindowReadsNoValueLines(t *testing.T) {
	var reads [2]uint64
	for i, size := range []int{4096, 16} {
		s, addr := startServer(t, DefaultOptions())
		c := dialOrFatal(t, addr)
		for j := 0; j < 32; j++ {
			if err := c.Set(fmt.Sprintf("other-%02d", j), []byte(fmt.Sprintf("other value %02d", j))); err != nil {
				t.Fatal(err)
			}
		}
		val := make([]byte, size)
		for j := range val {
			val[j] = byte(j*7 + j>>8)
		}
		if err := c.Set("doomed", val); err != nil {
			t.Fatal(err)
		}
		m := s.Store().Heap.M
		before := m.Stats().ReadOps
		if ok, err := c.Delete("doomed"); err != nil || !ok {
			t.Fatalf("%d B value: delete = %v, %v; want DELETED", size, ok, err)
		}
		reads[i] = m.Stats().ReadOps - before
		if ok, err := c.Delete("doomed"); err != nil || ok {
			t.Fatalf("%d B value: second delete = %v, %v; want NOT_FOUND", size, ok, err)
		}
	}
	if reads[0] != reads[1] {
		t.Fatalf("deleting a 4 KB value read %d lines, a 16 B one %d: the probe reads value lines", reads[0], reads[1])
	}
}
