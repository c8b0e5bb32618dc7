package netfront

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/word"
)

// Ops already queued join the window even when its timer has fired by
// the time collect looks: a select with both cases ready picks one at
// random, so without the non-blocking drain a window would close with
// ops still queued.
func TestCollectTakesQueuedOpsBeforeFiredTimer(t *testing.T) {
	opts := DefaultOptions()
	d := newServer(kvstore.NewHicampServer(testCfg()), opts).disp
	for i := 0; i < opts.MaxBatch-1; i++ {
		d.ch <- &op{}
	}
	timer := time.NewTimer(time.Nanosecond)
	time.Sleep(time.Millisecond) // the timer has fired; its value waits in timer.C
	d.collect(timer)
	if len(d.batch) != opts.MaxBatch-1 || len(d.ch) != 0 {
		t.Fatalf("window of %d ops with %d still queued, want all %d in one window", len(d.batch), len(d.ch), opts.MaxBatch-1)
	}
}

// framed is a value as netfront stores it: flags 0, then the payload.
func framed(v []byte) []byte { return append(make([]byte, frameLen), v...) }

// reclaimVals returns n distinct values of at least 256 bytes, so that
// each overwrite frees a value's lines in the reclaim it defers.
func reclaimVals(n int) [][]byte {
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = make([]byte, 256+8*(i%16))
		for j := range vals[i] {
			vals[i][j] = byte(i*31 + j*7 + j>>5)
		}
	}
	return vals
}

// reclaimKey is the key the i-th value overwrites: a few keys, so that
// most sets replace a bound value.
func reclaimKey(i int) string { return fmt.Sprintf("reclaim-%d", i%4) }

// replay applies the same sets, the i-th value to key(i), one Write
// each, on a fresh in-process server: the machine an inline reclaim
// leaves.
func replay(t *testing.T, vals [][]byte, key func(int) string) *Server {
	t.Helper()
	s := NewServer(kvstore.NewHicampServer(testCfg()), DefaultOptions())
	t.Cleanup(func() { s.Close() })
	for i, v := range vals {
		if err := s.Store().Write(kvstore.Batch{}.Set([]byte(key(i)), framed(v))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// statsOf renders s's stats table in process.
func statsOf(t *testing.T, s *Server) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for _, line := range strings.Split(string(s.appendStats(nil)), "\r\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "STAT" {
			n, err := strconv.ParseUint(f[2], 10, 64)
			if err != nil {
				t.Fatalf("bad stat line %q", line)
			}
			out[f[1]] = n
		}
	}
	return out
}

// simulated reports whether a stats key is a simulated count.
func simulated(k string) bool {
	return strings.HasPrefix(k, "hicamp_dram_") || strings.HasPrefix(k, "hicamp_llc_") || k == "hicamp_live_lines"
}

// Answering a write window before reclaiming its replaced version moves
// no simulated count: sets sent one at a time (a window each) and then
// stats read the same DRAM, LLC and live-line counts as the same sets
// applied in process with their reclaim inline.
func TestAnswerFirstMovesNoSimulatedCount(t *testing.T) {
	vals := reclaimVals(64)
	_, addr := startServer(t, DefaultOptions())
	c := dialOrFatal(t, addr)
	for i, v := range vals {
		if err := c.Set(reclaimKey(i), v); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := statsOf(t, replay(t, vals, reclaimKey))
	n := 0
	for k, w := range want {
		if !simulated(k) {
			continue
		}
		n++
		if got[k] != w {
			t.Errorf("%s: served %d, inline replay %d", k, got[k], w)
		}
	}
	if n < 10 {
		t.Fatalf("compared %d simulated counts, want the DRAM, LLC and live-line rows", n)
	}
}

// A pending reclaim is never observable: stats right after a set's
// reply, an idle server and a closed one all show the machine the inline
// reclaim leaves.
func TestPendingReclaimNeverObservable(t *testing.T) {
	vals := reclaimVals(8)
	one := func(int) string { return "reclaim-one" } // each set frees the last value
	want := replay(t, vals, one).Store().Heap.M.LiveLines()
	serve := func(t *testing.T) (*Server, *Client) {
		s, addr := startServer(t, DefaultOptions())
		c := dialOrFatal(t, addr)
		for i, v := range vals {
			if err := c.Set(one(i), v); err != nil {
				t.Fatal(err)
			}
		}
		return s, c
	}

	t.Run("stats", func(t *testing.T) {
		s, c := serve(t)
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st["hicamp_live_lines"] != want {
			t.Fatalf("stats after a set's reply: %d live lines, reclaimed machine %d", st["hicamp_live_lines"], want)
		}
		c.Quit()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		m := s.Store().Heap.M
		if s.disp.owing || m.LiveLines() != want {
			t.Fatalf("after Close: reclaim pending %v, %d live lines (want false, %d)", s.disp.owing, m.LiveLines(), want)
		}
		external := make(map[word.PLID]uint64)
		for _, de := range s.Store().Heap.SM.Dump() {
			if de.E.Seg.Root != word.Zero {
				external[de.E.Seg.Root]++
			}
		}
		if err := m.CheckConsistency(external); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("idle", func(t *testing.T) {
		s, _ := serve(t)
		m := s.Store().Heap.M
		deadline := time.Now().Add(10 * time.Second)
		for m.LiveLines() != want {
			if time.Now().After(deadline) {
				t.Fatalf("idle server still holds %d live lines after 10 s, reclaimed machine %d", m.LiveLines(), want)
			}
			time.Sleep(100 * time.Microsecond)
		}
	})
}
