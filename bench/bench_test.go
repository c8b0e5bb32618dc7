package main

import (
	"bytes"
	"math"
	"net"
	"os"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/netfront"
	"repro/internal/segment"
	"repro/internal/word"
)

// small returns workload i with a key count a test can preload quickly.
func small(i int) *workload {
	w := workloads[i]
	w.keys = 600
	return &w
}

// opStream is the request bytes of n bursts on one connection, with every
// gets answered by a fixed token so the stream does not need a server.
func opStream(w *workload, seed int64, conn, bursts int) []byte {
	c := newClient(conn, newDataset(w, seed), seed)
	var out []byte
	for b := 0; b < bursts; b++ {
		c.prepare(depth)
		out = append(out, c.out...)
		for _, o := range c.ops {
			if o.kind == opGets {
				c.gen.gotToken(o.keys[0], 7)
			}
		}
	}
	return out
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := small(i)
		a, b := opStream(w, 1, 0, 20), opStream(w, 1, 0, 20)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different op streams", w.name)
		}
		if bytes.Equal(a, opStream(w, 2, 0, 20)) {
			t.Errorf("%s: seeds 1 and 2 give the same op stream", w.name)
		}
		if bytes.Equal(a, opStream(w, 1, 1, 20)) {
			t.Errorf("%s: connections 0 and 1 give the same op stream", w.name)
		}
	}
}

func TestValueOracle(t *testing.T) {
	d := newDataset(small(1), 3)
	v := d.appendValue(nil, 5, 1, 42)
	if conn, seq, ok := d.checkValue(v, 5); !ok || conn != 1 || seq != 42 {
		t.Fatalf("own value rejected: conn %d seq %d ok %v", conn, seq, ok)
	}
	if _, _, ok := d.checkValue(v, 6); ok {
		t.Error("value accepted under another key")
	}
	v[len(v)-1] ^= 1
	if _, _, ok := d.checkValue(v, 5); ok {
		t.Error("value with a flipped body byte accepted")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// One slow slice must not move the slice-median summary.
func TestSummarizeTakesTheMedianSlice(t *testing.T) {
	start := time.Now()
	r := newSliceRecorder(start, 5*time.Second)
	for i := 0; i < nSlices; i++ {
		lat := 100 * time.Microsecond
		if i == 2 {
			lat = 50 * time.Millisecond // the noisy neighbour
		}
		for k := 0; k < 1000; k++ {
			r.add(lat, start.Add(time.Duration(i)*time.Second+time.Duration(k)*time.Microsecond))
		}
	}
	r.add(time.Hour, start.Add(6*time.Second)) // after the phase: in no slice
	st := summarize([]*sliceRecorder{r}, 200)
	if st.p50 != 100 || st.p95 != 100 || st.p99 != 100 || st.rps != 1000 {
		t.Errorf("p50 %v p95 %v p99 %v rps %v, want 100 100 100 1000", st.p50, st.p95, st.p99, st.rps)
	}
	if st.samples != 5000 || st.minSlice != 1000 || st.within != 4000 {
		t.Errorf("samples %d minSlice %d within %d, want 5000 1000 4000", st.samples, st.minSlice, st.within)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 35, End: 38},   // inside a and b
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},  // sticks out of the parent
		{ID: 6, Parent: 3, Name: "e", Start: 40, End: 50},   // grandchild: b's, not parent's
		{ID: 7, Parent: 0, Name: "lone", Start: 5, End: 6},  // no parent
		{ID: 8, Parent: 1, Name: "f", Start: 200, End: 210}, // outside the parent entirely
	}
	want := []int64{100 - 50 - 10, 30, 30 - 10, 3, 30, 10, 1, 10}
	if got := selfNs(spans); !slices.Equal(got, want) {
		t.Errorf("selfNs = %v, want %v", got, want)
	}
	tot := totals(spans)
	if tot["parent"].selfNs != 40 || tot["parent"].ns != 100 || tot["b"].calls != 1 {
		t.Errorf("totals: %+v", tot["parent"])
	}
}

// The shim must be invisible: the same operations over a wrapped machine
// and over a bare twin return the same PLIDs and leave the same reference
// counts and the same Stats.
func TestShimIsTransparent(t *testing.T) {
	bare, wrapped := core.NewMachine(core.TestConfig()), core.NewMachine(core.TestConfig())
	shim := newTracedMem(wrapped, newTracer(1<<16), 1<<16)
	d := newDataset(small(1), 1)
	run := func(m word.Mem) (roots []word.PLID, out [][]byte) {
		var segs []segment.Seg
		for k := 0; k < 40; k++ {
			v := d.appendValue(nil, k, 0, uint64(k))
			b := segment.NewBuilder(m, 1)
			segs = append(segs, b.BuildBytes(v), segment.BuildBytes(m, d.keys[k]))
			b.Close()
			out = append(out, segment.ReadBytesBulk(m, segs[2*k], 0, uint64(len(v))))
		}
		base := segment.BuildWords(m, make([]uint64, 64), nil)
		var ups []segment.Update
		for i, s := range segs {
			ups = append(ups, segment.Update{Idx: uint64(i * 7), W: uint64(s.Root), T: word.TagPLID})
		}
		next, _ := segment.WriteBatch(m, base, ups)
		ws, _ := segment.GatherWords(m, next, []uint64{0, 7, 14, 21})
		for _, w := range ws {
			roots = append(roots, word.PLID(w))
		}
		for _, s := range segs[:20] {
			segment.ReleaseSeg(m, s)
		}
		segment.ReleaseSeg(m, base)
		return append(roots, next.Root), out
	}
	rootsB, outB := run(bare)
	rootsW, outW := run(shim)
	if !slices.Equal(rootsB, rootsW) {
		t.Fatalf("PLIDs differ:\nbare %v\nshim %v", rootsB, rootsW)
	}
	for i := range outB {
		if !bytes.Equal(outB[i], outW[i]) {
			t.Fatalf("value %d reads back differently through the shim", i)
		}
	}
	for _, p := range rootsB {
		if b, w := bare.RefCount(p), wrapped.RefCount(p); b != w {
			t.Errorf("refcount of %#x: bare %d, wrapped %d", p, b, w)
		}
	}
	if b, w := bare.Stats(), wrapped.Stats(); b != w {
		t.Errorf("Stats differ:\nbare    %+v\nwrapped %+v", b, w)
	}
	if shim.lookupLines == 0 || shim.readLines == 0 || shim.rcOps == 0 || len(shim.log) == 0 {
		t.Errorf("shim saw lookups %d reads %d rc ops %d, logged %d calls", shim.lookupLines, shim.readLines, shim.rcOps, len(shim.log))
	}
}

// inProcess is the smoke test's stand-in for the hicampd child: the same
// store and front end, served from this process.
type inProcess struct {
	store *kvstore.HicampServer
	srv   *netfront.Server
	ln    net.Listener
	done  chan error
}

func launchInProcess(dataDir string, ckptEvery time.Duration) (server, error) {
	st, err := kvstore.NewHicampServerOpts(machineConfig, kvstore.ServerOptions{DataDir: dataDir, CheckpointEvery: ckptEvery})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &inProcess{store: st, srv: netfront.NewServer(st, netfront.DefaultOptions()), ln: ln, done: make(chan error, 1)}
	go func() { p.done <- p.srv.Serve(ln) }()
	return p, nil
}

func (p *inProcess) address() string { return p.ln.Addr().String() }

func (p *inProcess) cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, err
}

func (p *inProcess) hwmMB() (float64, error) {
	var ru syscall.Rusage
	err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024, err
}

// stop cannot crash this process; closing without a checkpoint still
// leaves the restart a log tail to replay.
func (p *inProcess) stop(bool) {
	p.srv.Close()
	<-p.done
	p.store.Close()
}

func TestSmokeAllWorkloads(t *testing.T) {
	ct, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the table has %d", len(ct.Workloads), len(workloads))
	}
	dir := t.TempDir()
	e := &env{root: dir, build: dir, nproc: 2, launch: launchInProcess}
	for i := range workloads {
		w := small(i)
		if ct.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the table says %q", i, ct.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			res, detail := e.runWorkload(w, 1, 1, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
				t.Errorf("%s traced=%v: correct %v, %d failed of %d\n%v", w.name, traced, res.Correct, res.Failed, res.Attempted, detail)
			}
			want := ct.EndToEnd
			if traced {
				want = ct.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s (%s): got %+v, present %v", w.name, traced, m.Name, m.Unit, got, ok)
				}
			}
			if w.durable && !traced && detail["restart_keys_checked"] != w.keys {
				t.Errorf("%s: restart check covered %v keys of %d", w.name, detail["restart_keys_checked"], w.keys)
			}
		}
		if _, err := os.Stat(dir + "/bench/out/trace_" + w.name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
}

func TestVerdict(t *testing.T) {
	higher := contractMetric{Name: "rps", Better: "higher", Bound: 0.10}
	lower := contractMetric{Name: "lat", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		m    contractMetric
		a, b float64
		want string
	}{
		{higher, 100, 95, "ok"}, {higher, 100, 89, "worse"}, {higher, 100, 111, "better"},
		{lower, 100, 105, "ok"}, {lower, 100, 111, "worse"}, {lower, 100, 89, "better"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFlagsWorseAndFailures(t *testing.T) {
	ct, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(rps float64, failed uint64) *report {
		rep := &report{Workloads: map[string]*result{}}
		for _, w := range ct.Workloads {
			r := &result{Correct: true, Attempted: 1000, Failed: failed, Metrics: map[string]metric{}}
			for _, m := range ct.EndToEnd {
				r.Metrics[m.Name] = metric{1, m.Unit}
			}
			r.Metrics["rps"] = metric{rps, "req/s"}
			rep.Workloads[w.Name] = r
		}
		return rep
	}
	dir := t.TempDir()
	for name, rep := range map[string]*report{"a": mk(1000, 0), "same": mk(1040, 0), "slow": mk(500, 0), "failing": mk(1000, 3)} {
		if err := writeReport(dir+"/"+name+".json", rep); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]int{"same": 0, "slow": 1, "failing": 1} {
		var out strings.Builder
		if got := compareReports(&out, dir+"/a.json", dir+"/"+name+".json"); got != want {
			t.Errorf("compare a %s: exit %d, want %d\n%s", name, got, want, out.String())
		}
	}
}
