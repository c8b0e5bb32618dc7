package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where this run builds and keeps its files: everything lives
// under <root>/.bench_build, inside the checkout.
type env struct {
	root    string // the repo checkout (holds go.mod of module repro)
	build   string // <root>/.bench_build
	hicampd string // the built daemon
	nproc   int
	// launch starts the system under load on dataDir ("" = memory mode).
	// A run launches the hicampd child; the tests substitute an
	// in-process server.
	launch func(dataDir string, ckptEvery time.Duration) (server, error)
}

// server is the system under load as the generator sees it from outside.
type server interface {
	address() string
	cpuSeconds() (float64, error) // user+system time consumed so far
	hwmMB() (float64, error)      // peak resident set
	stop(crash bool)              // crash: no clean shutdown; returns once it has ended
}

// findUp returns the nearest directory, from the working directory
// upwards, that holds a file of this name whose content accept approves,
// and that content.
func findUp(name string, accept func(content []byte) bool) (dir string, content []byte, err error) {
	if dir, err = os.Getwd(); err != nil {
		return "", nil, err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, name)); err == nil && accept(b) {
			return dir, b, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", nil, fmt.Errorf("no %s in or above the working directory: run from the repo checkout", name)
		}
		dir = parent
	}
}

// newEnv locates the checkout and builds cmd/hicampd from its source.
func newEnv() (*env, error) {
	// bench/go.mod is module repro/bench; the checkout root is the one
	// that holds module repro.
	root, _, err := findUp("go.mod", func(b []byte) bool { return strings.HasPrefix(string(b), "module repro\n") })
	if err != nil {
		return nil, err
	}
	e := &env{root: root, build: filepath.Join(root, ".bench_build"), nproc: runtime.NumCPU()}
	e.hicampd = filepath.Join(e.build, "bin", "hicampd")
	if err := os.MkdirAll(filepath.Dir(e.hicampd), 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", e.hicampd, "./cmd/hicampd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/hicampd: %v\n%s", err, out)
	}
	e.launch = e.startChild
	return e, nil
}

// child is one running hicampd.
type child struct {
	cmd  *exec.Cmd
	addr string
	out  bytes.Buffer
	done chan struct{} // closed once the process has been waited for
}

func (c *child) address() string { return c.addr }

// startChild launches hicampd on a free loopback port and waits until it
// accepts connections. dataDir "" is memory mode.
func (e *env) startChild(dataDir string, ckptEvery time.Duration) (server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-addr", addr}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-checkpoint-every", ckptEvery.String())
	}
	c := &child{cmd: exec.Command(e.hicampd, args...), addr: addr, done: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.nproc))
	c.cmd.Stdout, c.cmd.Stderr = &c.out, &c.out
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.cmd.Wait()
		close(c.done)
	}()
	for deadline := time.Now().Add(60 * time.Second); ; {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			nc.Close()
			return c, nil
		}
		exited := false
		select {
		case <-c.done:
			exited = true
		default:
		}
		if exited || time.Now().After(deadline) {
			c.stop(true)
			return nil, fmt.Errorf("hicampd never accepted on %s: %v\n%s", addr, err, c.out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop signals the child — SIGKILL for a crash, else SIGTERM — and waits
// until it has ended; a child that ignores SIGTERM for ten seconds is
// killed.
func (c *child) stop(crash bool) {
	sig := syscall.SIGTERM
	if crash {
		sig = syscall.SIGKILL
	}
	c.cmd.Process.Signal(sig)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
}

// cpuSeconds reads the child's user+system time from /proc/<pid>/stat.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in USER_HZ (100 on Linux) ticks.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", b)
	}
	return (utime + stime) / 100, nil
}

// hwmMB reads the child's peak resident set from /proc/<pid>/status.
func (c *child) hwmMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// servedResult is everything one untraced run against the child measured.
type servedResult struct {
	attempted, failed uint64
	failures          []string

	setupS        []float64
	closed, fixed phaseStats
	closedReqs    float64 // requests completed between the two stats scrapes
	closedSecs    float64
	fixedReqs     float64 // requests attempted in the fixed-rate phase
	lateFrac      float64
	cpuUsPerOp    float64
	rssMB         float64
	memRatio      float64
	delta         map[string]float64 // stats at the end of the closed loop minus at its start
	end           map[string]float64 // stats after the fixed-rate phase
	casStored     uint64
	casExists     uint64
	ckptEvery     time.Duration
	recoveryS     float64
	restartChecks int
}

// session is one launched server with its load connections and a control
// connection for stats.
type session struct {
	srv      server
	dataDir  string
	launched time.Time // just before the server was started
	clients  []*client
	ctl      *client
}

func (e *env) openSession(d *dataset, seed int64, ckptEvery time.Duration) (*session, error) {
	dataDir := ""
	if d.w.durable {
		var err error
		if dataDir, err = os.MkdirTemp(e.build, "data-"); err != nil {
			return nil, err
		}
	}
	s := &session{dataDir: dataDir, launched: time.Now()}
	srv, err := e.launch(dataDir, ckptEvery)
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	s.srv = srv
	for id := 0; id <= loadConns; id++ {
		c, err := dialClient(srv.address(), id, d, seed)
		if err != nil {
			s.close()
			return nil, err
		}
		if id < loadConns {
			s.clients = append(s.clients, c)
		} else {
			s.ctl = c
		}
	}
	return s, nil
}

// close drops the connections, stops the server and removes its data.
func (s *session) close() {
	for _, c := range s.clients {
		c.close()
	}
	if s.ctl != nil {
		s.ctl.close()
	}
	s.srv.stop(false)
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// loadAttempted is how many requests the load connections have sent.
func (s *session) loadAttempted() (n uint64) {
	for _, c := range s.clients {
		n += c.attempted
	}
	return n
}

// each runs fn on every load connection at once and joins the errors.
func (s *session) each(fn func(i int, c *client) error) error {
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setup preloads every key, the connections taking equal shares, and
// returns the set-up time a user pays: from starting the server to the
// last key stored.
func (s *session) setup(d *dataset) (time.Duration, error) {
	share := (len(d.keys) + len(s.clients) - 1) / len(s.clients)
	err := s.each(func(i int, c *client) error {
		return c.preload(i*share, min((i+1)*share, len(d.keys)))
	})
	return time.Since(s.launched), err
}

// closedLoop has every connection send a burst of depth, read its
// replies, and repeat until dur has passed.
func (s *session) closedLoop(dur time.Duration, recs []*sliceRecorder) error {
	end := time.Now().Add(dur)
	return s.each(func(i int, c *client) error {
		var sample sampleFn
		if recs != nil {
			sample = recs[i].add
		}
		for time.Now().Before(end) {
			if err := c.burst(depth, time.Time{}, sample); err != nil {
				return err
			}
		}
		return nil
	})
}

// fixedRate is the open loop: on each connection a burst of fixedBurst is
// due every interval whatever the server does; latency runs from the due
// time and a burst that could not be sent within lateAfter of it is late.
// Bursts still unsent when the phase ends are dropped and count as late.
func (s *session) fixedRate(rate int, dur time.Duration, recs []*sliceRecorder) (lateFrac float64, err error) {
	interval := time.Duration(float64(fixedBurst*len(s.clients)) / float64(rate) * float64(time.Second))
	start := time.Now()
	end := start.Add(dur)
	late := make([]int, len(s.clients))
	planned := int(dur / interval)
	err = s.each(func(i int, c *client) error {
		offset := interval * time.Duration(i) / time.Duration(len(s.clients))
		for k := 0; k < planned; k++ {
			due := start.Add(offset + time.Duration(k)*interval)
			now := time.Now()
			if now.After(end) {
				late[i] += planned - k
				return nil
			}
			if wait := due.Sub(now); wait > 0 {
				time.Sleep(wait)
				now = time.Now()
			}
			if now.Sub(due) > lateAfter {
				late[i]++
			}
			if err := c.burst(fixedBurst, due, recs[i].add); err != nil {
				return err
			}
		}
		return nil
	})
	total := 0
	for _, l := range late {
		total += l
	}
	return float64(total) / float64(max(1, planned*len(s.clients))), err
}

// served runs one workload against a fresh child: set-up (setupRepeats
// times, each on its own child, the last one kept), warm-up, the measured
// closed loop bracketed by stats scrapes, the fixed-rate phase, and on a
// durable workload the kill-and-restart check.
func (e *env) served(w *workload, d *dataset, seed int64, seconds float64, setups int) (*servedResult, error) {
	res := &servedResult{ckptEvery: time.Duration(seconds / 8 * float64(time.Second)).Round(100 * time.Millisecond)}
	res.ckptEvery = max(res.ckptEvery, 500*time.Millisecond)
	phase := func(share float64) time.Duration { return time.Duration(seconds * share * float64(time.Second)) }

	var s *session
	for rep := 0; rep < setups; rep++ {
		var err error
		if s, err = e.openSession(d, seed, res.ckptEvery); err != nil {
			return nil, err
		}
		took, err := s.setup(d)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, took.Seconds())
		if rep < setups-1 {
			s.close()
		}
	}
	// Whatever happens from here on, the result carries what the
	// connections counted, and the server is stopped.
	defer func() {
		for _, c := range append(s.clients, s.ctl) {
			res.attempted += c.attempted
			res.failed += c.failed
			res.casStored += c.casStored
			res.casExists += c.casExists
			if c.firstFailure != "" {
				res.failures = append(res.failures, c.firstFailure)
			}
		}
		s.close()
	}()

	if err := s.closedLoop(phase(warmShare), nil); err != nil {
		return res, err
	}
	before, err := s.ctl.stats()
	if err != nil {
		return res, fmt.Errorf("stats: %w", err)
	}
	cpu0, err := s.srv.cpuSeconds()
	if err != nil {
		return res, err
	}
	attempted0 := s.loadAttempted()
	recs := make([]*sliceRecorder, len(s.clients))
	t0 := time.Now()
	for i := range recs {
		recs[i] = newSliceRecorder(t0, phase(closedShare))
	}
	if err := s.closedLoop(phase(closedShare), recs); err != nil {
		return res, err
	}
	res.closedSecs = time.Since(t0).Seconds()
	cpu1, err := s.srv.cpuSeconds()
	if err != nil {
		return res, err
	}
	after, err := s.ctl.stats()
	if err != nil {
		return res, fmt.Errorf("stats: %w", err)
	}
	attempted1 := s.loadAttempted()
	res.closedReqs = float64(attempted1 - attempted0)
	res.closed = summarize(recs, math.Inf(1))
	res.cpuUsPerOp = (cpu1 - cpu0) * 1e6 / res.closedReqs
	res.delta = map[string]float64{}
	for k, v := range after {
		res.delta[k] = v - before[k]
	}

	t0 = time.Now()
	for i := range recs {
		recs[i] = newSliceRecorder(t0, phase(fixedShare))
	}
	res.lateFrac, err = s.fixedRate(w.rateFixed, phase(fixedShare), recs)
	res.fixedReqs = float64(s.loadAttempted() - attempted1)
	res.fixed = summarize(recs, w.sloUs)
	if err != nil {
		return res, err
	}

	if res.end, err = s.ctl.stats(); err != nil {
		return res, fmt.Errorf("stats: %w", err)
	}
	if res.rssMB, err = s.srv.hwmMB(); err != nil {
		return res, err
	}
	res.memRatio = res.end["hicamp_live_lines"] * lineBytes / d.userBytes()

	if w.durable {
		err = e.restartCheck(s, d, seed, res)
	}
	return res, err
}

// restartCheck kills the durable child, restarts it on the same
// directory and checks every key: the value must be one the generator
// sent, not older than what its writer had acknowledged, and no
// acknowledged write may have been sent after the surviving value was
// itself acknowledged. A value newer than its writer's last
// acknowledgement was in flight at the kill and is accepted. A process
// kill leaves the OS page cache intact, so this checks recovery of the
// acknowledged prefix, not power loss.
func (e *env) restartCheck(s *session, d *dataset, seed int64, res *servedResult) error {
	s.srv.stop(true)
	restarted := time.Now()
	srv, err := e.launch(s.dataDir, res.ckptEvery)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	s.srv = srv
	v, err := dialClient(srv.address(), loadConns, d, seed)
	if err != nil {
		return err
	}
	s.ctl.close()
	s.ctl = v
	writers := s.clients
	v.onRead = func(key int, val []byte) {
		conn, seq, ok := d.checkValue(val, key)
		if !ok || conn >= uint64(len(writers)) || seq > writers[conn].gen.seq {
			v.fail("after restart %s: not a value that was sent", d.keys[key])
			return
		}
		own := writers[conn].acked[key]
		if seq < own.seq {
			v.fail("after restart %s: seq %d older than acknowledged %d", d.keys[key], seq, own.seq)
			return
		}
		ackedAt := int64(math.MaxInt64) // in flight at the kill
		if seq == own.seq {
			ackedAt = own.ackNs
		}
		for c, other := range writers {
			if o := other.acked[key]; uint64(c) != conn && o.ackNs != 0 && o.sendNs > ackedAt {
				v.fail("after restart %s: acknowledged seq %d of conn %d lost", d.keys[key], o.seq, c)
				return
			}
		}
	}
	if err := v.verify(0, 1); err != nil {
		return err
	}
	if v.failed == 0 {
		res.recoveryS = time.Since(restarted).Seconds()
	}
	res.restartChecks = len(d.keys)
	return v.verify(1, len(d.keys))
}
