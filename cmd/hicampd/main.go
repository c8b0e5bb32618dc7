// Command hicampd serves the memcached text protocol over a HICAMP
// store: get/gets/set/cas/delete and multi-key get, with stats wired to
// the simulated machine's telemetry (DRAM accesses, live lines,
// per-namespace commit/conflict counters, scratch-pool hit rates).
// Requests from all connections aggregate into bounded flush windows —
// one snapshot + gather wave per namespace for a window's reads, one
// Apply wave commit for its writes. Keys with a "tenant/" prefix route to
// per-tenant namespaces (own VSID, own commit/conflict domain).
//
//	hicampd -addr :11211
//	printf 'set greeting 0 0 5\r\nhello\r\nget greeting\r\nquit\r\n' | nc localhost 11211
//
// -smoke serves one loopback socket, drives a built-in mixed workload
// against it (sets, pipelined multigets, cas rebase, deletes, tenant
// keys, stats), shuts the server down cleanly and verifies the
// connection scratch pools leaked nothing; CI runs this as the network
// stage.
//
// -cpuprofile FILE writes a CPU profile of the whole run, from start to
// clean shutdown (SIGTERM, interrupt, or the end of -smoke); read it with
// go tool pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/netfront"
	"repro/internal/pool"
)

func main() { os.Exit(run()) }

// run serves until a clean shutdown and returns the process exit code;
// the CPU profile, if asked for, is finished by its defer on every path.
func run() int {
	addr := flag.String("addr", ":11211", "listen address")
	lineBytes := flag.Int("line-bytes", 16, "HICAMP line size in bytes (16/32/64)")
	cacheKB := flag.Int("cache-kb", 256, "simulated LLC size in KB")
	smoke := flag.Bool("smoke", false, "serve loopback, run the built-in workload, verify pool hygiene, exit")
	dataDir := flag.String("data-dir", "", "durable data directory (empty = memory-only)")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "background checkpoint interval with -data-dir")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile from start to clean shutdown to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicampd: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hicampd: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	cfg := core.Config{LineBytes: *lineBytes, BucketBits: 18, DataWays: 12, CacheWays: 16}
	if *lineBytes > 0 {
		cfg.CacheLines = (*cacheKB << 10) / *lineBytes
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "hicampd: %v\n", err)
		return 2
	}
	store, err := kvstore.NewHicampServerOpts(cfg, kvstore.ServerOptions{
		DataDir:         *dataDir,
		CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicampd: open store: %v\n", err)
		return 1
	}
	if store.Durable() {
		ds := store.DurableStats()
		fmt.Printf("hicampd: recovered %d lines, %d roots in %s from %s\n",
			ds.RecoveredLines, ds.RecoveredRoots, ds.RecoveryTime, *dataDir)
	}
	srv := netfront.NewServer(store, netfront.DefaultOptions())

	if *smoke {
		return runSmoke(srv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "hicampd: shutting down")
		srv.Close()
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hicampd: close store: %v\n", err)
		}
	}()
	fmt.Printf("hicampd: serving memcached protocol on %s\n", *addr)
	if err := srv.ListenAndServe(*addr); err != nil && err != netfront.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "hicampd: %v\n", err)
		return 1
	}
	return 0
}

// runSmoke drives the built-in loopback workload and returns the
// process exit code. Every step's failure is fatal: the stage exists to
// catch protocol or lifecycle regressions that unit tests scoped to one
// layer might miss.
func runSmoke(srv *netfront.Server) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "hicampd -smoke: "+format+"\n", args...)
		return 1
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 100 && addr == ""; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if addr == "" {
		return fail("server never bound")
	}

	if err := smokeWorkload(addr); err != nil {
		return fail("%v", err)
	}

	if err := srv.Close(); err != nil {
		return fail("close: %v", err)
	}
	if err := <-done; err != nil && err != netfront.ErrServerClosed {
		return fail("serve: %v", err)
	}
	// Connection-scratch hygiene: after a clean shutdown every borrowed
	// op and buffer has been returned — a leak here means a code path
	// dropped a pooled object on an error or shutdown race.
	for _, ps := range pool.Snapshot() {
		if ps.Name != "netfront.op" && ps.Name != "netfront.buf" {
			continue
		}
		if got := ps.Hits + ps.Misses + ps.Oversize; got != ps.Returned {
			return fail("pool %s leaked: hits+misses+oversize=%d returned=%d",
				ps.Name, got, ps.Returned)
		}
	}
	c := srv.Counters()
	fmt.Printf("hicampd -smoke: OK (%d gets, %d sets, %d cas, %d deletes, %d windows)\n",
		c.CmdGet, c.CmdSet, c.CmdCas, c.CmdDelete, c.Batches)
	return 0
}

// smokeWorkload exercises the protocol surface over several concurrent
// connections: pipelined multigets, flags round-trips, tenant-prefixed
// keys, a cas merge-rebase, deletes, and stats.
func smokeWorkload(addr string) error {
	// Concurrent mixed traffic first, so the windows aggregate across
	// connections.
	const conns, rounds = 4, 25
	errs := make(chan error, conns)
	for g := 0; g < conns; g++ {
		go func(g int) {
			cl, err := netfront.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("smoke:%d:%d", g, r)
				val := []byte(fmt.Sprintf("value-%d-%d", g, r))
				if err := cl.Set(key, val); err != nil {
					errs <- fmt.Errorf("conn %d set: %w", g, err)
					return
				}
				got, ok, err := cl.Get(key)
				if err != nil || !ok || string(got) != string(val) {
					errs <- fmt.Errorf("conn %d get %s: ok=%v err=%v", g, key, ok, err)
					return
				}
				if r%5 == 4 {
					if _, err := cl.Delete(key); err != nil {
						errs <- fmt.Errorf("conn %d delete: %w", g, err)
						return
					}
				}
			}
			errs <- cl.Quit()
		}(g)
	}
	for g := 0; g < conns; g++ {
		if err := <-errs; err != nil {
			return err
		}
	}

	// Protocol surface on one connection.
	cl, err := netfront.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for i := 0; i < 8; i++ {
		if err := cl.Set(fmt.Sprintf("tenant-a/k%d", i), []byte(fmt.Sprintf("av%d", i))); err != nil {
			return err
		}
	}
	if err := cl.SendMGet("tenant-a/k0", "tenant-a/k3", "smoke:none", "tenant-a/k7"); err != nil {
		return err
	}
	if err := cl.Flush(); err != nil {
		return err
	}
	vs, err := cl.ReadValues()
	if err != nil {
		return err
	}
	if len(vs) != 3 {
		return fmt.Errorf("mget: %d values, want 3 (miss excluded)", len(vs))
	}

	// cas: stale token with a disjoint interleaved write rebases to
	// STORED; a same-key overwrite is a true conflict and answers EXISTS.
	if err := cl.Set("cas/target", []byte("v0")); err != nil {
		return err
	}
	v, ok, err := cl.Gets("cas/target")
	if err != nil || !ok {
		return fmt.Errorf("gets: ok=%v err=%v", ok, err)
	}
	if err := cl.Set("cas/other", []byte("interleaved")); err != nil {
		return err
	}
	if rep, err := cl.Cas("cas/target", []byte("v1"), v.Cas); err != nil || rep != "STORED" {
		return fmt.Errorf("cas rebase: rep=%q err=%v", rep, err)
	}
	if rep, err := cl.Cas("cas/target", []byte("v2"), v.Cas); err != nil || rep != "EXISTS" {
		return fmt.Errorf("stale cas on overwritten key: rep=%q err=%v", rep, err)
	}

	stats, err := cl.Stats()
	if err != nil {
		return err
	}
	for _, k := range []string{"cmd_get", "cmd_set", "hicamp_dram_accesses", "hicamp_live_lines"} {
		if _, ok := stats[k]; !ok {
			return fmt.Errorf("stats: missing %s", k)
		}
	}
	return cl.Quit()
}
