// Command hicampbench regenerates every table and figure of the paper's
// evaluation (§5). With no flags it runs the full set at test scale;
// -exp selects one experiment and -paper approaches the paper's workload
// sizes (slower).
//
//	hicampbench -exp fig6
//	hicampbench -exp table2 -paper
//	hicampbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/pool"
)

var experimentOrder = []string{
	"fig6", "table1", "chunking", "conflict", "contention", "durability", "fig7", "fig8", "table2", "fig9", "fig10",
}

var descriptions = map[string]string{
	"fig6":       "memcached DRAM accesses, conventional vs HICAMP, 16/32/64B lines",
	"table1":     "memcached data compaction per dataset and line size",
	"chunking":   "content-defined chunked ingest: shifted-corpus dedup, cold vs warm memo",
	"conflict":   "sec 5.1.1 concurrent-update analysis + live mCAS contention",
	"contention": "multi-writer merge-update: DRAM flat over size, throughput vs overlap",
	"durability": "acked-write throughput, per-write fsync vs group commit; cold recovery vs checkpoint placement",
	"fig7":       "SpMV off-chip access ratio over the matrix suite",
	"fig8":       "per-matrix footprint, best HICAMP format vs CSR",
	"table2":     "footprint savings grouped by matrix category",
	"fig9":       "memory consumed scaling 1-10 VMs per VMmark workload",
	"fig10":      "memory consumed scaling 1-10 VMmark tiles",
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list), or all")
	paper := flag.Bool("paper", false, "run at paper-approaching scale (slower)")
	list := flag.Bool("list", false, "list experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	poolstats := flag.Bool("poolstats", false, "print scratch-pool hit/miss/oversize telemetry on exit")
	flag.Parse()

	if *list {
		for _, id := range experimentOrder {
			fmt.Printf("%-9s %s\n", id, descriptions[id])
		}
		return
	}
	// Profiles are finalized by defers inside realMain, so run/flag errors
	// (which exit non-zero) still flush whatever was collected.
	os.Exit(realMain(*exp, *paper, *cpuprofile, *memprofile, *poolstats))
}

func realMain(exp string, paper bool, cpuprofile, memprofile string, poolstats bool) int {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicampbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hicampbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hicampbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hicampbench: -memprofile: %v\n", err)
			}
		}()
	}
	sc := experiments.ScaleTest
	if paper {
		sc = experiments.ScalePaper
	}
	ids := experimentOrder
	if exp != "all" {
		ids = []string{exp}
	}
	for _, id := range ids {
		if err := run(id, sc); err != nil {
			fmt.Fprintf(os.Stderr, "hicampbench: %s: %v\n", id, err)
			return 1
		}
	}
	if poolstats {
		printPoolStats()
	}
	return 0
}

// printPoolStats renders the scratch-pool registry: one row per pool
// with the aggregate hit/miss/oversize/returned counters, and the
// non-empty bins underneath. A healthy steady-state run shows hits
// dominating misses (misses are the warmup) and oversize near zero.
func printPoolStats() {
	snap := pool.Snapshot()
	if len(snap) == 0 {
		fmt.Println("scratch pools: none registered")
		return
	}
	fmt.Println("scratch pools (hits/misses/oversize/returned):")
	for _, ps := range snap {
		if ps.Hits == 0 && ps.Misses == 0 && ps.Oversize == 0 {
			continue
		}
		fmt.Printf("  %-22s %8d %8d %8d %8d\n",
			ps.Name, ps.Hits, ps.Misses, ps.Oversize, ps.Returned)
		for _, b := range ps.Bins {
			if b.Hits == 0 && b.Misses == 0 {
				continue
			}
			fmt.Printf("    bin %-8d           %8d %8d          %8d\n",
				b.Size, b.Hits, b.Misses, b.Returned)
		}
	}
	fmt.Println()
}

func run(id string, sc experiments.Scale) error {
	start := time.Now()
	var tbl experiments.Table
	switch id {
	case "fig6":
		t, _, err := experiments.RunFig6(sc)
		if err != nil {
			return err
		}
		tbl = t
	case "table1":
		tbl, _ = experiments.RunTable1(sc)
	case "chunking":
		tbl, _ = experiments.RunChunking(sc)
	case "conflict":
		t, _, err := experiments.RunConflict(sc)
		if err != nil {
			return err
		}
		tbl = t
	case "contention":
		t, _, err := experiments.RunContention(sc)
		if err != nil {
			return err
		}
		tbl = t
	case "durability":
		t, _, err := experiments.RunDurability(sc)
		if err != nil {
			return err
		}
		tbl = t
	case "fig7":
		tbl, _ = experiments.RunFig7(sc)
	case "fig8":
		tbl, _ = experiments.RunFig8(sc)
	case "table2":
		_, results := experiments.RunFig8(sc)
		tbl, _ = experiments.RunTable2(results)
	case "fig9":
		tbl, _ = experiments.RunFig9()
	case "fig10":
		tbl, _ = experiments.RunFig10()
	default:
		var known []string
		for _, k := range experimentOrder {
			known = append(known, fmt.Sprintf("  %-10s %s", k, descriptions[k]))
		}
		return fmt.Errorf("unknown experiment %q; available experiments:\n%s",
			id, strings.Join(known, "\n"))
	}
	fmt.Print(tbl.Render())
	fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	return nil
}
