// Command bench is the served-path benchmark: it builds cmd/hicampd from
// the checkout it runs in, launches it as a child, drives it over loopback
// with the memcached text protocol from two pipelined connections, checks
// every reply, and prints the end-to-end metrics BENCHMARK.json names.
// With -trace 1 it prints the per-layer metrics instead: the child's own
// stats across a shorter closed loop, and an in-process traced run that
// times the calls into each layer's public functions.
//
//	bash bench/run.sh -workload set_write -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -out bench/out/a.json          # all four workloads
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
//
// See README.md for the metrics, the workloads and how to read a trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seeds key choice and values")
	seconds := flag.Float64("seconds", 15, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 = print the per-layer metrics (stats deltas + traced in-process run)")
	out := flag.String("out", "", "also write the report document here (the input of -compare)")
	compare := flag.Bool("compare", false, "compare two report documents: -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		os.Exit(compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fatal("usage: [-workload name|all] [-seed n] [-seconds s>=1] [-trace 0|1] [-out file]")
	}
	var run []*workload
	for i := range workloads {
		if *name == "all" || *name == workloads[i].name {
			run = append(run, &workloads[i])
		}
	}
	if len(run) == 0 {
		fatal("unknown workload %q", *name)
	}

	e, err := newEnv()
	if err != nil {
		fatal("%v", err)
	}
	rep := &report{
		Header: header{
			Nproc: e.nproc, Gomaxprocs: e.nproc, Conns: loadConns, Depth: depth,
			Degraded:  loadConns > e.nproc,
			GoVersion: runtime.Version(), Commit: e.commit(),
			Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			Flush: "hicampd defaults: netfront window 128 ops / 150us, durable group commit 2ms",
			Note: "host times are this sandbox's; dram_per_op, mem_bytes_per_user_byte and the store.dram_* split are simulated quantities. " +
				"A process kill leaves the OS page cache intact: the durable restart check covers acknowledged-prefix recovery, not power loss.",
			Simulated: notHostMetrics(),
		},
		Workloads: map[string]*result{},
		Detail:    map[string]map[string]any{},
	}
	var last *result
	for _, w := range run {
		res, detail := e.runWorkload(w, *seed, *seconds, *trace == 1)
		rep.Workloads[w.name], rep.Detail[w.name] = res, detail
		last = res
		b, _ := json.Marshal(detail)
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, b)
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fatal("%v", err)
		}
	}
	// One workload: the last line is its result object, the form the
	// pipeline reads. All workloads: the last line is the whole document.
	var line []byte
	if len(run) == 1 {
		line, _ = json.Marshal(last)
	} else {
		line, _ = json.Marshal(rep)
	}
	fmt.Printf("%s\n", line)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// commit names the checkout's commit when it is a git repository.
func (e *env) commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// In a traced run the child gets this share of --seconds (a shorter
// closed loop and fixed-rate phase, for the stats-sourced metrics) and the
// in-process traced run the rest.
const tracedServedShare = 0.5

// runWorkload runs one workload and turns what it measured into the
// result object. Whatever goes wrong is reported in the result (correct =
// false) and on standard error; only a missing checkout is fatal.
func (e *env) runWorkload(w *workload, seed int64, seconds float64, traced bool) (*result, map[string]any) {
	res := &result{Correct: true}
	detail := map[string]any{"why": w.why, "rate_fixed": w.rateFixed, "slo_us": w.sloUs}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		res.Correct = false
	}

	servedSecs, setups := seconds, setupRepeats
	if traced {
		servedSecs, setups = seconds*tracedServedShare, 1
	}
	d := newDataset(w, seed)
	sr, err := e.served(w, d, seed, servedSecs, setups)
	if err != nil {
		fail(err)
	}
	if sr == nil {
		sr = &servedResult{}
	}
	res.Attempted, res.Failed = sr.attempted, sr.failed
	for _, f := range sr.failures {
		fail(fmt.Errorf("%s", f))
	}
	detail["setup_s_repeats"] = sr.setupS
	detail["closed_requests"] = sr.closedReqs
	detail["closed_samples"] = sr.closed.samples
	detail["closed_min_slice_samples"] = sr.closed.minSlice
	detail["closed_slices_rps_p50_p95_p99"] = sr.closed.slices
	detail["fixed_slices_rps_p50_p95_p99"] = sr.fixed.slices
	detail["fixed_requests"] = sr.fixedReqs
	detail["fixed_samples"] = sr.fixed.samples
	detail["late_frac"] = sr.lateFrac
	detail["cas_stored"], detail["cas_exists"] = sr.casStored, sr.casExists
	if w.durable {
		detail["checkpoint_every"] = sr.ckptEvery.String()
		detail["checkpoints"] = sr.end["durable_checkpoints"]
		detail["restart_keys_checked"] = sr.restartChecks
		detail["recovery_s"] = sr.recoveryS
		if sr.restartChecks != len(d.keys) && err == nil {
			fail(fmt.Errorf("restart check did not run"))
		}
	}

	if !traced {
		res.fill(endToEnd, servedMetrics(sr))
	} else {
		vals := statsMetrics(d, sr)
		tr, err := e.traced(w, d, seed, seconds*(1-tracedServedShare))
		if err != nil {
			fail(err)
		}
		if tr != nil {
			res.Attempted += tr.attempted
			res.Failed += tr.failed
			for _, f := range tr.failures {
				fail(fmt.Errorf("%s", f))
			}
			for k, v := range tr.metrics {
				vals[k] = v
			}
			for k, v := range tr.detail {
				detail[k] = v
			}
		}
		res.fill(perLayer, vals)
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	res.Attempted = max(res.Attempted, 1)
	return res, detail
}
