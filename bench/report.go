package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// metricDef names one reported number. BENCHMARK.json repeats these names
// and units and adds the direction and bound; a test keeps the two in
// step.
type metricDef struct {
	name, unit string
	host       bool // host time or host memory; false = simulated or a count
}

// endToEnd is what a user of the served system sees, every workload
// reporting all of them. Two numbers the issue listed here are per-layer
// instead, because on the shared 2-core sandbox their run-to-run spread
// reaches the largest bound a metric may have: the closed-loop p99
// (client.lat_p99_us; p95 takes its place) and the child's CPU time per
// request (hicampd.cpu_us_per_op).
var endToEnd = []metricDef{
	{"rps", "req/s", true},
	{"lat_p50_us", "us", true},
	{"lat_p95_us", "us", true},
	{"lat_fixed_p50_us", "us", true},
	{"dram_per_op", "accesses/req", false},
	{"mem_bytes_per_user_byte", "ratio", false},
	{"rss_mb", "MB", true},
	{"setup_s", "s", true},
	{"ok_frac", "ratio", false},
}

// perLayer is one layer's own numbers: from the child's stats across the
// closed loop (client, netfront windows, segmap, durable counters, pool)
// and from the in-process traced run (everything timed).
var perLayer = []metricDef{
	{"hicampd.cpu_us_per_op", "us", true},
	{"client.lat_p99_us", "us", true},
	{"client.late_frac", "ratio", true},
	{"client.lat_fixed_p99_us", "us", true},
	{"client.slo_ok_frac", "ratio", true},
	{"client.samples", "count", false},
	{"netfront.window_ops", "count", false},
	{"netfront.windows_per_s", "1/s", true},
	{"netfront.parse_ns_per_cmd", "ns", true},
	{"netfront.reply_ns_per_value", "ns", true},
	{"netfront.self_us_per_op", "us", true},
	{"netfront.cas_exists_frac", "ratio", false},
	{"netfront.get_miss_frac", "ratio", false},
	{"kvstore.read_us_per_op", "us", true},
	{"kvstore.write_us_per_op", "us", true},
	{"kvstore.self_us_per_op", "us", true},
	{"kvstore.ack_durable_us_per_window", "us", true},
	{"hds.get_us_per_key", "us", true},
	{"hds.apply_us_per_pair", "us", true},
	{"hds.compare_apply_us_per_op", "us", true},
	{"hds.cas_retries", "count", false},
	{"merge.rebase_us_per_path", "us", true},
	{"merge.lines_read_per_path", "count", false},
	{"merge.conflict_frac", "ratio", false},
	{"segment.build_ns_per_line", "ns", true},
	{"segment.gather_ns_per_word", "ns", true},
	{"segment.writebatch_ns_per_update", "ns", true},
	{"segment.memo_hit_rate", "ratio", false},
	{"segment.lines_per_update", "count", false},
	{"core.lookup_ns_per_line", "ns", true},
	{"core.read_ns_per_line", "ns", true},
	{"core.self_ns_per_line", "ns", true},
	{"core.llc_hit_rate", "ratio", false},
	{"cachesim.probe_ns", "ns", true},
	{"store.lookup_ns_per_line", "ns", true},
	{"store.read_ns_per_line", "ns", true},
	{"store.row_hit_rate", "ratio", false},
	{"store.overflow_frac", "ratio", false},
	{"store.allocs_per_op", "count", false},
	{"store.frees_per_op", "count", false},
	{"store.dram_sig_per_op", "accesses/req", false},
	{"store.dram_lookup_per_op", "accesses/req", false},
	{"store.dram_data_per_op", "accesses/req", false},
	{"store.dram_rc_per_op", "accesses/req", false},
	{"store.dram_dealloc_per_op", "accesses/req", false},
	{"segmap.commits_per_op", "count", false},
	{"segmap.conflict_frac", "ratio", false},
	{"durable.fsyncs_per_kop", "count", false},
	{"durable.group_size", "count", false},
	{"durable.log_bytes_per_user_byte", "ratio", false},
	{"durable.checkpoints", "count", false},
	{"durable.append_ns_per_rec", "ns", true},
	{"durable.sync_ms_p50", "ms", true},
	{"durable.checkpoint_ms", "ms", true},
	{"durable.recovery_s", "s", true},
	{"durable.replayed_records", "count", false},
	{"pool.hit_rate", "ratio", false},
	{"pool.oversize_frac", "ratio", false},
	{"trace.allocs_per_op", "count", false},
	{"trace.overhead_frac", "ratio", true},
}

// metric is one value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill turns measured values into the metrics of defs; a value that was
// not measured, or is not finite, makes the run incorrect instead of
// being printed as a number it is not.
func (r *result) fill(defs []metricDef, vals map[string]float64) {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s not measured (%v)\n", d.name, v)
			r.Correct = false
			v = 0
		}
		r.Metrics[d.name] = metric{v, d.unit}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// servedMetrics derives the end-to-end metrics from one untraced run.
func servedMetrics(sr *servedResult) map[string]float64 {
	return map[string]float64{
		"rps":                     sr.closed.rps,
		"lat_p50_us":              sr.closed.p50,
		"lat_p95_us":              sr.closed.p95,
		"lat_fixed_p50_us":        sr.fixed.p50,
		"dram_per_op":             ratio(sr.delta["hicamp_dram_accesses"], sr.closedReqs),
		"mem_bytes_per_user_byte": sr.memRatio,
		"rss_mb":                  sr.rssMB,
		"setup_s":                 median(sr.setupS),
		"ok_frac":                 1 - ratio(float64(sr.failed), float64(sr.attempted)),
	}
}

// statsMetrics derives the per-layer metrics that come from the child:
// its stats deltas across the closed loop and the client's own view of
// the fixed-rate phase.
func statsMetrics(d *dataset, sr *servedResult) map[string]float64 {
	dl := sr.delta
	sets := dl["cmd_set"] + dl["cas_stored"]
	poolGets := dl["pool_hits"] + dl["pool_misses"] + dl["pool_oversize"]
	return map[string]float64{
		"hicampd.cpu_us_per_op":           sr.cpuUsPerOp,
		"client.lat_p99_us":               sr.closed.p99,
		"client.late_frac":                sr.lateFrac,
		"client.lat_fixed_p99_us":         sr.fixed.p99,
		"client.slo_ok_frac":              ratio(float64(sr.fixed.within), sr.fixedReqs),
		"client.samples":                  float64(sr.closed.samples + sr.fixed.samples),
		"netfront.window_ops":             ratio(dl["batched_ops"], dl["batches"]),
		"netfront.windows_per_s":          ratio(dl["batches"], sr.closedSecs),
		"netfront.cas_exists_frac":        ratio(dl["cas_exists"], dl["cmd_cas"]),
		"netfront.get_miss_frac":          ratio(dl["get_misses"], dl["cmd_get"]),
		"segmap.commits_per_op":           ratio(dl["segmap_commits"], sr.closedReqs),
		"segmap.conflict_frac":            ratio(dl["segmap_conflicts"], dl["segmap_commits"]+dl["segmap_conflicts"]),
		"durable.fsyncs_per_kop":          1000 * ratio(dl["durable_fsyncs"], sr.closedReqs),
		"durable.group_size":              ratio(dl["durable_appends"], dl["durable_group_commits"]),
		"durable.log_bytes_per_user_byte": ratio(dl["durable_log_bytes"], sets*d.userBytes()/float64(len(d.keys))),
		"durable.checkpoints":             sr.end["durable_checkpoints"],
		"durable.recovery_s":              sr.recoveryS,
		"pool.hit_rate":                   ratio(dl["pool_hits"], poolGets),
		"pool.oversize_frac":              ratio(dl["pool_oversize"], poolGets),
	}
}

// header records where and how a report was made.
type header struct {
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"` // of the hicampd child
	Conns      int     `json:"conns"`
	Depth      int     `json:"depth"`
	Degraded   bool    `json:"degraded"` // more load connections than CPUs
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Flush      string  `json:"flush_policy"`
	Note       string  `json:"note"`
	// Simulated names the metrics that are quantities of the modelled
	// memory or plain counts; every other metric is host time or memory.
	Simulated []string `json:"simulated_or_count"`
}

// notHostMetrics lists the metrics a host-only optimisation must leave
// unchanged.
func notHostMetrics() (names []string) {
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !d.host {
			names = append(names, d.name)
		}
	}
	return names
}

// report is the document -out writes and -compare reads: one result per
// workload under a header.
type report struct {
	Header    header             `json:"header"`
	Workloads map[string]*result `json:"workloads"`
	// Detail carries what the metrics rest on — sample counts, per-phase
	// request counts, set-up repeats — for a reader, not for -compare.
	Detail map[string]map[string]any `json:"detail"`
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
