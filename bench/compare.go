package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// contractMetric is one end_to_end or per_layer entry of BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the part of BENCHMARK.json this program reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

// readContract finds BENCHMARK.json in the working directory or above it.
func readContract() (*contract, error) {
	_, b, err := findUp("BENCHMARK.json", func([]byte) bool { return true })
	if err != nil {
		return nil, err
	}
	c := &contract{}
	return c, json.Unmarshal(b, c)
}

// verdict judges b against a for one metric: worse or better only when
// the change exceeds the bound, as a share of a.
func verdict(m contractMetric, a, b float64) string {
	if m.Better == "lower" {
		a, b = -a, -b
	}
	limit := m.Bound * max(a, -a)
	switch {
	case b < a-limit:
		return "worse"
	case b > a+limit:
		return "better"
	}
	return "ok"
}

// compareReports prints, per workload and end-to-end metric, both values,
// b/a with a named as the base, the bound and the verdict. Metrics that
// are not end-to-end are printed as deltas and never gated. It returns
// the exit code: 1 when any end-to-end metric is worse or b failed a
// larger share of its requests than a did.
func compareReports(out io.Writer, pathA, pathB string) int {
	ct, err := readContract()
	if err != nil {
		fatal("%v", err)
	}
	a, err := readReport(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readReport(pathB)
	if err != nil {
		fatal("%v", err)
	}
	e2e := map[string]contractMetric{}
	for _, m := range ct.EndToEnd {
		e2e[m.Name] = m
	}
	bad := 0
	fmt.Fprintf(out, "A = %s (commit %s, seed %d)\nB = %s (commit %s, seed %d)\n",
		pathA, a.Header.Commit, a.Header.Seed, pathB, b.Header.Commit, b.Header.Seed)
	for _, w := range ct.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(out, "\n%s: missing from %s\n", w.Name, map[bool]string{true: "A", false: "B"}[ra == nil])
			bad++
			continue
		}
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		fmt.Fprintf(out, "\n%s: ops_failed/ops_attempted A %d/%d  B %d/%d", w.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		if fb > fa {
			fmt.Fprintf(out, "  worse")
			bad++
		}
		fmt.Fprintf(out, "\n  %-34s %14s %14s %18s %7s  %s\n", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
		names := make([]string, 0, len(rb.Metrics))
		for name := range rb.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ma, ok := ra.Metrics[name]
			if !ok {
				continue
			}
			mb := rb.Metrics[name]
			m, gated := e2e[name]
			if !gated {
				fmt.Fprintf(out, "  %-34s %14.4f %14.4f %+18.4f %7s  (per-layer, %s)\n", name, ma.Value, mb.Value, mb.Value-ma.Value, "-", mb.Unit)
				continue
			}
			v := verdict(m, ma.Value, mb.Value)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(out, "  %-34s %14.4f %14.4f %18.4f %7.3f  %s (%s, %s is better)\n",
				name, ma.Value, mb.Value, ratio(mb.Value, ma.Value), m.Bound, v, mb.Unit, m.Better)
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "\n%d worse\n", bad)
		return 1
	}
	fmt.Fprintf(out, "\nno end-to-end metric worse than its bound\n")
	return 0
}
