package durable

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
)

// Fault-point registry for the crash-injection harness. Every I/O step
// that matters for crash consistency — log writes, fsyncs, segment
// rolls, checkpoint writes, renames, truncation deletes — crosses a
// fault point. A test re-execs the binary as a child process with
// DURABLE_FAULT_KILL=N in the environment; the child exits hard (no
// deferred cleanup, mimicking a crash) at the Nth point crossed. With
// DURABLE_FAULT_COUNT set instead, points are only counted, so the
// harness can calibrate the sweep range by running the workload once to
// completion and reading FaultPointsCrossed.
//
// The registry is process-global and armed once at init from the
// environment: fault points sit on hot paths (group-commit flushes) and
// must cost one predictable branch when disarmed.

// FaultExitCode is the child's exit code at an injected crash,
// distinguishable from ordinary test failures.
const FaultExitCode = 86

var (
	faultArmed    atomic.Bool
	faultCounting atomic.Bool
	faultRemain   atomic.Int64
	faultCrossed  atomic.Int64
)

func init() {
	if v := os.Getenv("DURABLE_FAULT_KILL"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "durable: bad DURABLE_FAULT_KILL %q\n", v)
			os.Exit(2)
		}
		faultRemain.Store(n)
		faultArmed.Store(true)
	}
	if os.Getenv("DURABLE_FAULT_COUNT") != "" {
		faultCounting.Store(true)
	}
}

// faultPoint is crossed at every crash-relevant I/O step.
func faultPoint() {
	if faultCounting.Load() {
		faultCrossed.Add(1)
		return
	}
	if !faultArmed.Load() {
		return
	}
	if faultRemain.Add(-1) == 0 {
		os.Exit(FaultExitCode)
	}
}
