// Package repro is a library-quality reproduction of "HICAMP:
// Architectural Support for Efficient Concurrency-safe Shared Structured
// Data Access" (Cheriton, Firoozshahian, Solomatnikov, Stevenson, Azizi;
// ASPLOS 2012).
//
// The implementation lives under internal/: the deduplicating line store
// (internal/store), the HICAMP cache and the conventional baseline
// hierarchy (internal/cachesim), canonical segment DAGs with path and
// data compaction (internal/segment), the virtual segment map
// (internal/segmap), iterator registers (internal/iterreg), merge-update
// (internal/merge), the composed machine (internal/core), the §4
// strings and key-value map (internal/hds), and the three application
// studies
// (internal/kvstore, internal/spmv, internal/vmhost). Every table and
// figure of the paper's evaluation regenerates through
// internal/experiments and cmd/hicampbench; bench/ (its own module)
// measures the served memcached path end to end. This package holds
// only the repository-wide source guards (guard_test.go), including the
// reachability guard (reach_test.go) that keeps code only tests reach
// out of non-test files.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results.
package repro
