// Package loadgen drives a live ROADS federation at topology scale: it
// spins up hundreds to thousands of servers on the in-process transport
// in a configurable deep/wide hierarchy, attaches trace-shaped workloads
// from internal/workload, resolves selectivity-realistic queries through
// concurrent clients, and injects churn — owner record swaps, first-class
// add/remove write traffic, server crash/rejoin, and whole-subtree network
// partitions — mid-run.
//
// A run reports end-to-end latency percentiles, coverage, false-positive
// descent rate, transport bytes per node per second, refresh-pipeline
// economics, and (under partition churn) the split-brain exposure and
// post-heal re-convergence the membership-epoch protocol delivers. The
// cache/admission knobs (Config.RepeatFraction, ClientCache, HotClients,
// AdmissionRate) add a hot-tenant overload mode that measures client-cache
// hits and the p99 protection admission gives high-priority traffic while a
// low-priority tenant is shed to coarse answers.
//
// cmd/roads-load is the CLI front-end; `make bench-load` and
// `make bench-cache` archive runs as BENCH_*.json via cmd/benchjson (see
// EXPERIMENTS.md for the knobs and the archived baselines).
package loadgen
