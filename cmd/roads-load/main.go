// Command roads-load runs the topology-scale load harness
// (internal/loadgen): it builds an N-server live hierarchy on the
// in-process transport, drives it with trace-shaped queries under an
// optional churn schedule, and reports latency percentiles, coverage,
// false-positive descent rate and transport bytes per node per second.
//
// The human-readable report goes to stderr. Stdout carries one
// `go test -bench`-format line so the run archives through cmd/benchjson:
//
//	roads-load -n 1000 -churn-kill 2s | benchjson -o BENCH_pr6.json
//
// `make bench-load` wires exactly that pipeline (see EXPERIMENTS.md for
// the knobs and the archived baselines).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"roads/internal/loadgen"
	"roads/internal/obs"
)

func main() {
	var cfg loadgen.Config
	flag.IntVar(&cfg.Servers, "n", 1000, "number of live servers")
	flag.IntVar(&cfg.FanOut, "fanout", 8, "max children per server")
	flag.IntVar(&cfg.MinDepth, "mindepth", 0, "force the hierarchy at least this deep (spine)")
	flag.IntVar(&cfg.OwnerEvery, "owner-every", 4, "attach a resource owner at every k-th server")
	flag.IntVar(&cfg.RecordsPerOwner, "records", 50, "records per owner")
	flag.IntVar(&cfg.AttrsPerDist, "attrs", 2, "attributes per distribution family (4 families)")
	flag.IntVar(&cfg.SummaryBuckets, "buckets", 32, "summary histogram buckets per attribute")
	flag.IntVar(&cfg.QueryDims, "dims", 3, "query dimensions")
	flag.Float64Var(&cfg.QueryRange, "range", 0.25, "per-dimension query range length")
	flag.Float64Var(&cfg.QuerySkew, "query-skew", 0, "fraction of queries made hot: narrow range on one window attribute plus a categorical Eq (0: off)")
	flag.IntVar(&cfg.CategoricalAttrs, "cat-attrs", 0, "categorical attributes appended to the workload (0: none)")
	flag.IntVar(&cfg.CategoricalVocab, "cat-vocab", 0, "categorical vocabulary size (0: workload default 16)")
	flag.IntVar(&cfg.CategoricalDepth, "cat-depth", 0, "dotted-path segments per categorical value (<=1: flat tokens)")
	flag.BoolVar(&cfg.SummaryBloom, "summary-bloom", false, "summarize categorical attributes with Bloom filters instead of exact value sets")
	flag.IntVar(&cfg.CondenseAbove, "condense-above", 0, "collapse categorical value sets larger than this into dotted-prefix wildcards (0: off)")
	flag.BoolVar(&cfg.DisableAdaptive, "no-adaptive", false, "disable feedback-driven summary resolution (static baseline)")
	flag.IntVar(&cfg.SummaryByteBudget, "summary-budget", 0, "per-server summary byte budget the adaptive planner honours (0: unbounded)")
	flag.IntVar(&cfg.ReplanEvery, "replan-every", 0, "aggregation rounds between adaptive replans (0: library default)")
	flag.IntVar(&cfg.Queries, "queries", 400, "queries to issue")
	flag.IntVar(&cfg.Clients, "clients", 4, "concurrent query clients")
	flag.DurationVar(&cfg.QueryTimeout, "query-timeout", 15*time.Second, "per-query resolve timeout")
	flag.DurationVar(&cfg.MinDrive, "drive-min", 0, "keep the drive phase alive at least this long (wrap the query list)")
	flag.DurationVar(&cfg.ConvergeTimeout, "converge-timeout", 5*time.Minute, "post-build convergence wait")
	flag.DurationVar(&cfg.Tick, "tick", 250*time.Millisecond, "server maintenance period")
	flag.IntVar(&cfg.Parallelism, "par", 0, "cluster build worker pool (0: library default)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload/schedule seed")
	flag.DurationVar(&cfg.Churn.RecordEvery, "churn-records", 0, "interval between owner record-swap events (0: off)")
	flag.IntVar(&cfg.Churn.RecordOwners, "churn-owners", 1, "owners touched per record-swap event")
	flag.Float64Var(&cfg.Churn.RecordFraction, "churn-frac", 0.2, "fraction of a touched owner's records replaced")
	flag.DurationVar(&cfg.Churn.WriteEvery, "churn-writes", 0, "interval between owner add/remove write events (0: off)")
	flag.IntVar(&cfg.Churn.WriteOwners, "churn-write-owners", 1, "owners touched per write event")
	flag.Float64Var(&cfg.Churn.WriteFraction, "churn-write-frac", 0.05, "fraction of a touched owner's records removed and re-added per write event")
	flag.DurationVar(&cfg.Churn.KillEvery, "churn-kill", 0, "interval between server crash-kills (0: off)")
	flag.DurationVar(&cfg.Churn.ReviveAfter, "churn-revive", 2*time.Second, "downtime before a killed server rejoins")
	flag.DurationVar(&cfg.Churn.PartitionEvery, "churn-partition", 0, "interval between subtree network partitions (0: off)")
	flag.Float64Var(&cfg.Churn.PartitionFraction, "churn-partition-frac", 0.3, "target fraction of the tree each partition severs")
	flag.DurationVar(&cfg.Churn.HealAfter, "churn-heal", 2*time.Second, "how long a partition stays severed before healing")
	flag.Float64Var(&cfg.RepeatFraction, "repeat-frac", 0, "probability a drive client re-issues an already-issued query (repeat-query cache workload)")
	flag.BoolVar(&cfg.ClientCache, "client-cache", false, "enable the drive clients' fingerprint-validated record caches")
	clientPrio := flag.Int("client-priority", 0, "wire priority class the drive clients claim (0 normal, 1 low, 2 high)")
	flag.BoolVar(&cfg.Untraced, "untraced", false, "disable per-query tracing (no trace payload on any hop's reply; FP-descent stats report zero)")
	flag.IntVar(&cfg.HotClients, "hot-clients", 0, "extra low-priority hot-tenant clients hammering a small query set for the whole drive (0: off)")
	flag.Float64Var(&cfg.AdmissionRate, "admission-rate", 0, "per-requester admission token refill rate in queries/sec on every server (0: admission off)")
	flag.IntVar(&cfg.AdmissionBurst, "admission-burst", 0, "per-requester admission token burst (0: derived from rate)")
	promOut := flag.String("metrics-out", "", "also write the harness metrics registry (Prometheus text) to this file")
	flag.Parse()
	cfg.ClientPriority = uint8(*clientPrio)

	reg := obs.NewRegistry()
	cfg.Metrics = loadgen.RegisterMetrics(reg)

	fmt.Fprintf(os.Stderr, "roads-load: %d servers, fan-out %d, min depth %d, %d queries, churn(records=%v kill=%v partition=%v)\n",
		cfg.Servers, cfg.FanOut, cfg.MinDepth, cfg.Queries, cfg.Churn.RecordEvery, cfg.Churn.KillEvery, cfg.Churn.PartitionEvery)
	res, err := loadgen.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roads-load:", err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "built %d servers (depth %d) in %.2fs, converged %d records in %.2fs\n",
		res.Servers, res.Depth, res.BuildSeconds, res.Records, res.ConvergeSeconds)
	fmt.Fprintf(os.Stderr, "drove %d queries in %.2fs: %d failed, latency mean %v p50 %v p95 %v p99 %v\n",
		res.Queries, res.DriveSeconds, res.Failures, res.LatencyMean, res.LatencyP50, res.LatencyP95, res.LatencyP99)
	fmt.Fprintf(os.Stderr, "coverage mean %.4f min %.4f, fp descents %d/%d (%.4f), %.1f bytes/node/s\n",
		res.CoverageMean, res.CoverageMin, res.FPDescents, res.RedirectHops, res.FPDescentRate, res.BytesPerNodePerSec)
	if len(res.FPDescentsByDepth) > 0 || res.SummaryReplans > 0 || res.ServerFPDescents > 0 {
		fmt.Fprintf(os.Stderr, "fp by depth %v; adaptive: %d replans, %d server-side fp descents, plan deviation %d\n",
			res.FPDescentsByDepth, res.SummaryReplans, res.ServerFPDescents, res.PlanDeviationSum)
	}
	if res.RecordChurnEvents > 0 || res.Kills > 0 {
		fmt.Fprintf(os.Stderr, "churn: %d record events (%d records), %d kills, %d revives\n",
			res.RecordChurnEvents, res.RecordsReplaced, res.Kills, res.Revives)
	}
	if res.WriteChurnEvents > 0 {
		fmt.Fprintf(os.Stderr, "write churn: %d events (%d records removed+added), owner shard rebuilds %d, partial merges %d\n",
			res.WriteChurnEvents, res.RecordsWritten, res.OwnerShardRebuilds, res.OwnerPartialMerges)
	}
	if res.RefreshTicks > 0 {
		fmt.Fprintf(os.Stderr, "refresh: %d ticks, %d skipped (%.4f skip rate), %.2fs busy CPU across servers\n",
			res.RefreshTicks, res.RefreshSkipped, res.RefreshSkipRate, res.RefreshBusySeconds)
	}
	if res.Partitions > 0 {
		fmt.Fprintf(os.Stderr, "partitions: %d injected, %d healed, split-brain %.2fs, re-converged in %.2fs\n",
			res.Partitions, res.PartitionsHealed, res.SplitBrainSeconds, res.HealSeconds)
		fmt.Fprintf(os.Stderr, "membership: final roots %d, final coverage %.4f, %d merges, %d epoch regressions\n",
			res.FinalRoots, res.FinalCoverage, res.MembershipMerges, res.EpochRegressions)
	}
	if res.ClientCacheHits > 0 {
		fmt.Fprintf(os.Stderr, "client cache: %d resolves confirmed NotModified\n", res.ClientCacheHits)
	}
	if res.HotQueries > 0 || res.AdmissionAdmitted+res.AdmissionShed > 0 {
		fmt.Fprintf(os.Stderr, "admission: %d admitted, %d shed; hot tenant %d queries (%d coarse, %d failed, p99 %v)\n",
			res.AdmissionAdmitted, res.AdmissionShed,
			res.HotQueries, res.HotCoarse, res.HotFailures, res.HotLatencyP99)
	}

	if *promOut != "" {
		f, err := os.Create(*promOut)
		if err == nil {
			err = reg.WritePrometheus(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "roads-load: writing metrics:", err)
			os.Exit(1)
		}
	}

	// Benchmark-format line on stdout, parseable by cmd/benchjson. The
	// iteration count is the successful-query count; ns/op is the mean
	// end-to-end latency so bench-compare diffs it across archives.
	name := fmt.Sprintf("BenchmarkRoadsLoad/n=%d/fanout=%d/depth=%d", res.Servers, res.FanOut, res.Depth)
	if cfg.Churn.RecordEvery > 0 || cfg.Churn.WriteEvery > 0 || cfg.Churn.KillEvery > 0 {
		name += "/churn"
	}
	if cfg.Churn.PartitionEvery > 0 {
		name += "/partition"
	}
	if cfg.RepeatFraction > 0 || cfg.ClientCache {
		name += "/cache"
	}
	if cfg.HotClients > 0 {
		name += "/hot"
	}
	if cfg.AdmissionRate > 0 {
		name += "/admission"
	}
	if cfg.QuerySkew > 0 {
		name += "/skew"
	}
	if cfg.DisableAdaptive {
		name += "/static"
	} else if cfg.QuerySkew > 0 || cfg.SummaryByteBudget > 0 {
		name += "/adaptive"
	}
	fmt.Printf("goos: %s\ngoarch: %s\n", runtime.GOOS, runtime.GOARCH)
	fmt.Printf("%s\t%d\t%d ns/op\t%d p50-ns/op\t%d p95-ns/op\t%d p99-ns/op\t%.4f coverage\t%.4f fp-rate\t%.1f node-B/s\t%.2f converge-s\t%.2f build-s",
		name, res.Queries-res.Failures,
		res.LatencyMean.Nanoseconds(), res.LatencyP50.Nanoseconds(),
		res.LatencyP95.Nanoseconds(), res.LatencyP99.Nanoseconds(),
		res.CoverageMean, res.FPDescentRate, res.BytesPerNodePerSec,
		res.ConvergeSeconds, res.BuildSeconds)
	if cfg.Churn.PartitionEvery > 0 {
		fmt.Printf("\t%d partitions-healed\t%.2f split-brain-s\t%.2f heal-s\t%d final-roots\t%d epoch-regressions",
			res.PartitionsHealed, res.SplitBrainSeconds, res.HealSeconds, res.FinalRoots, res.EpochRegressions)
	}
	if cfg.Churn.WriteEvery > 0 {
		fmt.Printf("\t%.4f refresh-skip-rate\t%.2f refresh-busy-s\t%d shard-rebuilds\t%d partial-merges",
			res.RefreshSkipRate, res.RefreshBusySeconds, res.OwnerShardRebuilds, res.OwnerPartialMerges)
	}
	if cfg.RepeatFraction > 0 || cfg.ClientCache || cfg.AdmissionRate > 0 || cfg.HotClients > 0 {
		fmt.Printf("\t%d client-cache-hits\t%d admission-shed\t%d hot-queries\t%d hot-coarse\t%d hot-failures",
			res.ClientCacheHits, res.AdmissionShed,
			res.HotQueries, res.HotCoarse, res.HotFailures)
	}
	if cfg.QuerySkew > 0 || !cfg.DisableAdaptive {
		// Deep false positives (chain length >= 2) are the expensive ones;
		// surface them plus the adaptation counters so bench-compare can
		// diff adaptive against static archives.
		deep := 0
		for d, n := range res.FPDescentsByDepth {
			if d >= 2 {
				deep += n
			}
		}
		fmt.Printf("\t%d fp-descents\t%d fp-deep\t%d replans\t%d plan-deviation",
			res.FPDescents, deep, res.SummaryReplans, res.PlanDeviationSum)
	}
	fmt.Println()
}
