package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints. The two tables below
// are the single source for BENCHMARK.json, the README tables, -agree and
// the smoke test's "every named metric is present" assertion.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression
	// (end-to-end metrics only; per-layer metrics are not gated).
	Bound float64
}

// endToEnd lists what a requester or an owner sees. fail_share is printed
// beside them but is not in this table: it is 0 on every accepted run, so
// it is gated absolutely (any failure fails the run) through the result's
// failed/attempted/correct fields, not relatively.
//
// The bounds are what ten 10-second runs on a shared 2-vCPU VM can hold
// (README: observed spread): every metric that is a time, or a count over
// a time, moves 9–15% between runs with the host's speed, so those carry
// the widest bound the contract allows; only the idle byte rate repeats to
// a fraction of a percent.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"wire_kb_per_query", "kB", "lower", 0.25},
	{"maint_kb_per_node_s", "kB/s", "lower", 0.05},
	{"propagate_mean_ms", "ms", "lower", 0.25},
}

// perLayer lists the traced run's metrics; the prefix is the module.
var perLayer = []metricDef{
	{"transport.query_call_us_p50", "us", "lower", 0},
	{"transport.query_call_us_p99", "us", "lower", 0},
	{"transport.query_self_us_mean", "us", "lower", 0},
	{"transport.calls_per_query", "count", "lower", 0},
	{"transport.bytes_per_query", "B", "lower", 0},
	{"transport.reuse_share", "ratio", "higher", 0},
	{"transport.errors", "count", "lower", 0},
	{"transport.retries", "count", "lower", 0},
	{"transport.echo_rtt_us", "us", "lower", 0},
	{"transport.maint_calls_per_node_s", "1/s", "lower", 0},

	{"wire.encode_query_ns", "ns", "lower", 0},
	{"wire.decode_query_ns", "ns", "lower", 0},
	{"wire.encode_reply_ns", "ns", "lower", 0},
	{"wire.decode_reply_ns", "ns", "lower", 0},
	{"wire.encode_batch_ns", "ns", "lower", 0},
	{"wire.decode_batch_ns", "ns", "lower", 0},
	{"wire.query_bytes", "B", "lower", 0},
	{"wire.reply_bytes", "B", "lower", 0},
	{"wire.batch_bytes", "B", "lower", 0},
	{"wire.decode_reply_allocs", "count", "lower", 0},

	{"live.handle_query_us_p50", "us", "lower", 0},
	{"live.handle_query_us_p99", "us", "lower", 0},
	{"live.handle_report_us_mean", "us", "lower", 0},
	{"live.handle_batch_us_mean", "us", "lower", 0},
	{"live.handle_heartbeat_us_mean", "us", "lower", 0},
	{"live.redirects_per_query", "count", "lower", 0},
	{"live.cache_hit_share", "ratio", "higher", 0},
	{"live.cache_invalidations", "count", "lower", 0},
	{"live.cache_evictions", "count", "lower", 0},
	{"live.refresh_busy_share", "ratio", "lower", 0},
	{"live.refresh_skip_share", "ratio", "higher", 0},
	{"live.queries_shed", "count", "lower", 0},
	{"live.replans", "count", "lower", 0},

	{"live.client.contacts_per_query", "count", "lower", 0},
	{"live.client.self_ms_p50", "ms", "lower", 0},
	{"live.client.call_union_ms_p50", "ms", "lower", 0},
	{"live.client.cache_hit_share", "ratio", "higher", 0},
	{"live.client.retries", "count", "lower", 0},
	{"live.client.failovers", "count", "lower", 0},
	{"live.client.coarse_share", "ratio", "lower", 0},

	{"store.search_us", "us", "lower", 0},
	{"store.update_us", "us", "lower", 0},
	{"store.export_clean_us", "us", "lower", 0},
	{"store.export_dirty_us", "us", "lower", 0},
	{"store.shard_rebuilds", "count", "lower", 0},
	{"store.partial_merges", "count", "lower", 0},

	{"summary.match_ns", "ns", "lower", 0},
	{"summary.merge_us", "us", "lower", 0},
	{"summary.from_records_us", "us", "lower", 0},
	{"summary.version_ns", "ns", "lower", 0},
	{"summary.branch_bytes", "B", "lower", 0},

	{"proc.alloc_kb_per_query", "kB", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.goroutines", "count", "lower", 0},
	{"proc.trace_overhead_share", "ratio", "lower", 0},
	{"proc.traced_resolve_ms_p50", "ms", "lower", 0},
}

// measurement is one metric's value as measured, with the number of
// samples (or events) it was computed from.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects a run's measurements by name.
type metricSet map[string]measurement

// put records a metric, looking its unit up in defs so a typo in a name
// fails loudly instead of printing a metric no table knows.
func (ms metricSet) put(defs []metricDef, name string, value float64, n int) {
	for _, d := range defs {
		if d.Name == name {
			ms[name] = measurement{Value: value, Unit: d.Unit, N: n}
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is in no table", name))
}

// tailGuard is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): a p99 over fewer than 1000 samples is an outlier
// report, not a percentile.
const tailGuard = 10

// percentile returns the nearest-rank p-quantile (p in (0,1]) of sorted,
// and whether at least tailGuard samples lie at or beyond it. With no
// samples it returns 0, so a layer that saw no events prints a finite
// number beside n=0.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank+1 >= tailGuard || p <= 0.5
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the nearest-rank median of xs (0 when empty).
func median(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 0.5)
	return v
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
