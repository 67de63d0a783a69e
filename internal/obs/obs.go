// Package obs is the observability layer of the live ROADS stack: a
// lock-free metrics registry in the style of the query hot path (atomic
// counters and gauges, fixed-bucket latency histograms, copy-on-read
// snapshots) plus an HTTP sidecar serving the Prometheus text exposition
// format, a JSON status view, and net/http/pprof.
//
// The registry is deliberately label-free: every series is one name, one
// help string, one value, which keeps registration O(1) pointers on the
// hot path and makes the exposition trivially diffable in golden tests.
// Per-server distinction comes from scrape-target identity (one roadsd
// process = one registry = one scrape endpoint), exactly how Prometheus
// expects single-tenant daemons to behave.
//
// Updating a metric never allocates, never takes a lock, and never
// contends with a scrape: Counter and Gauge are single atomics, Histogram
// is one atomic add into a fixed bucket array. Scrapes read the atomics
// through the registry under its registration mutex, which only
// registration itself (a startup-time event) also takes.
//
// The canonical metric names every ROADS component registers are listed
// in OPERATIONS.md; `make docs-check` fails the build when a registered
// name is missing from that catalog.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// NumLatencyBuckets is the bucket count of the canonical latency
// histogram: one bucket per bound in DefaultLatencyBounds plus an
// unbounded overflow bucket.
const NumLatencyBuckets = 16

// defaultLatencyBounds is the canonical latency bucket ladder shared by
// every ROADS histogram that measures a duration (the transport's
// call-latency histogram and the server's query-evaluation histogram).
// The scheme is a 1–2.5–5 decade ladder from 100µs to 5s: within each
// decade the bounds step ×2.5, ×2, ×2 (100, 250, 500), giving roughly
// half-decade resolution over the whole range a federated call can span —
// from loopback RPCs (sub-millisecond) to WAN calls pushing the 10s
// wire.Deadline. Observations above 5s land in the overflow bucket.
var defaultLatencyBounds = [NumLatencyBuckets - 1]time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second,
}

// DefaultLatencyBounds returns the canonical latency bucket upper bounds
// (the overflow bucket, not listed, is unbounded). The returned slice is
// a copy.
func DefaultLatencyBounds() []time.Duration {
	out := make([]time.Duration, len(defaultLatencyBounds))
	copy(out, defaultLatencyBounds[:])
	return out
}

// LatencyBucket returns the index of the canonical latency bucket a
// duration falls into (the last index is the overflow bucket).
func LatencyBucket(d time.Duration) int {
	for i, b := range defaultLatencyBounds {
		if d <= b {
			return i
		}
	}
	return NumLatencyBuckets - 1
}

// --- Primitives ---

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value. The zero value is ready to
// use; all methods are safe for concurrent use and lock-free.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket duration histogram: cumulative-on-read
// bucket counts plus a running sum, all atomics. Observing is one bucket
// scan (at most NumLatencyBuckets compares) and two atomic adds — cheap
// enough for the query hot path.
type Histogram struct {
	bounds   []time.Duration
	counts   []atomic.Uint64 // len(bounds)+1; last = overflow
	sumNanos atomic.Int64
}

// NewHistogram creates a histogram over the given ascending bucket upper
// bounds (use DefaultLatencyBounds for the canonical ladder). An
// unbounded overflow bucket is appended implicitly.
func NewHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	h := &Histogram{
		bounds: append([]time.Duration(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := len(h.bounds) // overflow
	for j, b := range h.bounds {
		if d <= b {
			i = j
			break
		}
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
}

// Snapshot returns a point-in-time copy of the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: append([]time.Duration(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.SumSeconds = float64(h.sumNanos.Load()) / float64(time.Second)
	return s
}

// HistSnapshot is a point-in-time view of a histogram: per-bucket
// (non-cumulative) counts, one per bound plus the trailing overflow
// bucket, and the running sum of observations in seconds.
type HistSnapshot struct {
	Bounds     []time.Duration
	Counts     []uint64
	SumSeconds float64
}

// Total returns the number of observations.
func (s HistSnapshot) Total() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// --- Registry ---

// Kind is a metric's Prometheus type.
type Kind string

// The metric kinds the registry understands.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// sample is one gathered value at scrape time.
type sample struct {
	value   float64       // counter/gauge
	count   uint64        // counter (exact integer form)
	seconds bool          // counter: value is accumulated seconds, count unused
	hist    *HistSnapshot // histogram
}

type metricEntry struct {
	name, help string
	kind       Kind
	gather     func() sample
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration (the *Func and constructor methods)
// takes a mutex and normally happens once at process startup; metric
// updates never touch the registry at all, so the hot paths stay
// contention-free. Collector functions passed to CounterFunc, GaugeFunc
// and HistogramFunc must be safe for concurrent calls.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metricEntry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metricEntry)}
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// register adds an entry, panicking on invalid or duplicate names —
// both are wiring bugs that should fail loudly at startup, not at the
// first scrape.
func (r *Registry) register(name, help string, kind Kind, gather func() sample) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.metrics[name] = &metricEntry{name: name, help: help, kind: kind, gather: gather}
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, KindCounter, func() sample {
		v := c.Load()
		return sample{value: float64(v), count: v}
	})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for counters that already live elsewhere as atomics (e.g. the
// transport's).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, KindCounter, func() sample {
		v := fn()
		return sample{value: float64(v), count: v}
	})
}

// SecondsCounterFunc registers a counter of accumulated time read from fn at
// scrape time and rendered in seconds — for busy-time totals that already
// live elsewhere as atomics.
func (r *Registry) SecondsCounterFunc(name, help string, fn func() time.Duration) {
	r.register(name, help, KindCounter, func() sample {
		return sample{value: fn().Seconds(), seconds: true}
	})
}

// Gauge registers and returns a new settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, KindGauge, func() sample { return sample{value: g.Load()} })
	return g
}

// GaugeFunc registers a gauge computed by fn at scrape time — the usual
// form for values derived from a state snapshot (children, replicas,
// summary age).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, KindGauge, func() sample { return sample{value: fn()} })
}

// Histogram registers and returns a new histogram over the given bucket
// bounds.
func (r *Registry) Histogram(name, help string, bounds []time.Duration) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, help, KindHistogram, func() sample {
		s := h.Snapshot()
		return sample{hist: &s}
	})
	return h
}

// HistogramFunc registers a histogram whose snapshot is read from fn at
// scrape time — for histograms that already live elsewhere (e.g. the
// transport's call-latency buckets).
func (r *Registry) HistogramFunc(name, help string, fn func() HistSnapshot) {
	r.register(name, help, KindHistogram, func() sample {
		s := fn()
		return sample{hist: &s}
	})
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// sortedEntries returns the entries ordered by name, under the lock.
func (r *Registry) sortedEntries() []*metricEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metricEntry, 0, len(r.metrics))
	for _, e := range r.metrics {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by name. Histogram buckets are rendered
// cumulatively with `le` bounds in seconds, plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, e := range r.sortedEntries() {
		s := e.gather()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, e.kind); err != nil {
			return err
		}
		var err error
		switch e.kind {
		case KindHistogram:
			err = writeHist(w, e.name, s.hist)
		case KindCounter:
			v := strconv.FormatUint(s.count, 10)
			if s.seconds {
				v = formatFloat(s.value)
			}
			_, err = fmt.Fprintf(w, "%s %s\n", e.name, v)
		default:
			_, err = fmt.Fprintf(w, "%s %s\n", e.name, formatFloat(s.value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHist(w io.Writer, name string, h *HistSnapshot) error {
	var cum uint64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b.Seconds()), cum); err != nil {
			return err
		}
	}
	if len(h.Counts) > len(h.Bounds) {
		cum += h.Counts[len(h.Bounds)]
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, cum, name, formatFloat(h.SumSeconds), name, cum)
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot returns every metric's current value keyed by name, for the
// JSON /statusz view: counters and gauges as numbers, histograms as
// {bounds_seconds, counts, sum_seconds, count} objects.
func (r *Registry) Snapshot() map[string]any {
	entries := r.sortedEntries()
	out := make(map[string]any, len(entries))
	for _, e := range entries {
		s := e.gather()
		switch e.kind {
		case KindHistogram:
			bounds := make([]float64, len(s.hist.Bounds))
			for i, b := range s.hist.Bounds {
				bounds[i] = b.Seconds()
			}
			out[e.name] = map[string]any{
				"bounds_seconds": bounds,
				"counts":         s.hist.Counts,
				"sum_seconds":    s.hist.SumSeconds,
				"count":          s.hist.Total(),
			}
		case KindCounter:
			if s.seconds {
				out[e.name] = s.value
			} else {
				out[e.name] = s.count
			}
		default:
			out[e.name] = s.value
		}
	}
	return out
}
