package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"roads/internal/live"
	"roads/internal/transport"
	"roads/internal/wire"
)

// runConfig is one run: one workload, one seed, traced or not.
type runConfig struct {
	w        workloadSpec
	ph       phases
	seed     int64
	trace    bool
	clients  int
	traceOut string
}

// runResult is what a run measured.
type runResult struct {
	metrics   metricSet
	attempted int
	failed    int
	// notes are printed in the human-readable output: the first failures,
	// a wrapped query pool, dropped spans.
	notes []string
}

// spanCapacity is the size of the traced run's span store. The busiest
// workload records about half a million spans in its traced slices; spans
// beyond the capacity are dropped and counted in a note.
const spanCapacity = 1 << 20

// traceSlice is how long the traced run keeps the probe's gate in one
// state before flipping it.
const traceSlice = 100 * time.Millisecond

// clientStats is what one client goroutine saw inside the window.
type clientStats struct {
	latencyMs []float64
	failed    int
	contacts  int
	retries   int
	failovers int
	coarse    int
	cacheHits int
	// traced run only: resolves started with the gate on / off, the
	// latencies of the former and their root spans.
	onCount, offCount int
	tracedMs          []float64
	roots             []rootSpan
	failures          []string
}

// counters is a snapshot of every cumulative count the run differences
// over a window.
type counters struct {
	at    time.Time
	tr    transport.Stats
	cpu   time.Duration
	mem   runtime.MemStats
	cache live.CacheInfo
	// summed over servers
	refreshTicks, refreshSkipped uint64
	refreshBusy                  float64
	replans, shed, redirects     uint64
	// summed over owners
	shardRebuilds, partialMerges uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// snapshot reads the cheap counters always, and the per-server and
// per-owner ones (a pass over every server) only for the traced run.
func snapshot(f *federation, deep bool) counters {
	c := counters{at: time.Now(), tr: f.stats.Stats(), cpu: cpuTime()}
	if !deep {
		return c
	}
	runtime.ReadMemStats(&c.mem)
	for _, srv := range f.cl.Servers {
		ci := srv.CacheInfo()
		c.cache.Hits += ci.Hits
		c.cache.Misses += ci.Misses
		c.cache.Evictions += ci.Evictions
		c.cache.Invalidations += ci.Invalidations
		ri := srv.RefreshInfo()
		c.refreshTicks += ri.Ticks
		c.refreshSkipped += ri.Skipped
		c.refreshBusy += ri.BusySeconds
		c.replans += srv.AdaptiveInfo().Replans
		st := srv.StatusSnapshot()
		c.shed += st.QueriesShed
		c.redirects += st.RedirectsIssued
	}
	for _, o := range f.owners {
		ss := o.StoreStats()
		c.shardRebuilds += ss.ShardRebuilds
		c.partialMerges += ss.PartialMerges
	}
	return c
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// run executes one run end to end and returns its metrics: generate the
// inputs, set the federation up, idle window, measured window, stop, report.
func run(cfg runConfig) (*runResult, error) {
	w, ph := cfg.w, cfg.ph
	in, err := generate(w, cfg.seed)
	if err != nil {
		return nil, err
	}

	// Set-up, several times for a steady setup_s; the last federation is
	// the one driven. The traced run builds once, on the probe.
	var pr *probe
	var wrap wrapFn
	setups := ph.Setups
	if cfg.trace {
		setups = 1
		wrap = func(inner transport.Transport) transport.Transport {
			pr = newProbe(inner, spanCapacity)
			return pr
		}
	}
	var f *federation
	var setupS []float64
	for i := 0; i < setups; i++ {
		if f != nil {
			f.stop()
		}
		if f, err = build(w, in, wrap); err != nil {
			return nil, err
		}
		setupS = append(setupS, f.setup.Seconds())
	}
	defer f.stop()

	// Query-free window: the paper's update overhead.
	idle := [2]counters{snapshot(f, false)}
	time.Sleep(ph.Maint)
	idle[1] = snapshot(f, false)

	m := measure(cfg, f, in, pr)
	f.stop()

	res := &runResult{metrics: metricSet{}, notes: m.notes}
	resolves := len(m.latencyMs)
	if resolves == 0 {
		return nil, fmt.Errorf("%s: no resolve completed inside the window", w.Name)
	}
	res.attempted = resolves + m.markers
	res.failed = m.failed + m.timeouts
	if cfg.trace {
		if err := reportPerLayer(res, cfg, in, f, pr, idle, m); err != nil {
			return nil, err
		}
		if cfg.traceOut != "" {
			if err := writeSpans(cfg.traceOut, m.roots, pr.recorded()); err != nil {
				return nil, err
			}
		}
	} else {
		reportEndToEnd(res, w, setupS, idle, m)
	}
	return res, nil
}

// measured is what the measured window (and the propagation phase after
// it) produced: the clients' samples folded together, the counters at both
// ends of the window, and the writer's propagation samples.
type measured struct {
	clientStats
	c0, c1      counters
	onTime      time.Duration // traced run: time spent with the gate on
	goroutines  int
	propagateMs []float64
	markers     int
	timeouts    int
	notes       []string
}

// bytesBetween returns the transport bytes moved between two snapshots.
func bytesBetween(a, b counters) float64 {
	return float64(b.tr.BytesSent + b.tr.BytesRecv - a.tr.BytesSent - a.tr.BytesRecv)
}

// measure drives the workload's traffic through a warm-up and the measured
// window, then — on workloads without a writer — measures propagation alone.
func measure(cfg runConfig, f *federation, in *inputs, pr *probe) *measured {
	w, ph := cfg.w, cfg.ph
	t0 := time.Now().Add(ph.Warmup)
	t1 := t0.Add(ph.Measure)
	var nextFresh atomic.Int64
	nextFresh.Store(int64(w.HotSet))
	var nextRoot atomic.Uint32
	stats := make([]clientStats, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			driveClient(cfg, c, f, in, pr, t0, t1, &nextFresh, &nextRoot, &stats[c])
		}(c)
	}
	var wr *writer
	if w.Writer {
		wr = startWriter(f, in, cfg.seed, t0, t1)
	}

	m := &measured{}
	sleepUntil(t0)
	m.c0 = snapshot(f, cfg.trace)
	if cfg.trace {
		// Alternate untraced and traced slices until the window ends.
		for on := false; time.Now().Before(t1); on = !on {
			pr.on.Store(on)
			sliceStart := time.Now()
			end := sliceStart.Add(traceSlice)
			if end.After(t1) {
				end = t1
			}
			sleepUntil(end)
			if on {
				m.onTime += time.Since(sliceStart)
			}
		}
		pr.on.Store(false)
	} else {
		sleepUntil(t1)
	}
	m.c1 = snapshot(f, cfg.trace)
	m.goroutines = runtime.NumGoroutine()
	wg.Wait()
	switch {
	case wr != nil:
		wr.wg.Wait()
	case !cfg.trace:
		// No writer in the mix: measure propagation alone, after the reads.
		now := time.Now()
		wr = &writer{f: f, in: in, t0: now, t1: now.Add(ph.Propagate)}
		wr.markerLoop(rand.New(rand.NewSource(cfg.seed + 7)))
	}
	if wr != nil {
		m.propagateMs, m.markers, m.timeouts = wr.propagateMs, wr.markers, wr.timeouts
	}

	for i := range stats {
		s := &stats[i]
		m.latencyMs = append(m.latencyMs, s.latencyMs...)
		m.tracedMs = append(m.tracedMs, s.tracedMs...)
		m.roots = append(m.roots, s.roots...)
		m.failed += s.failed
		m.contacts += s.contacts
		m.retries += s.retries
		m.failovers += s.failovers
		m.coarse += s.coarse
		m.cacheHits += s.cacheHits
		m.onCount += s.onCount
		m.offCount += s.offCount
		for _, msg := range s.failures {
			if len(m.notes) < 5 {
				m.notes = append(m.notes, "failure: "+msg)
			}
		}
	}
	if used := nextFresh.Load(); used > int64(w.Pool) {
		m.notes = append(m.notes, fmt.Sprintf("query pool wrapped: %d fresh queries wanted, %d generated", used, w.Pool))
	}
	return m
}

// reportEndToEnd fills in the untraced run's metrics.
func reportEndToEnd(res *runResult, w workloadSpec, setupS []float64, idle [2]counters, m *measured) {
	put := func(name string, v float64, n int) { res.metrics.put(endToEnd, name, v, n) }
	resolves := len(m.latencyMs)
	n := float64(resolves)
	lat := sortedCopy(m.latencyMs)
	put("setup_s", median(setupS), len(setupS))
	put("query_qps", n/m.c1.at.Sub(m.c0.at).Seconds(), resolves)
	p50, _ := percentile(lat, 0.50)
	put("query_p50_ms", p50, resolves)
	p99, ok := percentile(lat, 0.99)
	if !ok {
		res.notes = append(res.notes, fmt.Sprintf("query_p99_ms rests on %d samples, fewer than %d beyond it", resolves, tailGuard))
	}
	put("query_p99_ms", p99, resolves)
	put("cpu_ms_per_query", float64(m.c1.cpu-m.c0.cpu)/1e6/n, resolves)
	put("wire_kb_per_query", bytesBetween(m.c0, m.c1)/1e3/n, resolves)
	idleSecs := idle[1].at.Sub(idle[0].at).Seconds()
	put("maint_kb_per_node_s", bytesBetween(idle[0], idle[1])/1e3/float64(w.Servers)/idleSecs, int(idle[1].tr.Calls-idle[0].tr.Calls))
	put("propagate_mean_ms", mean(m.propagateMs), len(m.propagateMs))
}

// reportPerLayer fills in the traced run's metrics: counters differenced
// over the window, the probe's spans, and — off the measured clock, on the
// stopped federation — each layer's public functions timed directly.
func reportPerLayer(res *runResult, cfg runConfig, in *inputs, f *federation, pr *probe, idle [2]counters, m *measured) error {
	put := func(name string, v float64, n int) { res.metrics.put(perLayer, name, v, n) }
	w, c0, c1 := cfg.w, m.c0, m.c1
	resolves := len(m.latencyMs)
	n := float64(resolves)
	window := c1.at.Sub(c0.at)
	spans := pr.recorded()
	if d := pr.dropped.Load(); d > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d spans dropped: span store full", d))
	}
	kinds := byKind(spans)
	kt := func(k wire.Kind) *kindTimes {
		if t := kinds[k]; t != nil {
			return t
		}
		return &kindTimes{}
	}
	putPercentiles := func(prefix string, us []float64) {
		sorted := sortedCopy(us)
		p50, _ := percentile(sorted, 0.50)
		p99, _ := percentile(sorted, 0.99)
		put(prefix+"_p50", p50, len(us))
		put(prefix+"_p99", p99, len(us))
	}
	delta := func(a, b uint64) float64 { return float64(b - a) }

	q := kt(wire.KindQuery)
	putPercentiles("transport.query_call_us", q.call)
	put("transport.query_self_us_mean", ratio(q.callSum-q.handlerSum, float64(len(q.call))), len(q.call))
	put("transport.calls_per_query", delta(c0.tr.Calls, c1.tr.Calls)/n, resolves)
	put("transport.bytes_per_query", bytesBetween(c0, c1)/n, resolves)
	dials, reuses := delta(c0.tr.Dials, c1.tr.Dials), delta(c0.tr.Reuses, c1.tr.Reuses)
	put("transport.reuse_share", ratio(reuses, dials+reuses), int(dials+reuses))
	put("transport.errors", delta(c0.tr.Errors, c1.tr.Errors), resolves)
	put("transport.retries", delta(c0.tr.Retries, c1.tr.Retries), resolves)
	idleCalls := delta(idle[0].tr.Calls, idle[1].tr.Calls)
	put("transport.maint_calls_per_node_s", idleCalls/float64(w.Servers)/idle[1].at.Sub(idle[0].at).Seconds(), int(idleCalls))

	putPercentiles("live.handle_query_us", q.handler)
	for _, h := range []struct {
		name string
		kind wire.Kind
	}{{"report", wire.KindSummaryReport}, {"batch", wire.KindReplicaBatch}, {"heartbeat", wire.KindHeartbeat}} {
		us := kt(h.kind).handler
		put("live.handle_"+h.name+"_us_mean", mean(us), len(us))
	}
	put("live.redirects_per_query", delta(c0.redirects, c1.redirects)/n, resolves)
	hits, misses := delta(c0.cache.Hits, c1.cache.Hits), delta(c0.cache.Misses, c1.cache.Misses)
	put("live.cache_hit_share", ratio(hits, hits+misses), int(hits+misses))
	put("live.cache_invalidations", delta(c0.cache.Invalidations, c1.cache.Invalidations), resolves)
	put("live.cache_evictions", delta(c0.cache.Evictions, c1.cache.Evictions), resolves)
	ticks := delta(c0.refreshTicks, c1.refreshTicks)
	put("live.refresh_busy_share", (c1.refreshBusy-c0.refreshBusy)/(float64(w.Servers)*window.Seconds()), int(ticks))
	put("live.refresh_skip_share", ratio(delta(c0.refreshSkipped, c1.refreshSkipped), ticks), int(ticks))
	put("live.queries_shed", delta(c0.shed, c1.shed), resolves)
	put("live.replans", delta(c0.replans, c1.replans), int(ticks))

	self, union := selfTimes(m.roots, spans)
	put("live.client.contacts_per_query", float64(m.contacts)/n, resolves)
	put("live.client.self_ms_p50", median(self), len(self))
	put("live.client.call_union_ms_p50", median(union), len(union))
	put("live.client.cache_hit_share", float64(m.cacheHits)/n, resolves)
	put("live.client.retries", float64(m.retries), resolves)
	put("live.client.failovers", float64(m.failovers), resolves)
	put("live.client.coarse_share", float64(m.coarse)/n, resolves)

	put("store.shard_rebuilds", delta(c0.shardRebuilds, c1.shardRebuilds), resolves)
	put("store.partial_merges", delta(c0.partialMerges, c1.partialMerges), resolves)

	put("proc.alloc_kb_per_query", delta(c0.mem.TotalAlloc, c1.mem.TotalAlloc)/1e3/n, resolves)
	put("proc.gc_pause_ms", delta(c0.mem.PauseTotalNs, c1.mem.PauseTotalNs)/1e6, int(c1.mem.NumGC-c0.mem.NumGC))
	put("proc.peak_rss_mb", peakRSSMB(), 1)
	put("proc.goroutines", float64(m.goroutines), 1)
	qpsOn := ratio(float64(m.onCount), m.onTime.Seconds())
	qpsOff := ratio(float64(m.offCount), (window - m.onTime).Seconds())
	put("proc.trace_overhead_share", ratio(qpsOff-qpsOn, qpsOff), m.onCount+m.offCount)
	put("proc.traced_resolve_ms_p50", median(m.tracedMs), len(m.tracedMs))

	return layerProbes(w, in, f, pr, put)
}

// driveClient is one closed-loop requester: it issues its next Resolve
// when the last returns, from the start of the warm-up until t1, and
// records the resolves that complete inside [t0, t1).
func driveClient(cfg runConfig, c int, f *federation, in *inputs, pr *probe,
	t0, t1 time.Time, nextFresh *atomic.Int64, nextRoot *atomic.Uint32, st *clientStats) {
	w := cfg.w
	rng := rand.New(rand.NewSource(cfg.seed + 100 + int64(c)))
	client := live.NewClient(f.tr, fmt.Sprintf("bench-client-%d", c))
	client.CacheResults = w.ClientCache
	sticky := f.addrs[rng.Intn(len(f.addrs))]
	for {
		qi := 0
		if w.HotSet > 0 && rng.Float64() < w.RepeatShare {
			qi = rng.Intn(w.HotSet)
		} else {
			qi = int(nextFresh.Add(1)-1) % w.Pool
		}
		entry := sticky
		if !w.Sticky {
			entry = f.addrs[rng.Intn(len(f.addrs))]
		}
		q := in.queries[qi]

		ctx := context.Background()
		var root uint32
		if pr != nil && pr.on.Load() {
			root = nextRoot.Add(1)
			ctx = withRoot(ctx, root)
		}
		start := time.Now()
		if !start.Before(t1) {
			return
		}
		recs, qs, err := client.ResolveContext(ctx, entry, q)
		end := time.Now()
		if end.Before(t0) || !end.Before(t1) {
			continue
		}
		ms := float64(end.Sub(start)) / 1e6
		st.latencyMs = append(st.latencyMs, ms)
		if pr != nil {
			if root != 0 {
				st.onCount++
				st.tracedMs = append(st.tracedMs, ms)
				st.roots = append(st.roots, rootSpan{ID: root, Start: int64(start.Sub(pr.epoch)), End: int64(end.Sub(pr.epoch))})
			} else {
				st.offCount++
			}
		}
		st.contacts += qs.Contacted
		st.retries += qs.Retried
		st.failovers += qs.FailedOver
		st.coarse += qs.Coarse
		if qs.CacheHit {
			st.cacheHits++
		}
		var why string
		switch {
		case err != nil:
			why = err.Error()
		case qs.Failed > 0:
			why = fmt.Sprintf("%d contacts failed: %v", qs.Failed, qs.Errors)
		case qs.Coverage < 1:
			why = fmt.Sprintf("coverage %.3f", qs.Coverage)
		case qs.Coarse > 0:
			why = fmt.Sprintf("%d coarse replies", qs.Coarse)
		case !checkAnswer(q, in.want[qi], in.volatile, recs):
			why = fmt.Sprintf("answer to query %d (%s) differs from the oracle", qi, q)
		}
		if why != "" {
			st.failed++
			if len(st.failures) < 3 {
				st.failures = append(st.failures, why)
			}
		}
	}
}

// writer is the write mix: volatile-record upserts at a fixed rate, and
// one marker write in flight at a time whose visibility everywhere is the
// propagation latency.
type writer struct {
	f      *federation
	in     *inputs
	t0, t1 time.Time
	wg     sync.WaitGroup

	propagateMs []float64
	markers     int
	timeouts    int
}

func startWriter(f *federation, in *inputs, seed int64, t0, t1 time.Time) *writer {
	wr := &writer{f: f, in: in, t0: t0, t1: t1}
	wr.wg.Add(2)
	go func() {
		defer wr.wg.Done()
		wr.upsertLoop(rand.New(rand.NewSource(seed + 5)))
	}()
	go func() {
		defer wr.wg.Done()
		wr.markerLoop(rand.New(rand.NewSource(seed + 7)))
	}()
	return wr
}

// upsertLoop rewrites one volatile record's values every 1/upsertsPerSec.
func (wr *writer) upsertLoop(rng *rand.Rand) {
	tick := time.NewTicker(time.Second / upsertsPerSec)
	defer tick.Stop()
	for now := range tick.C {
		if !now.Before(wr.t1) {
			return
		}
		i := rng.Intn(len(wr.f.owners))
		recs := wr.in.data.PerNode[i]
		k := volatileEvery * rng.Intn((len(recs)+volatileEvery-1)/volatileEvery)
		r := recs[k].Clone()
		for a := range r.Values {
			r.SetNum(a, rng.Float64())
		}
		wr.f.owners[i].UpdateRecords(r)
	}
}

// propagateTimeout is how long a marker write may take to show everywhere
// before it counts as a failed operation.
const propagateTimeout = 10 * time.Second

// markerLoop adds a marker record at one owner, waits until every server's
// CoveredRecords() counts it, removes it, waits again, and repeats until
// t1. Each wait that starts inside [t0, t1) is one propagation sample.
func (wr *writer) markerLoop(rng *rand.Rand) {
	for seq := 0; time.Now().Before(wr.t1); seq++ {
		i := rng.Intn(len(wr.f.owners))
		m := wr.in.data.PerNode[i][0].Clone()
		m.ID = fmt.Sprintf("%s%d", markerPrefix, seq)
		wr.f.owners[i].AddRecords(m)
		wr.awaitCovered(wr.in.total + 1)
		wr.f.owners[i].RemoveRecords(m.ID)
		wr.awaitCovered(wr.in.total)
	}
}

func (wr *writer) awaitCovered(want uint64) {
	start := time.Now()
	for {
		done := true
		for _, srv := range wr.f.cl.Servers {
			if srv.CoveredRecords() != want {
				done = false
				break
			}
		}
		now := time.Now()
		if done || now.Sub(start) > propagateTimeout {
			if !start.Before(wr.t0) && start.Before(wr.t1) {
				wr.markers++
				if done {
					wr.propagateMs = append(wr.propagateMs, float64(now.Sub(start))/1e6)
				} else {
					wr.timeouts++
				}
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
}
