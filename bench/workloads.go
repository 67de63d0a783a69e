package main

import (
	"fmt"
	"time"

	"roads/internal/live"
)

// workloadSpec is one traffic mix over one federation. Every workload is a
// closed loop of nproc live.Client goroutines (README: why not open loop).
type workloadSpec struct {
	Name string
	// Why is the one line BENCHMARK.json carries: which layers the
	// workload stresses and which it bypasses.
	Why string

	Servers int
	Tick    time.Duration
	TCP     bool

	// Pool is how many distinct queries are generated; it is sized so the
	// measured window cannot consume it (a wrap-around would turn fresh
	// queries into server-cache hits, and is reported in the header).
	Pool int
	// HotSet and RepeatShare: with probability RepeatShare a client
	// re-issues one of the first HotSet queries of the pool instead of
	// taking the next unused one.
	HotSet      int
	RepeatShare float64
	// Sticky pins each client to one entry server (so its fingerprint
	// cache can hit); otherwise every resolve enters at a random server.
	Sticky      bool
	ClientCache bool
	// Writer runs the write mix beside the clients: volatile-record
	// upserts and one marker write in flight at a time.
	Writer bool
}

// Federation constants shared by every workload (ISSUE 12): every server
// is an owner, the paper's default query shape.
const (
	fanOut          = 4
	recordsPerOwner = 50
	attrsPerDist    = 2 // 4 families × 2 = 8 numeric attributes
	summaryBuckets  = 64
	queryDims       = 3
	queryRange      = 0.25

	// volatileEvery: record k of an owner is volatile (the writer may
	// rewrite it) when k%volatileEvery == 0 — a fixed tenth.
	volatileEvery = 10
	upsertsPerSec = 20
)

var workloads = []workloadSpec{
	{
		Name:    "fresh-broad-tcp",
		Why:     "64 servers on TCP loopback, every query distinct and broad (~55 contacts): transport, wire and client fan-out do the work, caches none",
		Servers: 64, Tick: 100 * time.Millisecond, TCP: true,
		Pool: 24576,
	},
	{
		Name:    "repeat-tcp",
		Why:     "same federation, 98% of queries from an 8-query hot set, sticky entry, client cache on: fingerprint and result caches do the work, search and descent little",
		Servers: 64, Tick: 100 * time.Millisecond, TCP: true,
		Pool: 24576, HotSet: 8, RepeatShare: 0.98, Sticky: true, ClientCache: true,
	},
	{
		Name:    "write-mix-tcp",
		Why:     "same federation, 50% repeats beside 20 upserts/s and marker add/remove writes: invalidation, re-export and delta pushes run beside reads",
		Servers: 64, Tick: 100 * time.Millisecond, TCP: true,
		Pool: 24576, HotSet: 32, RepeatShare: 0.5, Writer: true,
	},
	{
		Name:    "wide-chan",
		Why:     "256 servers in process (no syscalls), fresh broad queries (~220 contacts): handlers, summary matching and client merge dominate, memory grows with size",
		Servers: 256, Tick: 250 * time.Millisecond, TCP: false,
		Pool: 8192,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// phases are the lengths of a run's windows. The issue sized them at a 3 s
// warm-up, a 30 s window and a 5 s idle window; the driver's time cap
// (92 runs in 57 minutes, set-up included) shortens all of them together.
type phases struct {
	Setups    int // federations built for setup_s; the last one is driven
	Warmup    time.Duration
	Measure   time.Duration
	Maint     time.Duration // query-free window for maint_kb_per_node_s
	Propagate time.Duration // write-only marker phase (workloads without a writer)
}

// phasesFor scales the windows from the measured seconds. The idle window
// is rounded up to whole anti-entropy periods (every server sends full
// state once per live.DefaultAntiEntropyEvery ticks, nearly in phase, so a
// window that cuts a period sees a different byte count run to run).
func phasesFor(w workloadSpec, seconds float64) phases {
	measure := time.Duration(seconds * float64(time.Second))
	period := live.DefaultAntiEntropyEvery * w.Tick
	maint := period
	for maint < 3*measure/10 {
		maint += period
	}
	return phases{
		Setups:    3,
		Warmup:    measure / 5,
		Measure:   measure,
		Maint:     maint,
		Propagate: measure / 2,
	}
}

// smoke shrinks a workload to 8 servers and a small pool, for the test
// that runs every workload end to end in about a second each.
func smoke(w workloadSpec) workloadSpec {
	w.Servers = 8
	w.Tick = 25 * time.Millisecond
	w.Pool = 4096
	return w
}

func smokePhases() phases {
	return phases{
		Setups:    1,
		Warmup:    100 * time.Millisecond,
		Measure:   time.Second,
		Maint:     400 * time.Millisecond,
		Propagate: 300 * time.Millisecond,
	}
}
