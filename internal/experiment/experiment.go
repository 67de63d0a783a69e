// Package experiment reproduces the paper's evaluation (§V): each sweep
// regenerates the data behind one or more figures, running ROADS and the
// SWORD / centralized baselines on identical workloads, latency spaces and
// query streams. ROADS is the live protocol — real servers exchanging
// encoded messages over the in-process transport (federation.go) — and its
// latency is a model applied to the redirect tree each traced resolve
// followed; SWORD and the central repository run on netsim. Figures sharing
// a sweep are computed in one pass:
//
//	SweepNodes       -> Figs. 3, 4, 5  (latency / update / query overhead vs n)
//	SweepDims        -> Figs. 6, 7     (latency / query overhead vs query dims)
//	SweepRecords     -> Fig. 8         (update overhead vs records per node)
//	SweepOverlap     -> Fig. 9         (latency vs data overlap factor)
//	SweepDegree      -> Fig. 10        (latency vs node degree)
//	SweepSelectivity -> Fig. 11        (response time vs query selectivity)
package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"roads/internal/coords"
	"roads/internal/netsim"
	"roads/internal/store"
	"roads/internal/sword"
	"roads/internal/workload"
)

// Options control the scale of an experiment.
type Options struct {
	// Runs is how many independently seeded repetitions are averaged
	// (paper: 10).
	Runs int
	// Queries per run (paper: 500).
	Queries int
	// Seed is the base RNG seed; run i uses Seed+i.
	Seed int64
	// Nodes / RecordsPerNode / Dims / Degree / Buckets are the defaults a
	// sweep holds fixed while it varies its own axis.
	Nodes          int
	RecordsPerNode int
	Dims           int
	Degree         int
	Buckets        int
	// QueryRange is the per-dimension range length (paper: 0.25).
	QueryRange float64
	// WindowLen overrides the workload's Window-distribution length (0 =
	// the paper's 0.5). Shorter windows make per-node data more distinct,
	// strengthening summary pruning — see EXPERIMENTS.md on Fig. 6.
	WindowLen float64
	// MeanLatency calibrates the synthesized delay space.
	MeanLatency time.Duration
	// TrSeconds / TsSeconds are the record and summary refresh periods for
	// per-second overhead normalization (paper: t_r/t_s = 0.1).
	TrSeconds, TsSeconds float64
	// Cost models store backends (Fig. 11 only).
	Cost store.CostModel
}

// Default returns the paper's full-scale evaluation settings.
func Default() Options {
	return Options{
		Runs:           10,
		Queries:        500,
		Seed:           1,
		Nodes:          320,
		RecordsPerNode: 500,
		Dims:           6,
		Degree:         8,
		Buckets:        1000,
		QueryRange:     workload.DefaultQueryRange,
		MeanLatency:    80 * time.Millisecond,
		TrSeconds:      60,
		TsSeconds:      600,
		Cost: store.CostModel{
			PerQuery:  2 * time.Millisecond,
			PerScan:   2 * time.Microsecond,
			PerRecord: 500 * time.Microsecond,
		},
	}
}

// Quick returns a reduced-scale profile for tests and smoke benchmarks;
// the shapes survive, the absolute numbers are noisier.
func Quick() Options {
	o := Default()
	o.Runs = 2
	o.Queries = 60
	o.Nodes = 96
	o.RecordsPerNode = 100
	o.Buckets = 300
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Runs <= 0 || o.Queries <= 0 || o.Nodes <= 1 || o.RecordsPerNode <= 0 {
		return fmt.Errorf("experiment: Runs/Queries/Nodes/RecordsPerNode must be positive: %+v", o)
	}
	if o.Dims <= 0 || o.Degree <= 1 || o.Buckets <= 0 {
		return fmt.Errorf("experiment: Dims/Degree/Buckets must be positive")
	}
	if o.QueryRange <= 0 || o.QueryRange > 1 {
		return fmt.Errorf("experiment: QueryRange out of (0,1]")
	}
	if o.TrSeconds <= 0 || o.TsSeconds <= 0 {
		return fmt.Errorf("experiment: refresh periods must be positive")
	}
	return nil
}

// Series is one experiment's output: an x-axis and named y-columns, plus
// labels matching the paper's figure axes.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      map[string][]float64
	// Order fixes the column order for printing.
	Order []string
}

func newSeries(name, xlabel, ylabel string, cols ...string) *Series {
	s := &Series{Name: name, XLabel: xlabel, YLabel: ylabel, Y: map[string][]float64{}, Order: cols}
	for _, c := range cols {
		s.Y[c] = nil
	}
	return s
}

func (s *Series) add(x float64, vals map[string]float64) {
	s.X = append(s.X, x)
	for _, c := range s.Order {
		s.Y[c] = append(s.Y[c], vals[c])
	}
}

// Format renders the series as an aligned text table.
func (s *Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (%s vs %s)\n", s.Name, s.YLabel, s.XLabel)
	fmt.Fprintf(&b, "%12s", s.XLabel)
	for _, c := range s.Order {
		fmt.Fprintf(&b, " %16s", c)
	}
	b.WriteString("\n")
	for i, x := range s.X {
		fmt.Fprintf(&b, "%12g", x)
		for _, c := range s.Order {
			fmt.Fprintf(&b, " %16.4g", s.Y[c][i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// pointConfig is the full parameter set of one data point.
type pointConfig struct {
	nodes, records, dims, degree, buckets int
	queryRange                            float64
	overlap                               float64
	windowLen                             float64
	queries                               int
	seed                                  int64
	meanLatency                           time.Duration
	trSeconds, tsSeconds                  float64
	cost                                  store.CostModel
	runSWORD                              bool
	// idle measures the at-rest maintenance traffic; rootStart also
	// resolves every query entering at the root (the overlay ablation).
	idle, rootStart bool
}

func (o Options) point(seed int64) pointConfig {
	return pointConfig{
		nodes:       o.Nodes,
		records:     o.RecordsPerNode,
		dims:        o.Dims,
		degree:      o.Degree,
		buckets:     o.Buckets,
		queryRange:  o.QueryRange,
		windowLen:   o.WindowLen,
		queries:     o.Queries,
		seed:        seed,
		meanLatency: o.MeanLatency,
		trSeconds:   o.TrSeconds,
		tsSeconds:   o.TsSeconds,
		cost:        o.Cost,
		runSWORD:    true,
	}
}

// pointResult aggregates one data point over all its queries.
type pointResult struct {
	roadsLatencyMs   float64
	swordLatencyMs   float64
	roadsQueryBytes  float64
	swordQueryBytes  float64
	roadsUpdateBps   float64 // bytes per second
	roadsIdleBps     float64
	swordUpdateBps   float64
	roadsContacted   float64
	roadsDepth       float64
	swordSegmentSize float64
	// roadsRootHit is the fraction of queries that contacted the root —
	// the root-bottleneck measure the overlay is meant to eliminate. The
	// rootStart* fields are the same query stream entering at the root.
	roadsRootHit       float64
	rootStartLatencyMs float64
	rootStartRootHit   float64
}

// add accumulates o into r, field by field.
func (r *pointResult) add(o pointResult) {
	r.roadsLatencyMs += o.roadsLatencyMs
	r.swordLatencyMs += o.swordLatencyMs
	r.roadsQueryBytes += o.roadsQueryBytes
	r.swordQueryBytes += o.swordQueryBytes
	r.roadsUpdateBps += o.roadsUpdateBps
	r.roadsIdleBps += o.roadsIdleBps
	r.swordUpdateBps += o.swordUpdateBps
	r.roadsContacted += o.roadsContacted
	r.roadsDepth += o.roadsDepth
	r.swordSegmentSize += o.swordSegmentSize
	r.roadsRootHit += o.roadsRootHit
	r.rootStartLatencyMs += o.rootStartLatencyMs
	r.rootStartRootHit += o.rootStartRootHit
}

// scale multiplies every field of r by f.
func (r *pointResult) scale(f float64) {
	r.roadsLatencyMs *= f
	r.swordLatencyMs *= f
	r.roadsQueryBytes *= f
	r.swordQueryBytes *= f
	r.roadsUpdateBps *= f
	r.roadsIdleBps *= f
	r.swordUpdateBps *= f
	r.roadsContacted *= f
	r.roadsDepth *= f
	r.swordSegmentSize *= f
	r.roadsRootHit *= f
	r.rootStartLatencyMs *= f
	r.rootStartRootHit *= f
}

// ms renders a duration in fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newSpace synthesizes the point's wide-area delay space: host i is server
// i (ROADS) and node i (SWORD).
func newSpace(nodes int, meanLatency time.Duration, rng *rand.Rand) (*coords.Space, error) {
	return coords.NewSpace(nodes, coords.Config{
		MeanLatency: meanLatency,
		MinLatency:  time.Millisecond,
		Clusters:    8,
	}, rng)
}

// runPoint runs one data point: identical workload, delay space, query
// stream and start nodes for both systems.
func runPoint(cfg pointConfig) (pointResult, error) {
	var res pointResult
	rng := rand.New(rand.NewSource(cfg.seed))
	wcfg := workload.Config{
		Nodes:          cfg.nodes,
		RecordsPerNode: cfg.records,
		AttrsPerDist:   4,
		OverlapFactor:  cfg.overlap,
		WindowLen:      cfg.windowLen,
	}
	w, err := workload.Generate(wcfg, rng)
	if err != nil {
		return res, err
	}
	space, err := newSpace(cfg.nodes, cfg.meanLatency, rng)
	if err != nil {
		return res, err
	}
	queries, err := w.GenQueries(cfg.queries, cfg.dims, cfg.queryRange, rng)
	if err != nil {
		return res, err
	}
	starts := make([]int, len(queries))
	for i := range starts {
		starts[i] = rng.Intn(cfg.nodes)
	}

	f, err := buildROADS(w, space, cfg)
	if err != nil {
		return res, err
	}
	defer f.stop()
	res.roadsUpdateBps = float64(f.updateBytes) / cfg.tsSeconds
	res.roadsIdleBps = f.idleBytes / cfg.tsSeconds
	res.roadsDepth = float64(f.depth)
	for qi, q := range queries {
		r, err := f.resolve(q, f.addrs[starts[qi]], starts[qi])
		if err != nil {
			return res, err
		}
		res.roadsLatencyMs += ms(r.latency)
		res.roadsQueryBytes += float64(r.bytes)
		res.roadsContacted += float64(r.contacted)
		if r.root {
			res.roadsRootHit++
		}
		if cfg.rootStart {
			r, err := f.resolve(q, f.root, starts[qi])
			if err != nil {
				return res, err
			}
			res.rootStartLatencyMs += ms(r.latency)
			if r.root {
				res.rootStartRootHit++
			}
		}
	}
	n := float64(len(queries))
	res.roadsLatencyMs /= n
	res.roadsQueryBytes /= n
	res.roadsContacted /= n
	res.roadsRootHit /= n
	res.rootStartLatencyMs /= n
	res.rootStartRootHit /= n

	if cfg.runSWORD {
		sim := netsim.New(space)
		scfg := sword.DefaultConfig()
		scfg.Cost = cfg.cost
		ssys, err := sword.New(w.Schema, scfg, sim, cfg.nodes)
		if err != nil {
			return res, err
		}
		if err := ssys.RegisterAll(w.PerNode); err != nil {
			return res, err
		}
		res.swordUpdateBps = float64(ssys.UpdateBytesPerEpoch(w.PerNode)) / cfg.trSeconds
		var latSum, byteSum, segSum float64
		for qi, q := range queries {
			sr, err := ssys.Resolve(q.Clone(), starts[qi])
			if err != nil {
				return res, err
			}
			latSum += float64(sr.Latency.Milliseconds())
			byteSum += float64(sr.QueryBytes)
			segSum += float64(sr.SegmentSize)
		}
		res.swordLatencyMs = latSum / n
		res.swordQueryBytes = byteSum / n
		res.swordSegmentSize = segSum / n
	}
	return res, nil
}

// averagePoints runs cfg for each seed and averages the results.
func averagePoints(base pointConfig, runs int, seed int64) (pointResult, error) {
	var acc pointResult
	for r := 0; r < runs; r++ {
		cfg := base
		cfg.seed = seed + int64(r)
		pr, err := runPoint(cfg)
		if err != nil {
			return acc, err
		}
		acc.add(pr)
	}
	acc.scale(1 / float64(runs))
	return acc, nil
}
