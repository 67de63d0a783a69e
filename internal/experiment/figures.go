package experiment

// NodesSweepResult bundles the three figures produced by the system-size
// sweep.
type NodesSweepResult struct {
	Fig3Latency *Series // Fig. 3: query latency vs number of nodes
	Fig4Update  *Series // Fig. 4: update overhead vs number of nodes
	Fig5Query   *Series // Fig. 5: query overhead vs number of nodes
}

// DefaultNodeSweep is the paper's x-axis: 64..640 step 64.
func DefaultNodeSweep() []int {
	var out []int
	for n := 64; n <= 640; n += 64 {
		out = append(out, n)
	}
	return out
}

// SweepNodes varies the number of nodes (Figs. 3-5). nodesAxis may be nil
// for the paper's 64..640 sweep.
func SweepNodes(opt Options, nodesAxis []int) (*NodesSweepResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if nodesAxis == nil {
		nodesAxis = DefaultNodeSweep()
	}
	out := &NodesSweepResult{
		Fig3Latency: newSeries("Fig. 3", "nodes", "query latency (ms)", "ROADS", "SWORD"),
		Fig4Update:  newSeries("Fig. 4", "nodes", "update overhead (bytes/s)", "ROADS", "ROADS idle", "SWORD"),
		Fig5Query:   newSeries("Fig. 5", "nodes", "query overhead (bytes)", "ROADS", "SWORD"),
	}
	for _, n := range nodesAxis {
		cfg := opt.point(opt.Seed)
		cfg.nodes = n
		cfg.idle = true
		pr, err := averagePoints(cfg, opt.Runs, opt.Seed)
		if err != nil {
			return nil, err
		}
		out.Fig3Latency.add(float64(n), map[string]float64{"ROADS": pr.roadsLatencyMs, "SWORD": pr.swordLatencyMs})
		out.Fig4Update.add(float64(n), map[string]float64{"ROADS": pr.roadsUpdateBps, "ROADS idle": pr.roadsIdleBps, "SWORD": pr.swordUpdateBps})
		out.Fig5Query.add(float64(n), map[string]float64{"ROADS": pr.roadsQueryBytes, "SWORD": pr.swordQueryBytes})
	}
	return out, nil
}

// DimsSweepResult bundles the query-dimensionality figures.
type DimsSweepResult struct {
	Fig6Latency *Series // Fig. 6: latency vs query dimensions
	Fig7Query   *Series // Fig. 7: query overhead vs query dimensions
}

// SweepDims varies the query dimensionality 2..8 (Figs. 6-7).
func SweepDims(opt Options, dimsAxis []int) (*DimsSweepResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if dimsAxis == nil {
		dimsAxis = []int{2, 3, 4, 5, 6, 7, 8}
	}
	out := &DimsSweepResult{
		Fig6Latency: newSeries("Fig. 6", "query dims", "query latency (ms)", "ROADS", "SWORD"),
		Fig7Query:   newSeries("Fig. 7", "query dims", "query overhead (bytes)", "ROADS", "SWORD"),
	}
	for _, d := range dimsAxis {
		cfg := opt.point(opt.Seed)
		cfg.dims = d
		pr, err := averagePoints(cfg, opt.Runs, opt.Seed)
		if err != nil {
			return nil, err
		}
		out.Fig6Latency.add(float64(d), map[string]float64{"ROADS": pr.roadsLatencyMs, "SWORD": pr.swordLatencyMs})
		out.Fig7Query.add(float64(d), map[string]float64{"ROADS": pr.roadsQueryBytes, "SWORD": pr.swordQueryBytes})
	}
	return out, nil
}

// SweepRecords varies the per-node record count (Fig. 8: update overhead).
// Queries are skipped: as the paper notes, latency and query overhead do
// not change with the record count, only the update traffic does.
func SweepRecords(opt Options, recordsAxis []int) (*Series, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if recordsAxis == nil {
		recordsAxis = []int{50, 100, 150, 200, 250, 300, 350, 400, 450, 500}
	}
	s := newSeries("Fig. 8", "records per node", "update overhead (bytes/s)", "ROADS", "ROADS idle", "SWORD")
	for _, k := range recordsAxis {
		cfg := opt.point(opt.Seed)
		cfg.records = k
		cfg.queries = 1 // updates only; one token query keeps validation happy
		cfg.idle = true
		pr, err := averagePoints(cfg, opt.Runs, opt.Seed)
		if err != nil {
			return nil, err
		}
		s.add(float64(k), map[string]float64{"ROADS": pr.roadsUpdateBps, "ROADS idle": pr.roadsIdleBps, "SWORD": pr.swordUpdateBps})
	}
	return s, nil
}

// SweepOverlap varies the data overlap factor Of (Fig. 9, ROADS only): each
// node's first-8-attribute data falls in a window of length Of/nodes.
func SweepOverlap(opt Options, overlapAxis []float64) (*Series, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if overlapAxis == nil {
		overlapAxis = []float64{1, 2, 4, 6, 8, 10, 12}
	}
	s := newSeries("Fig. 9", "data overlap factor", "query latency (ms)", "ROADS", "contacted")
	for _, of := range overlapAxis {
		cfg := opt.point(opt.Seed)
		cfg.overlap = of
		cfg.runSWORD = false
		pr, err := averagePoints(cfg, opt.Runs, opt.Seed)
		if err != nil {
			return nil, err
		}
		s.add(of, map[string]float64{"ROADS": pr.roadsLatencyMs, "contacted": pr.roadsContacted})
	}
	return s, nil
}

// SweepDegree varies the hierarchy node degree (Fig. 10, ROADS only).
func SweepDegree(opt Options, degreeAxis []int) (*Series, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if degreeAxis == nil {
		degreeAxis = []int{4, 5, 6, 7, 8, 9, 10, 11, 12}
	}
	s := newSeries("Fig. 10", "node degree", "query latency (ms)", "ROADS", "depth", "query bytes")
	for _, k := range degreeAxis {
		cfg := opt.point(opt.Seed)
		cfg.degree = k
		cfg.runSWORD = false
		pr, err := averagePoints(cfg, opt.Runs, opt.Seed)
		if err != nil {
			return nil, err
		}
		s.add(float64(k), map[string]float64{"ROADS": pr.roadsLatencyMs, "depth": pr.roadsDepth, "query bytes": pr.roadsQueryBytes})
	}
	return s, nil
}

// AblationResult compares design variants (DESIGN.md §5).
type AblationResult struct {
	// OverlayLatency compares query latency with the replication overlay
	// (enter at any server) and without it (enter at the root, which holds
	// no replicas: the basic hierarchy).
	OverlayLatency *Series
	// RootLoad compares the fraction of queries that traverse the root.
	RootLoad *Series
}

// SweepOverlayAblation measures what the replication overlay buys: latency
// and root load of the same federation and query stream entered at a random
// server and at the root, across system sizes.
func SweepOverlayAblation(opt Options, nodesAxis []int) (*AblationResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if nodesAxis == nil {
		nodesAxis = []int{64, 192, 320, 448, 640}
	}
	out := &AblationResult{
		OverlayLatency: newSeries("Ablation: overlay", "nodes", "query latency (ms)", "overlay", "root-start"),
		RootLoad:       newSeries("Ablation: root load", "nodes", "root-hit fraction", "overlay", "root-start"),
	}
	for _, n := range nodesAxis {
		cfg := opt.point(opt.Seed)
		cfg.nodes = n
		cfg.runSWORD = false
		cfg.rootStart = true
		pr, err := averagePoints(cfg, opt.Runs, opt.Seed)
		if err != nil {
			return nil, err
		}
		out.OverlayLatency.add(float64(n), map[string]float64{"overlay": pr.roadsLatencyMs, "root-start": pr.rootStartLatencyMs})
		out.RootLoad.add(float64(n), map[string]float64{"overlay": pr.roadsRootHit, "root-start": pr.rootStartRootHit})
	}
	return out, nil
}

// SweepBucketsAblation measures the histogram-resolution tradeoff: summary
// size (update traffic) against search precision (servers contacted).
func SweepBucketsAblation(opt Options, bucketsAxis []int) (*Series, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if bucketsAxis == nil {
		bucketsAxis = []int{10, 50, 100, 500, 1000, 2000}
	}
	s := newSeries("Ablation: buckets", "histogram buckets", "mixed", "update bytes/s", "contacted", "latency ms")
	for _, m := range bucketsAxis {
		cfg := opt.point(opt.Seed)
		cfg.buckets = m
		cfg.runSWORD = false
		pr, err := averagePoints(cfg, opt.Runs, opt.Seed)
		if err != nil {
			return nil, err
		}
		s.add(float64(m), map[string]float64{
			"update bytes/s": pr.roadsUpdateBps,
			"contacted":      pr.roadsContacted,
			"latency ms":     pr.roadsLatencyMs,
		})
	}
	return s, nil
}
