package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"roads/internal/central"
	"roads/internal/netsim"
	"roads/internal/stats"
	"roads/internal/workload"
)

// SelectivityResult is the Fig. 11 output: total response time (mean and
// 90th percentile) for ROADS and the centralized repository as a function
// of query selectivity.
type SelectivityResult struct {
	Series *Series
	// MeasuredSelectivity records the actual selectivity each group
	// achieved after calibration, for honesty in reporting.
	MeasuredSelectivity []float64
}

// SweepSelectivity reproduces the prototype benchmark (Fig. 11): queries
// grouped by selectivity (0.01%..3%), total response time including the
// modelled backend retrieval cost. ROADS retrieves from matching servers in
// parallel; the central repository retrieves everything sequentially at one
// server — which is exactly why ROADS catches up as selectivity grows.
//
// A ROADS query's response time is its model latency plus the slowest
// server that returned records: that server's cost-model charge for
// answering from its owner, its trip back to the client and the transfer
// time of the record bytes it returned.
func SweepSelectivity(opt Options, targets []float64, perGroup int) (*SelectivityResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if targets == nil {
		targets = workload.PaperSelectivityTargets
	}
	if perGroup <= 0 {
		perGroup = 200 // paper: 200 queries per group
	}

	s := newSeries("Fig. 11", "selectivity (%)", "total response time (ms)",
		"ROADS", "ROADS p90", "Central", "Central p90")
	measured := make([]float64, len(targets))

	for gi, target := range targets {
		var roadsTimes, centralTimes []time.Duration
		var selSum float64
		var selCount int
		for run := 0; run < opt.Runs; run++ {
			seed := opt.Seed + int64(run)
			rng := rand.New(rand.NewSource(seed))
			wcfg := workload.Config{Nodes: opt.Nodes, RecordsPerNode: opt.RecordsPerNode, AttrsPerDist: 4}
			w, err := workload.Generate(wcfg, rng)
			if err != nil {
				return nil, err
			}
			space, err := newSpace(opt.Nodes, opt.MeanLatency, rng)
			if err != nil {
				return nil, err
			}
			groups, err := w.GenSelectivityGroups([]float64{target}, perGroup/opt.Runs+1, opt.Dims, 20000, rng)
			if err != nil {
				return nil, err
			}
			queries := groups[0].Queries

			f, err := buildROADS(w, space, opt.point(seed))
			if err != nil {
				return nil, err
			}
			repo := central.New(w.Schema, opt.Cost, netsim.New(space), 0)
			repo.ExportAll(w.PerNode)

			all := w.AllRecords()
			for qi, q := range queries {
				start := rng.Intn(opt.Nodes)
				rq := q.Clone()
				rq.ID = fmt.Sprintf("g%d-r%d-q%d", gi, run, qi)
				f.m.takeReturned()
				r, err := f.resolve(rq, f.addrs[start], start)
				if err != nil {
					f.stop()
					return nil, err
				}
				roadsTimes = append(roadsTimes, f.responseTime(r, start, w, opt))

				cres, err := repo.Resolve(q.Clone(), start)
				if err != nil {
					f.stop()
					return nil, err
				}
				centralTimes = append(centralTimes, cres.ResponseTime)

				selSum += float64(len(cres.Records)) / float64(len(all))
				selCount++
			}
			f.stop()
		}
		measured[gi] = selSum / float64(selCount)
		s.add(target*100, map[string]float64{
			"ROADS":       float64(stats.MeanDuration(roadsTimes).Milliseconds()),
			"ROADS p90":   float64(stats.PercentileDuration(roadsTimes, 0.9).Milliseconds()),
			"Central":     float64(stats.MeanDuration(centralTimes).Milliseconds()),
			"Central p90": float64(stats.PercentileDuration(centralTimes, 0.9).Milliseconds()),
		})
	}
	return &SelectivityResult{Series: s, MeasuredSelectivity: measured}, nil
}

// responseTime is the Fig. 11 total response time of resolution r with the
// client at host client.
func (f *federation) responseTime(r resolution, client int, w *workload.Workload, opt Options) time.Duration {
	returned := f.m.takeReturned()
	total := r.latency
	for _, h := range r.hops {
		if h.Records == 0 {
			continue
		}
		i := f.host[h.Addr]
		charge := opt.Cost.PerQuery +
			time.Duration(len(w.PerNode[i]))*opt.Cost.PerScan +
			time.Duration(h.Records)*opt.Cost.PerRecord
		total = max(total, r.latency+charge+f.sim.LatencyBetween(i, client)+f.sim.TransferTime(returned[h.Addr]))
	}
	return total
}
