package experiment

import (
	"math/rand"

	"roads/internal/live"
	"roads/internal/workload"
)

// ChurnResult is the output of SweepChurn: query recall while crashed
// servers are still in everyone's routing state, and after the maintenance
// protocol has repaired the federation.
type ChurnResult struct {
	Series *Series
}

// SweepChurn measures ROADS' resiliency beyond the paper's evaluation
// (churn handling is listed as future work in §VII; the maintenance
// protocol of §III-A is what we quantify). For each failure fraction f:
//
//  1. crash f of the non-root servers (no Leave, so everyone's summaries,
//     replicas and redirects still name them),
//  2. measure "stale recall" before any survivor has detected a crash: the
//     fraction of *surviving* matching records queries still find — the
//     crashed servers refuse every query while the survivors' state is the
//     settled one, then they are killed — and
//  3. wait until the survivors have converged on the surviving records —
//     orphans rejoined, crashed branches pruned, their replicas aged out —
//     and measure recall again. It must be 1.0.
//
// A crashed server's contact fails at once and the client fails over to the
// alternates its redirect named (the crashed server's children), so stale
// recall loses little more than the crashed servers' own records.
func SweepChurn(opt Options, failFracs []float64) (*ChurnResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if failFracs == nil {
		failFracs = []float64{0.05, 0.1, 0.2, 0.3}
	}
	s := newSeries("Churn", "failed fraction", "recall",
		"stale recall", "post-repair recall", "surviving data")

	for _, frac := range failFracs {
		var staleSum, repairSum, survivingSum float64
		for run := 0; run < opt.Runs; run++ {
			stale, repaired, err := churnRun(opt, opt.Seed+int64(run), frac)
			if err != nil {
				return nil, err
			}
			staleSum += stale
			repairSum += repaired
			survivingSum += 1 - frac
		}
		f := float64(opt.Runs)
		s.add(frac, map[string]float64{
			"stale recall":       staleSum / f,
			"post-repair recall": repairSum / f,
			"surviving data":     survivingSum / f,
		})
	}
	return &ChurnResult{Series: s}, nil
}

// churnRun crashes frac of one seeded federation's servers and returns the
// stale and the post-repair recall.
func churnRun(opt Options, seed int64, frac float64) (stale, repaired float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	w, err := workload.Generate(workload.Config{
		Nodes:          opt.Nodes,
		RecordsPerNode: opt.RecordsPerNode,
		AttrsPerDist:   4,
		WindowLen:      opt.WindowLen,
	}, rng)
	if err != nil {
		return 0, 0, err
	}
	space, err := newSpace(opt.Nodes, opt.MeanLatency, rng)
	if err != nil {
		return 0, 0, err
	}
	f, err := buildROADS(w, space, opt.point(seed))
	if err != nil {
		return 0, 0, err
	}
	defer f.stop()

	// Crash frac of the non-root servers.
	failCount := int(frac * float64(opt.Nodes))
	failed := make(map[int]bool)
	for len(failed) < failCount {
		if i := rng.Intn(opt.Nodes); i != 0 {
			failed[i] = true
		}
	}
	queries, err := w.GenQueries(opt.Queries, opt.Dims, opt.QueryRange, rng)
	if err != nil {
		return 0, 0, err
	}
	starts := make([]int, len(queries))
	for i := range starts {
		for {
			if s := rng.Intn(opt.Nodes); !failed[s] {
				starts[i] = s
				break
			}
		}
	}
	want := 0
	for _, q := range queries {
		for i, recs := range w.PerNode {
			if failed[i] {
				continue
			}
			for _, r := range recs {
				if q.MatchRecord(r) {
					want++
				}
			}
		}
	}
	recall := func() (float64, error) {
		if want == 0 {
			return 1, nil
		}
		found := 0
		for qi, q := range queries {
			r, err := f.resolve(q, f.addrs[starts[qi]], starts[qi])
			if err != nil {
				return 0, err
			}
			found += len(r.records)
		}
		return float64(found) / float64(want), nil
	}

	// The queries see the crash first: their calls to the crashed servers
	// fail as a dead server's would, while every survivor still routes on
	// the settled state. Stale recall is thus read at the instant of the
	// crash, however long the queries take.
	down := make(map[string]bool, failCount)
	for i := range failed {
		down[f.addrs[i]] = true
	}
	f.m.setDown(down)
	if stale, err = recall(); err != nil {
		return 0, 0, err
	}

	survivors := make([]*live.Server, 0, opt.Nodes-failCount)
	surviving := 0
	for i, srv := range f.cl.Servers {
		if failed[i] {
			srv.Kill()
			continue
		}
		survivors = append(survivors, srv)
		surviving += len(w.PerNode[i])
	}
	f.cl.Servers = survivors
	if err := f.cl.WaitConverged(uint64(surviving), convergeTimeout); err != nil {
		return 0, 0, err
	}
	if repaired, err = recall(); err != nil {
		return 0, 0, err
	}
	return stale, repaired, nil
}
