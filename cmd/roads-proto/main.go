// Command roads-proto benchmarks the live ROADS prototype end to end, the
// analogue of the paper's testbed experiment (Fig. 11): it starts a real
// in-process cluster (every message wire-encoded through the transport,
// optionally with injected wide-area latency), loads synthetic records,
// and measures the wall-clock total response time of selectivity-grouped
// queries against ROADS and against a centralized single-server setup.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"roads/internal/coords"
	"roads/internal/live"
	"roads/internal/policy"
	"roads/internal/stats"
	"roads/internal/summary"
	"roads/internal/transport"
	"roads/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 16, "cluster size")
	records := flag.Int("records", 2000, "records per node")
	perGroup := flag.Int("queries", 30, "queries per selectivity group")
	buckets := flag.Int("buckets", 500, "histogram buckets")
	seed := flag.Int64("seed", 1, "RNG seed")
	netLat := flag.Bool("wan", true, "inject synthesized wide-area latency")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	wcfg := workload.Config{Nodes: *nodes, RecordsPerNode: *records, AttrsPerDist: 4}
	w, err := workload.Generate(wcfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	total := w.TotalRecords()
	fmt.Printf("prototype benchmark: %d nodes x %d records = %d total\n", *nodes, *records, total)

	// One latency space shared by both deployments: hosts 0..nodes-1 are
	// the ROADS servers, host `nodes` is the client, host nodes+1 the
	// central repository.
	space := coords.MustNewSpace(*nodes+2, coords.DefaultConfig(), rng)
	latency := func(from, to string) time.Duration {
		if !*netLat {
			return 0
		}
		return space.Latency(hostOf(from, *nodes), hostOf(to, *nodes))
	}

	// ROADS cluster.
	roadsTr := transport.NewChan()
	roadsTr.Latency = latency
	cl, err := live.StartCluster(roadsTr, live.ClusterConfig{
		N:       *nodes,
		Schema:  w.Schema,
		Summary: summary.Config{Buckets: *buckets, Min: 0, Max: 1, Categorical: summary.UseValueSet},
		Tick:    100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()
	for i := 0; i < *nodes; i++ {
		o := policy.NewOwner(fmt.Sprintf("owner%d", i), w.Schema, nil)
		o.SetRecords(w.PerNode[i])
		if err := cl.AttachOwner(i, o); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("waiting for aggregation + overlay convergence...")
	if err := cl.WaitConverged(uint64(total), 2*time.Minute); err != nil {
		log.Fatal(err)
	}

	// Central deployment: a single live server holding everything.
	centralTr := transport.NewChan()
	centralTr.Latency = latency
	central, err := live.StartCluster(centralTr, live.ClusterConfig{
		N:       1,
		Schema:  w.Schema,
		Summary: summary.Config{Buckets: *buckets, Min: 0, Max: 1, Categorical: summary.UseValueSet},
		AddrFor: func(int) string { return "central" },
		Tick:    100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer central.Stop()
	centralOwner := policy.NewOwner("central-owner", w.Schema, nil)
	centralOwner.SetRecords(w.AllRecords())
	if err := central.AttachOwner(0, centralOwner); err != nil {
		log.Fatal(err)
	}
	if err := central.WaitConverged(uint64(total), 2*time.Minute); err != nil {
		log.Fatal(err)
	}

	groups, err := w.GenSelectivityGroups(workload.PaperSelectivityTargets, *perGroup, 6, 20000, rng)
	if err != nil {
		log.Fatal(err)
	}

	roadsClient := live.NewClient(roadsTr, "bench")
	centralClient := live.NewClient(centralTr, "bench")
	fmt.Printf("\n%12s %10s %10s %10s %12s %12s %10s\n",
		"selectivity", "ROADS avg", "ROADS p90", "contacted", "Central avg", "Central p90", "matches")
	for _, g := range groups {
		var rTimes, cTimes []time.Duration
		var contacted, matches int
		for _, q := range g.Queries {
			start := cl.Servers[rng.Intn(len(cl.Servers))]
			recs, stats, err := roadsClient.Resolve(start.Addr(), q.Clone())
			if err != nil {
				log.Fatal(err)
			}
			rTimes = append(rTimes, stats.Elapsed)
			contacted += stats.Contacted
			matches += len(recs)

			_, cstats, err := centralClient.Resolve("central", q.Clone())
			if err != nil {
				log.Fatal(err)
			}
			cTimes = append(cTimes, cstats.Elapsed)
		}
		n := len(g.Queries)
		fmt.Printf("%11.2f%% %10v %10v %10.1f %12v %12v %10.1f\n",
			g.Target*100,
			stats.MeanDuration(rTimes).Round(time.Millisecond), stats.PercentileDuration(rTimes, 0.9).Round(time.Millisecond),
			float64(contacted)/float64(n),
			stats.MeanDuration(cTimes).Round(time.Millisecond), stats.PercentileDuration(cTimes, 0.9).Round(time.Millisecond),
			float64(matches)/float64(n))
	}
}

// hostOf maps a transport address to a latency-space host index: servers
// keep their index, the client ("" caller) sits at host nodes, the central
// repository at nodes+1.
func hostOf(addr string, nodes int) int {
	switch addr {
	case "":
		return nodes
	case "central":
		return nodes + 1
	}
	var n int
	if _, err := fmt.Sscanf(addr, "srv%d", &n); err != nil || n >= nodes {
		return nodes
	}
	return n
}
