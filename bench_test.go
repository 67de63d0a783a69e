// Per-figure benchmarks: each regenerates one of the paper's tables or
// figures at a reduced scale and reports the headline numbers as benchmark
// metrics, so `go test -bench .` doubles as a smoke reproduction. The
// full-scale runs (paper parameters) are driven by cmd/roads-sim and
// recorded in EXPERIMENTS.md.
package roads

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"roads/internal/analysis"
	"roads/internal/coords"
	"roads/internal/experiment"
	"roads/internal/live"
	"roads/internal/netsim"
	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/summary"
	"roads/internal/sword"
	"roads/internal/transport"
	"roads/internal/workload"
)

// benchOptions is the reduced-scale profile the figure benchmarks share.
func benchOptions() experiment.Options {
	o := experiment.Quick()
	o.Runs = 1
	o.Queries = 40
	o.Nodes = 96
	o.RecordsPerNode = 100
	o.Buckets = 300
	return o
}

// BenchmarkAnalysisUpdateOverhead evaluates Eqs. (1)-(4): the closed-form
// update and maintenance overheads for both parameter presets.
func BenchmarkAnalysisUpdateOverhead(b *testing.B) {
	p := analysis.SimParams()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = p.UpdateROADS() + p.UpdateSWORD() + p.UpdateCentral() + p.MaintenanceROADSWorst()
	}
	_ = sink
	b.ReportMetric(p.UpdateRatioROADSvsSWORD(), "sword/roads-ratio")
}

// BenchmarkTable1Storage evaluates the Table I storage formulas.
func BenchmarkTable1Storage(b *testing.B) {
	p := analysis.PaperParams()
	var rows []analysis.Table1Row
	for i := 0; i < b.N; i++ {
		rows = analysis.Table1(p)
	}
	b.ReportMetric(rows[1].Value/rows[0].Value, "sword/roads-ratio")
	b.ReportMetric(rows[2].Value/rows[0].Value, "central/roads-ratio")
}

// BenchmarkFig3LatencyVsNodes regenerates Fig. 3 at two sizes and reports
// the latency growth of each system — ROADS must grow slower.
func BenchmarkFig3LatencyVsNodes(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiment.SweepNodes(opt, []int{48, 96})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fig3Latency.Y["ROADS"][1], "roads-ms")
		b.ReportMetric(res.Fig3Latency.Y["SWORD"][1], "sword-ms")
	}
}

// BenchmarkFig4UpdateVsNodes regenerates Fig. 4 and reports the update-
// overhead ratio (SWORD/ROADS) — the paper's 1-2 orders of magnitude.
func BenchmarkFig4UpdateVsNodes(b *testing.B) {
	opt := benchOptions()
	opt.Queries = 1
	for i := 0; i < b.N; i++ {
		res, err := experiment.SweepNodes(opt, []int{96})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fig4Update.Y["SWORD"][0]/res.Fig4Update.Y["ROADS"][0], "sword/roads-ratio")
	}
}

// BenchmarkFig5QueryVsNodes regenerates Fig. 5 and reports the query-
// overhead ratio (ROADS/SWORD) — ROADS pays more here by design.
func BenchmarkFig5QueryVsNodes(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiment.SweepNodes(opt, []int{96})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fig5Query.Y["ROADS"][0]/res.Fig5Query.Y["SWORD"][0], "roads/sword-ratio")
	}
}

// BenchmarkFig6LatencyVsDims regenerates Fig. 6: ROADS latency falls with
// query dimensionality while SWORD's stays flat.
func BenchmarkFig6LatencyVsDims(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiment.SweepDims(opt, []int{2, 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fig6Latency.Y["ROADS"][1]/res.Fig6Latency.Y["ROADS"][0], "roads-8d/2d")
		b.ReportMetric(res.Fig6Latency.Y["SWORD"][1]/res.Fig6Latency.Y["SWORD"][0], "sword-8d/2d")
	}
}

// BenchmarkFig7QueryVsDims regenerates Fig. 7: SWORD's query overhead
// grows linearly with dimensionality; ROADS confines it.
func BenchmarkFig7QueryVsDims(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiment.SweepDims(opt, []int{2, 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fig7Query.Y["SWORD"][1]/res.Fig7Query.Y["SWORD"][0], "sword-8d/2d")
		b.ReportMetric(res.Fig7Query.Y["ROADS"][1]/res.Fig7Query.Y["ROADS"][0], "roads-8d/2d")
	}
}

// BenchmarkFig8UpdateVsRecords regenerates Fig. 8: ROADS update overhead
// is constant in the record count; SWORD's is linear.
func BenchmarkFig8UpdateVsRecords(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiment.SweepRecords(opt, []int{50, 250})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Y["ROADS"][1]/res.Y["ROADS"][0], "roads-growth")
		b.ReportMetric(res.Y["SWORD"][1]/res.Y["SWORD"][0], "sword-growth")
	}
}

// BenchmarkFig9OverlapFactor regenerates Fig. 9: latency rises slightly as
// servers' data overlaps more.
func BenchmarkFig9OverlapFactor(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiment.SweepOverlap(opt, []float64{1, 12})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Y["ROADS"][1]/res.Y["ROADS"][0], "latency-of12/of1")
		b.ReportMetric(res.Y["contacted"][1]/res.Y["contacted"][0], "contacted-of12/of1")
	}
}

// BenchmarkFig10NodeDegree regenerates Fig. 10: higher degree flattens the
// hierarchy and lowers latency.
func BenchmarkFig10NodeDegree(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiment.SweepDegree(opt, []int{4, 12})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Y["ROADS"][0], "latency-deg4-ms")
		b.ReportMetric(res.Y["ROADS"][1], "latency-deg12-ms")
	}
}

// BenchmarkFig11Selectivity regenerates Fig. 11: the centralized
// repository wins at low selectivity, ROADS' parallel retrieval wins at
// high selectivity.
func BenchmarkFig11Selectivity(b *testing.B) {
	opt := benchOptions()
	opt.RecordsPerNode = 300
	opt.Cost.PerRecord = time.Millisecond
	for i := 0; i < b.N; i++ {
		res, err := experiment.SweepSelectivity(opt, []float64{0.0003, 0.05}, 6)
		if err != nil {
			b.Fatal(err)
		}
		s := res.Series
		b.ReportMetric(s.Y["Central"][0]/s.Y["ROADS"][0], "central/roads-low-sel")
		b.ReportMetric(s.Y["ROADS"][1]/s.Y["Central"][1], "roads/central-high-sel")
	}
}

// BenchmarkAblationOverlay isolates the replication overlay's benefit:
// any-node start vs. root-start search (DESIGN.md §5).
func BenchmarkAblationOverlay(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiment.SweepOverlayAblation(opt, []int{96})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverlayLatency.Y["overlay"][0], "overlay-ms")
		b.ReportMetric(res.OverlayLatency.Y["root-start"][0], "root-start-ms")
	}
}

// BenchmarkAblationBuckets sweeps histogram resolution: precision
// (servers contacted) against summary size (update traffic).
func BenchmarkAblationBuckets(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiment.SweepBucketsAblation(opt, []int{50, 1000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Y["contacted"][0]/res.Y["contacted"][1], "contacted-50b/1000b")
		b.ReportMetric(res.Y["update bytes/s"][1]/res.Y["update bytes/s"][0], "update-1000b/50b")
	}
}

// BenchmarkAblationCategorical compares enumerated value sets against
// Bloom filters for categorical summaries: size and lookup cost.
func BenchmarkAblationCategorical(b *testing.B) {
	schema := workloadSchemaWithCategorical()
	rng := rand.New(rand.NewSource(9))
	recs := makeCategoricalRecords(schema, 2000, rng)

	for _, mode := range []struct {
		name string
		cat  summary.CategoricalMode
	}{{"valueset", summary.UseValueSet}, {"bloom", summary.UseBloom}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := summary.DefaultConfig()
			cfg.Buckets = 100
			cfg.Categorical = mode.cat
			cfg.BloomBits = 1024
			cfg.BloomHashes = 4
			var size int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum, err := summary.FromRecords(schema, cfg, recs)
				if err != nil {
					b.Fatal(err)
				}
				if !sum.MatchEq(1, "val-7") {
					b.Fatal("value lost")
				}
				size = sum.SizeBytes()
			}
			b.ReportMetric(float64(size), "summary-bytes")
		})
	}
}

// BenchmarkAblationParallelDescent compares the live client's concurrent
// redirect fan-out against sequential contact, the mechanism behind the
// paper's "search multiple branches in parallel" latency advantage.
func BenchmarkAblationParallelDescent(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	w := workload.MustGenerate(workload.Config{Nodes: 10, RecordsPerNode: 40, AttrsPerDist: 2}, rng)
	space, err := coords.NewSpace(11, coords.DefaultConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	tr := transport.NewChan()
	tr.Latency = func(from, to string) time.Duration {
		return space.Latency(liveHost(from, 10), liveHost(to, 10)) / 8 // scaled down to keep the bench quick
	}
	cl, err := live.StartCluster(tr, live.ClusterConfig{N: 10, Schema: w.Schema, MaxChildren: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	for i := 0; i < 10; i++ {
		o := policy.NewOwner(fmt.Sprintf("o%d", i), w.Schema, nil)
		o.SetRecords(w.PerNode[i])
		if err := cl.AttachOwner(i, o); err != nil {
			b.Fatal(err)
		}
	}
	if err := cl.WaitConverged(uint64(w.TotalRecords()), 90*time.Second); err != nil {
		b.Fatal(err)
	}
	queries, err := w.GenQueries(4, 3, 0.4, rng)
	if err != nil {
		b.Fatal(err)
	}

	for _, par := range []struct {
		name string
		conc int
	}{{"parallel", 16}, {"sequential", 1}} {
		b.Run(par.name, func(b *testing.B) {
			client := live.NewClient(tr, "bench")
			client.MaxConcurrent = par.conc
			var total time.Duration
			var n int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				_, stats, err := client.Resolve(cl.Servers[0].Addr(), q.Clone())
				if err != nil {
					b.Fatal(err)
				}
				total += stats.Elapsed
				n++
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(n), "resolve-ms")
		})
	}
}

// BenchmarkSwordResolve measures raw SWORD resolution throughput.
func BenchmarkSwordResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	w := workload.MustGenerate(workload.Config{Nodes: 64, RecordsPerNode: 100, AttrsPerDist: 4}, rng)
	space, err := coords.NewSpace(64, coords.DefaultConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	sim := netsim.New(space)
	sys, err := sword.New(w.Schema, sword.DefaultConfig(), sim, 64)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.RegisterAll(w.PerNode); err != nil {
		b.Fatal(err)
	}
	queries, err := w.GenQueries(64, 6, 0.25, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := sys.Resolve(q.Clone(), i%64); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers ---

func workloadSchemaWithCategorical() *record.Schema {
	return record.MustSchema([]record.Attribute{
		{Name: "rate", Kind: record.Numeric},
		{Name: "enc", Kind: record.Categorical},
	})
}

func makeCategoricalRecords(schema *record.Schema, n int, rng *rand.Rand) []*record.Record {
	recs := make([]*record.Record, n)
	for i := range recs {
		r := record.New(schema, fmt.Sprintf("r%d", i), "o")
		r.SetNum(0, rng.Float64())
		r.SetStr(1, fmt.Sprintf("val-%d", rng.Intn(32)))
		recs[i] = r
	}
	return recs
}

func liveHost(addr string, n int) int {
	if addr == "" {
		return n
	}
	var i int
	if _, err := fmt.Sscanf(addr, "srv%d", &i); err != nil || i >= n {
		return n
	}
	return i
}
