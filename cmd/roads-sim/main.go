// Command roads-sim regenerates the paper's simulation figures (3-10),
// the prototype-benchmark figure (11), and the ablation studies, printing
// each series as an aligned table, and prints the paper's closed-form
// analysis (§IV: Eqs. 1-4 and Table I).
//
// Usage:
//
//	roads-sim -fig 3            # one figure (3,4,5 share a sweep; so do 6,7)
//	roads-sim -fig all          # everything
//	roads-sim -fig ablation     # overlay + bucket ablations
//	roads-sim -fig analysis     # Eqs. 1-4 + Table I, paper and sim presets
//	roads-sim -runs 3 -queries 100 -nodes 320   # scale knobs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"roads/internal/analysis"
	"roads/internal/experiment"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3|4|5|6|7|8|9|10|11|ablation|churn|analysis|all")
	runs := flag.Int("runs", 10, "independent runs to average (paper: 10)")
	queries := flag.Int("queries", 500, "queries per run (paper: 500)")
	nodes := flag.Int("nodes", 320, "default node count (paper: 320)")
	records := flag.Int("records", 500, "records per node (paper: 500)")
	buckets := flag.Int("buckets", 1000, "histogram buckets (paper: 1000)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	windowLen := flag.Float64("windowlen", 0, "window-distribution length override (0 = paper's 0.5)")
	quick := flag.Bool("quick", false, "reduced-scale smoke profile")
	format := flag.String("format", "text", "output format: text|json|csv|plot")
	flag.Parse()
	if *format != "text" && *format != "json" && *format != "csv" && *format != "plot" {
		fmt.Fprintf(os.Stderr, "unknown -format %q\n", *format)
		os.Exit(2)
	}
	outputFormat = *format

	opt := experiment.Default()
	if *quick {
		opt = experiment.Quick()
	}
	opt.Runs = *runs
	opt.Queries = *queries
	opt.Nodes = *nodes
	opt.RecordsPerNode = *records
	opt.Buckets = *buckets
	opt.Seed = *seed
	opt.WindowLen = *windowLen
	if *quick {
		q := experiment.Quick()
		opt.Runs, opt.Queries = q.Runs, q.Queries
		opt.Nodes, opt.RecordsPerNode, opt.Buckets = q.Nodes, q.RecordsPerNode, q.Buckets
	}

	start := time.Now()
	if err := run(*fig, opt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if outputFormat == "text" {
		fmt.Printf("\n(total %v)\n", time.Since(start).Round(time.Second))
	}
}

// outputFormat selects how emit renders each series.
var outputFormat = "text"

// emit prints one series in the selected format.
func emit(s *experiment.Series) error {
	switch outputFormat {
	case "json":
		data, err := json.Marshal(s)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	case "csv":
		out, err := s.CSV()
		if err != nil {
			return err
		}
		fmt.Printf("# %s\n%s\n", s.Name, out)
	case "plot":
		fmt.Println(s.Plot(64, 16))
	default:
		fmt.Println(s.Format())
	}
	return nil
}

func run(fig string, opt experiment.Options) error {
	wantNodes := fig == "3" || fig == "4" || fig == "5" || fig == "all"
	wantDims := fig == "6" || fig == "7" || fig == "all"

	if fig == "analysis" || fig == "all" {
		// The sim preset is the §V setting at this run's scale: one owner
		// per server, -nodes of them, -records each, -buckets per histogram.
		sim := analysis.SimParams()
		sim.N, sim.NServers = float64(opt.Nodes), float64(opt.Nodes)
		sim.K, sim.M = float64(opt.RecordsPerNode), float64(opt.Buckets)
		for _, preset := range []struct {
			name string
			p    analysis.Params
		}{{"paper (Table I setting)", analysis.PaperParams()}, {"sim (§V setting)", sim}} {
			if err := preset.p.Validate(); err != nil {
				return err
			}
			fmt.Printf("Analysis, %s preset\n%s\n", preset.name, analysis.Report(preset.p))
		}
	}

	if wantNodes {
		res, err := experiment.SweepNodes(opt, nil)
		if err != nil {
			return err
		}
		if err := emit(res.Fig3Latency); err != nil {
			return err
		}
		if err := emit(res.Fig4Update); err != nil {
			return err
		}
		if err := emit(res.Fig5Query); err != nil {
			return err
		}
	}
	if wantDims {
		res, err := experiment.SweepDims(opt, nil)
		if err != nil {
			return err
		}
		if err := emit(res.Fig6Latency); err != nil {
			return err
		}
		if err := emit(res.Fig7Query); err != nil {
			return err
		}
	}
	if fig == "8" || fig == "all" {
		s, err := experiment.SweepRecords(opt, nil)
		if err != nil {
			return err
		}
		if err := emit(s); err != nil {
			return err
		}
	}
	if fig == "9" || fig == "all" {
		s, err := experiment.SweepOverlap(opt, nil)
		if err != nil {
			return err
		}
		if err := emit(s); err != nil {
			return err
		}
	}
	if fig == "10" || fig == "all" {
		s, err := experiment.SweepDegree(opt, nil)
		if err != nil {
			return err
		}
		if err := emit(s); err != nil {
			return err
		}
	}
	if fig == "11" || fig == "all" {
		res, err := experiment.SweepSelectivity(opt, nil, 0)
		if err != nil {
			return err
		}
		if err := emit(res.Series); err != nil {
			return err
		}
		fmt.Printf("measured selectivities: %v\n\n", res.MeasuredSelectivity)
	}
	if fig == "churn" || fig == "all" {
		res, err := experiment.SweepChurn(opt, nil)
		if err != nil {
			return err
		}
		if err := emit(res.Series); err != nil {
			return err
		}
	}
	if fig == "ablation" || fig == "all" {
		ab, err := experiment.SweepOverlayAblation(opt, nil)
		if err != nil {
			return err
		}
		if err := emit(ab.OverlayLatency); err != nil {
			return err
		}
		if err := emit(ab.RootLoad); err != nil {
			return err
		}
		bk, err := experiment.SweepBucketsAblation(opt, nil)
		if err != nil {
			return err
		}
		if err := emit(bk); err != nil {
			return err
		}
	}
	switch fig {
	case "3", "4", "5", "6", "7", "8", "9", "10", "11", "ablation", "churn", "analysis", "all":
		return nil
	}
	return fmt.Errorf("unknown -fig %q", fig)
}
