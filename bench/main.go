// Command bench is the canonical ROADS benchmark (ISSUE 12): four
// closed-loop workloads over TCP loopback and the in-process Chan
// transport, end-to-end metrics from an untraced run on the bare
// transport, and per-layer metrics from a traced run that wraps the
// transport in a benchmark-owned probe. README.md has the tables.
//
//	bash bench/run.sh                                  every workload, both runs
//	bash bench/run.sh --workload repeat-tcp --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh -out a.json ; bash bench/run.sh -agree a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"roads/internal/wire"
)

// header identifies a set of runs.
type header struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
}

// archive is what -out writes and -agree reads.
type archive struct {
	Header    header                    `json:"header"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd  metricSet `json:"end_to_end,omitempty"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
}

// driverResult is the last line of standard output in driver mode.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four, untraced then traced)")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 10, "length of the measured window; the other windows scale with it")
		trace        = flag.Int("trace", -1, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		useSmoke     = flag.Bool("smoke", false, "8-server federations and 1 s windows: a quick end-to-end check, not a measurement")
		out          = flag.String("out", "", "write the results as a JSON archive for -agree")
		traceOut     = flag.String("trace-out", "", "write the traced run's spans as JSON lines (one workload)")
		agree        = flag.Bool("agree", false, "compare two archives: bench -agree a.json b.json")
	)
	flag.Parse()
	if *agree {
		if flag.NArg() != 2 {
			fatal("usage: bench -agree a.json b.json")
		}
		os.Exit(agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	// One closed-loop client per processor: enough to keep every core busy
	// without the clients queueing behind each other.
	clients := runtime.GOMAXPROCS(0)

	specs := workloads
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatal(err.Error())
		}
		specs = []workloadSpec{w}
	}
	driverMode := *workloadName != "" && *trace >= 0
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}

	hd := header{
		Commit: commit(), Seed: *seed, Seconds: *seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}
	fmt.Printf("# roads bench  commit=%s seed=%d seconds=%g clients=%d nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		hd.Commit, hd.Seed, hd.Seconds, clients, hd.NProc, hd.GOMAXPROCS, hd.GoVersion, hd.CPUModel)

	ar := archive{Header: hd, Workloads: map[string]workloadResult{}}
	failed := false
	var last *runResult
	for _, w := range specs {
		ph := phasesFor(w, *seconds)
		if *useSmoke {
			w, ph = smoke(w), smokePhases()
		}
		wr := workloadResult{}
		for _, traced := range modes {
			res, err := run(runConfig{w: w, ph: ph, seed: *seed, trace: traced, clients: clients, traceOut: *traceOut})
			if err != nil {
				fatal(fmt.Sprintf("%s: %v", w.Name, err))
			}
			printRun(w, traced, res)
			if traced {
				wr.PerLayer = res.metrics
			} else {
				wr.EndToEnd = res.metrics
			}
			wr.Attempted += res.attempted
			wr.Failed += res.failed
			failed = failed || res.failed > 0
			last = res
		}
		ar.Workloads[w.Name] = wr
	}
	if *out != "" {
		data, err := json.MarshalIndent(ar, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err.Error())
		}
	}
	if driverMode {
		dr := driverResult{Correct: last.failed == 0, Attempted: last.attempted, Failed: last.failed, Metrics: map[string]driverValue{}}
		for name, m := range last.metrics {
			dr.Metrics[name] = driverValue{Value: m.Value, Unit: m.Unit}
		}
		line, err := json.Marshal(dr)
		if err != nil {
			fatal(err.Error())
		}
		fmt.Println(string(line))
		return
	}
	if failed {
		fatal("fail_share above 0: see the failure lines above")
	}
}

// printRun prints one run's metrics, one per line: name, value, unit and
// the sample count it rests on.
func printRun(w workloadSpec, traced bool, res *runResult) {
	mode, defs := "untraced", endToEnd
	if traced {
		mode, defs = "traced", perLayer
	}
	fmt.Printf("\n## %s (%s)  servers=%d tick=%v tcp=%v\n", w.Name, mode, w.Servers, w.Tick, w.TCP)
	for _, d := range defs {
		m, ok := res.metrics[d.Name]
		if !ok {
			fmt.Printf("%-36s MISSING\n", d.Name)
			continue
		}
		fmt.Printf("%-36s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.N)
	}
	fmt.Printf("%-36s %14.6f %-6s n=%d\n", "fail_share", float64(res.failed)/float64(res.attempted), "ratio", res.attempted)
	for _, note := range res.notes {
		fmt.Printf("note: %s\n", note)
	}
	if traced {
		// Reconciliation: the client's self time plus the calls on its
		// critical path against the traced resolves' median.
		self := res.metrics["live.client.self_ms_p50"].Value
		union := res.metrics["live.client.call_union_ms_p50"].Value
		wall := res.metrics["proc.traced_resolve_ms_p50"].Value
		fmt.Printf("reconcile: client self p50 %.4f ms + call union p50 %.4f ms = %.4f ms vs traced resolve p50 %.4f ms (%+.1f%%)\n",
			self, union, self+union, wall, 100*ratio(self+union-wall, wall))
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(1)
}

// commit returns the VCS revision the binary was built from, when the
// build could see one.
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// kindName names the message kinds the trace mentions.
func kindName(k wire.Kind) string {
	switch k {
	case wire.KindJoin:
		return "join"
	case wire.KindSummaryReport:
		return "report"
	case wire.KindReplicaPush:
		return "replica-push"
	case wire.KindReplicaBatch:
		return "replica-batch"
	case wire.KindQuery:
		return "query"
	case wire.KindHeartbeat:
		return "heartbeat"
	case wire.KindLeave:
		return "leave"
	case wire.KindStatus:
		return "status"
	case wire.KindRootProbe:
		return "root-probe"
	}
	return fmt.Sprintf("kind-%d", k)
}
