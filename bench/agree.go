package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readArchive(path string) (*archive, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ar archive
	if err := json.Unmarshal(data, &ar); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ar, nil
}

// agreeFiles compares two archives and returns the process exit code: 0
// when they agree, 1 when they do not, 2 when one cannot be read.
func agreeFiles(out io.Writer, pathA, pathB string) int {
	a, errA := readArchive(pathA)
	b, errB := readArchive(pathB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if !agreeArchives(out, a, b) {
		return 1
	}
	return 0
}

// agreeArchives prints, per workload and end-to-end metric, both values
// and how much worse b is than a, and reports whether every metric of b is
// within its bound of a and no run of either had a failed operation.
func agreeArchives(out io.Writer, a, b *archive) bool {
	ok := true
	fmt.Fprintf(out, "a: commit=%s seed=%d   b: commit=%s seed=%d\n", a.Header.Commit, a.Header.Seed, b.Header.Commit, b.Header.Seed)
	for _, w := range workloads {
		ra, inA := a.Workloads[w.Name]
		rb, inB := b.Workloads[w.Name]
		if !inA || !inB {
			fmt.Fprintf(out, "%-16s missing from an archive\n", w.Name)
			ok = false
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(out, "%-16s failed operations: a=%d b=%d  FAIL\n", w.Name, ra.Failed, rb.Failed)
			ok = false
		}
		for _, d := range endToEnd {
			ma, okA := ra.EndToEnd[d.Name]
			mb, okB := rb.EndToEnd[d.Name]
			if !okA || !okB {
				fmt.Fprintf(out, "%-16s %-22s missing\n", w.Name, d.Name)
				ok = false
				continue
			}
			worse := worsening(d, ma.Value, mb.Value)
			verdict := "ok"
			if worse > d.Bound || math.IsNaN(worse) {
				verdict = "FAIL"
				ok = false
			}
			fmt.Fprintf(out, "%-16s %-22s a=%12.4f b=%12.4f %-5s worse by %+7.2f%% (bound %.0f%%) %s\n",
				w.Name, d.Name, ma.Value, mb.Value, d.Unit, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok
}

// worsening is how much worse b is than a, as a share of a: positive when
// b is worse in the metric's own direction.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return math.NaN()
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
