package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p         float64
		want      float64
		supported bool
	}{
		{0.50, 500, true},
		{0.99, 990, true},   // 11 samples at or beyond it
		{0.999, 999, false}, // only 2
		{1, 1000, false},
	} {
		got, ok := percentile(xs, tc.p)
		if got != tc.want || ok != tc.supported {
			t.Errorf("percentile(1..1000, %v) = %v, %v; want %v, %v", tc.p, got, ok, tc.want, tc.supported)
		}
	}
	if _, ok := percentile(xs[:500], 0.99); ok {
		t.Error("p99 of 500 samples has 6 samples beyond it and must not count as supported")
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile of nothing = %v, %v; want 0, false", v, ok)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestProbeAccounting(t *testing.T) {
	inner := transport.NewChan()
	pr := newProbe(inner, 1024)
	ln, err := pr.Listen("srv", func(m *wire.Message) *wire.Message {
		time.Sleep(200 * time.Microsecond)
		return &wire.Message{Kind: wire.KindAck, From: "srv"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	req := &wire.Message{Kind: wire.KindQuery, From: "test", Query: wire.FromQuery(query.New("q"), true)}

	// Gate off, no root: the probe is a pass-through.
	if _, err := pr.Call("srv", req); err != nil {
		t.Fatal(err)
	}
	if n := len(pr.recorded()); n != 0 {
		t.Fatalf("gate off recorded %d spans, want 0", n)
	}

	pr.on.Store(true)
	const calls = 20
	for i := 0; i < calls; i++ {
		ctx := withRoot(context.Background(), uint32(i%2+1))
		// live.Client derives a per-contact context; the root must survive it.
		cctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := pr.CallContext(cctx, "srv", req)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pr.Call("nowhere", req); err == nil {
		t.Fatal("call to an unknown address succeeded")
	}

	kt := byKind(pr.recorded())[wire.KindQuery]
	if kt == nil || len(kt.call) != calls+1 || len(kt.handler) != calls {
		t.Fatalf("spans: %+v, want %d calls (one failed) and %d handlers", kt, calls+1, calls)
	}
	if kt.callSum < kt.handlerSum {
		t.Errorf("Σ call %.1fµs < Σ handler %.1fµs: transport self time would be negative", kt.callSum, kt.handlerSum)
	}
	roots := map[uint32]int{}
	errs := 0
	for _, s := range pr.recorded() {
		if s.Handler {
			continue
		}
		roots[s.Root]++
		if s.Err {
			errs++
		}
	}
	if roots[1] != calls/2 || roots[2] != calls/2 || roots[0] != 1 || errs != 1 {
		t.Errorf("call spans by root %v with %d errors; want %d each under roots 1 and 2, one rootless failure", roots, errs, calls/2)
	}
	if got, want := pr.Stats(), inner.Stats(); got != want {
		t.Errorf("Stats() not forwarded: %+v vs %+v", got, want)
	}
	if pr.Stats().Calls != calls+1 || pr.Stats().Errors != 1 {
		t.Errorf("inner counters %+v, want %d calls and 1 error", pr.Stats(), calls+1)
	}
	pr.capMu.Lock()
	captured := len(pr.captured[wire.KindQuery])
	pr.capMu.Unlock()
	if captured != calls+1 {
		t.Errorf("captured %d query messages, want %d", captured, calls+1)
	}

	// Self time: a 10 ms resolve whose calls cover [1,4) and [3,6) ms.
	self, union := selfTimes(
		[]rootSpan{{ID: 7, Start: 0, End: 10e6}},
		[]span{{Root: 7, Start: 1e6, End: 4e6}, {Root: 7, Start: 3e6, End: 6e6}, {Root: 8, Start: 0, End: 9e6}},
	)
	if len(self) != 1 || self[0] != 5 || union[0] != 5 {
		t.Errorf("selfTimes = %v, %v; want [5], [5]", self, union)
	}
}

func TestDigestOracle(t *testing.T) {
	schema := record.DefaultSchema(2)
	mk := func(id, owner string, a, b float64) *record.Record {
		r := record.New(schema, id, owner)
		r.SetNum(0, a)
		r.SetNum(1, b)
		return r
	}
	recs := []*record.Record{
		mk("r1", "o1", 0.1, 0.1), mk("r2", "o1", 0.5, 0.5), mk("r3", "o2", 0.6, 0.4), mk("r4", "o2", 0.9, 0.9),
	}
	q := query.New("q", query.NewRange(schema.Attr(0).Name, 0.4, 0.7))
	if err := q.Bind(schema); err != nil {
		t.Fatal(err)
	}
	want := oracle([]*query.Query{q}, recs)[0]
	if want.n != 2 {
		t.Fatalf("oracle matched %d records, want 2", want.n)
	}
	none := map[string]bool{}
	if !checkAnswer(q, want, none, []*record.Record{recs[2], recs[1]}) {
		t.Error("the right answer in another order was rejected")
	}
	if checkAnswer(q, want, none, []*record.Record{recs[1]}) {
		t.Error("an answer missing a record was accepted")
	}
	if checkAnswer(q, want, none, []*record.Record{recs[1], recs[1]}) {
		t.Error("a record returned twice in place of another was accepted")
	}
	if checkAnswer(q, want, none, []*record.Record{recs[1], recs[2], recs[3]}) {
		t.Error("an answer with a stable extra was accepted")
	}
	// Extras are allowed only from the writer's records, and only when
	// they satisfy the query.
	vol := map[string]bool{"v1": true}
	if !checkAnswer(q, want, vol, []*record.Record{recs[1], recs[2], mk("v1", "o1", 0.5, 0), mk(markerPrefix+"3", "o2", 0.45, 0)}) {
		t.Error("matching volatile and marker extras were rejected")
	}
	if checkAnswer(q, want, vol, []*record.Record{recs[1], recs[2], mk("v1", "o1", 0.95, 0)}) {
		t.Error("a volatile extra that does not match the query was accepted")
	}
}

// TestSmokeEveryWorkload runs every workload end to end, untraced and
// traced, on 8-server federations and asserts every named metric is there
// and finite and no operation failed. The eight runs mostly sleep through
// their windows, so they run at once (more than -parallel would allow).
func TestSmokeEveryWorkload(t *testing.T) {
	type outcome struct {
		name string
		defs []metricDef
		res  *runResult
		err  error
	}
	var outcomes []*outcome
	var wg sync.WaitGroup
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := &outcome{name: w.Name + "/untraced", defs: endToEnd}
			if traced {
				o = &outcome{name: w.Name + "/traced", defs: perLayer}
			}
			outcomes = append(outcomes, o)
			wg.Add(1)
			go func(w workloadSpec, traced bool) {
				defer wg.Done()
				o.res, o.err = run(runConfig{w: smoke(w), ph: smokePhases(), seed: 3, trace: traced, clients: 2})
			}(w, traced)
		}
	}
	wg.Wait()
	for _, o := range outcomes {
		o := o
		t.Run(o.name, func(t *testing.T) {
			if o.err != nil {
				t.Fatal(o.err)
			}
			res := o.res
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", res.failed, res.attempted, res.notes)
			}
			for _, d := range o.defs {
				m, ok := res.metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("metric %s missing", d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("metric %s = %v", d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
				case d.Bound > 0 && m.Value <= 0:
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
				}
			}
			if len(res.metrics) != len(o.defs) {
				t.Errorf("%d metrics reported, %d named", len(res.metrics), len(o.defs))
			}
		})
	}
}

func TestAgree(t *testing.T) {
	mk := func(qps float64) *archive {
		ar := &archive{Workloads: map[string]workloadResult{}}
		for _, w := range workloads {
			e := metricSet{}
			for _, d := range endToEnd {
				e[d.Name] = measurement{Value: 100, Unit: d.Unit, N: 1}
			}
			e["query_qps"] = measurement{Value: qps, Unit: "1/s", N: 1}
			ar.Workloads[w.Name] = workloadResult{EndToEnd: e, Attempted: 10}
		}
		return ar
	}
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "query_qps" {
			bound = d.Bound
		}
	}
	var out bytes.Buffer
	if !agreeArchives(&out, mk(100), mk(100*(1-bound)+1)) {
		t.Errorf("q/s lower by less than the bound, but -agree failed:\n%s", out.String())
	}
	if !agreeArchives(&out, mk(100), mk(140)) {
		t.Error("a better value must agree")
	}
	out.Reset()
	if agreeArchives(&out, mk(100), mk(100*(1-bound)-1)) {
		t.Error("q/s lower by more than the bound passed")
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("no FAIL line in:\n%s", out.String())
	}
	bad := mk(100)
	wr := bad.Workloads["wide-chan"]
	wr.Failed = 1
	bad.Workloads["wide-chan"] = wr
	if agreeArchives(&out, mk(100), bad) {
		t.Error("an archive with a failed operation passed")
	}
	delete(bad.Workloads, "repeat-tcp")
	if agreeArchives(&out, mk(100), bad) {
		t.Error("an archive missing a workload passed")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// the same.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v differs from %q / %q", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the package", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v differs from %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound differs from %v or is outside (0, 0.25]", kind, d.Name, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}
