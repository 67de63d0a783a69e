package experiment

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny returns a very small profile so shape tests stay fast.
func tiny() Options {
	o := Quick()
	o.Runs = 1
	o.Queries = 30
	o.Nodes = 64
	o.RecordsPerNode = 60
	o.Buckets = 200
	return o
}

func TestOptionsValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := Default()
	bad.Runs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero runs must fail")
	}
	bad = Default()
	bad.QueryRange = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("range > 1 must fail")
	}
	bad = Default()
	bad.TrSeconds = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero tr must fail")
	}
}

func TestSweepNodesShapes(t *testing.T) {
	t.Parallel()
	o := tiny()
	// The update-overhead gap is driven by record volume; keep enough
	// records that the constant-size summaries pay off as in the paper.
	o.RecordsPerNode = 200
	// ROADS latency is a step function of tree depth, so the growth claim
	// needs a span over which SWORD's linear segment walk pulls away: from
	// 32 to 96 servers the two grow alike (1.65 and 1.64 on the live tree).
	res, err := SweepNodes(o, []int{64, 320})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4 shape: ROADS update overhead at least an order of magnitude
	// below SWORD at every size.
	for i := range res.Fig4Update.X {
		roads := res.Fig4Update.Y["ROADS"][i]
		sword := res.Fig4Update.Y["SWORD"][i]
		if sword < 10*roads {
			t.Fatalf("n=%g: SWORD update %.3g not >> ROADS %.3g", res.Fig4Update.X[i], sword, roads)
		}
	}
	// Fig. 3 shape: SWORD latency grows faster than ROADS latency as the
	// system grows fivefold.
	swordGrowth := res.Fig3Latency.Y["SWORD"][1] / res.Fig3Latency.Y["SWORD"][0]
	roadsGrowth := res.Fig3Latency.Y["ROADS"][1] / res.Fig3Latency.Y["ROADS"][0]
	if swordGrowth <= roadsGrowth {
		t.Fatalf("SWORD growth %.2f should exceed ROADS growth %.2f", swordGrowth, roadsGrowth)
	}
	// Fig. 5 shape: ROADS pays more query bytes than SWORD.
	for i := range res.Fig5Query.X {
		if res.Fig5Query.Y["ROADS"][i] <= res.Fig5Query.Y["SWORD"][i] {
			t.Fatalf("n=%g: ROADS query bytes should exceed SWORD's", res.Fig5Query.X[i])
		}
	}
}

func TestSweepDimsShapes(t *testing.T) {
	t.Parallel()
	res, err := SweepDims(tiny(), []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 6 shape: ROADS latency falls with more dimensions; SWORD stays
	// roughly flat (within 25%).
	if res.Fig6Latency.Y["ROADS"][1] >= res.Fig6Latency.Y["ROADS"][0] {
		t.Fatalf("ROADS latency should fall from 2 to 8 dims: %v", res.Fig6Latency.Y["ROADS"])
	}
	s2, s8 := res.Fig6Latency.Y["SWORD"][0], res.Fig6Latency.Y["SWORD"][1]
	if s8 < s2*0.75 || s8 > s2*1.25 {
		t.Fatalf("SWORD latency should be ~flat in dims: %v vs %v", s2, s8)
	}
	// Fig. 7 shape: SWORD's query overhead grows with dims (bigger
	// messages, same path); ROADS confines the search with the extra
	// dimensions, so its overhead grows far slower than the 4x message-
	// size growth from 2 to 8 dims (the paper sees a dip then a rise).
	if res.Fig7Query.Y["SWORD"][1] <= res.Fig7Query.Y["SWORD"][0] {
		t.Fatalf("SWORD query overhead should grow with dims: %v", res.Fig7Query.Y["SWORD"])
	}
	roadsGrowth := res.Fig7Query.Y["ROADS"][1] / res.Fig7Query.Y["ROADS"][0]
	swordGrowth := res.Fig7Query.Y["SWORD"][1] / res.Fig7Query.Y["SWORD"][0]
	if roadsGrowth >= swordGrowth {
		t.Fatalf("ROADS overhead growth %.2f should trail SWORD's %.2f", roadsGrowth, swordGrowth)
	}
}

func TestSweepRecordsShapes(t *testing.T) {
	t.Parallel()
	res, err := SweepRecords(tiny(), []int{50, 250})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := res.Y["ROADS"][0], res.Y["ROADS"][1]
	s0, s1 := res.Y["SWORD"][0], res.Y["SWORD"][1]
	// Fig. 8: ROADS constant, SWORD linear in records. Constant within a
	// tolerance: histogram counts travel as uvarints, so a count past 127
	// costs a second byte.
	t.Logf("ROADS update overhead %g -> %g bytes/s", r0, r1)
	if ratio := r1 / r0; ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("ROADS update overhead must be constant in records within 25%%: %g vs %g", r0, r1)
	}
	ratio := s1 / s0
	if ratio < 4 || ratio > 6 {
		t.Fatalf("SWORD update overhead should scale ~5x for 5x records, got %.2f", ratio)
	}
}

func TestSweepOverlapRuns(t *testing.T) {
	t.Parallel()
	res, err := SweepOverlap(tiny(), []float64{1, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != 2 {
		t.Fatalf("X = %v", res.X)
	}
	// Fig. 9 shape: more overlap -> more servers contacted.
	if res.Y["contacted"][1] <= res.Y["contacted"][0] {
		t.Fatalf("higher overlap should contact more servers: %v", res.Y["contacted"])
	}
}

func TestSweepDegreeShapes(t *testing.T) {
	t.Parallel()
	res, err := SweepDegree(tiny(), []int{4, 12})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 10 shape: higher degree -> shallower tree -> lower latency.
	if res.Y["depth"][1] >= res.Y["depth"][0] {
		t.Fatalf("depth should fall with degree: %v", res.Y["depth"])
	}
	if res.Y["ROADS"][1] >= res.Y["ROADS"][0] {
		t.Fatalf("latency should fall with degree: %v", res.Y["ROADS"])
	}
}

func TestSweepSelectivityShapes(t *testing.T) {
	t.Parallel()
	o := tiny()
	o.Queries = 10
	// The crossover needs enough matching records that sequential central
	// retrieval dominates; scale the record volume accordingly (the paper
	// uses 200k records per server).
	o.RecordsPerNode = 300
	o.Cost.PerRecord = time.Millisecond
	targets := []float64{0.0003, 0.05}
	res, err := SweepSelectivity(o, targets, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series
	// Fig. 11 shape: central wins at low selectivity, ROADS at high.
	if s.Y["Central"][0] >= s.Y["ROADS"][0] {
		t.Fatalf("central should win at 0.03%% selectivity: central=%g roads=%g",
			s.Y["Central"][0], s.Y["ROADS"][0])
	}
	if s.Y["ROADS"][1] >= s.Y["Central"][1] {
		t.Fatalf("ROADS should win at 5%% selectivity: roads=%g central=%g",
			s.Y["ROADS"][1], s.Y["Central"][1])
	}
	// Measured selectivities should be within 4x of the targets.
	for i, target := range targets {
		m := res.MeasuredSelectivity[i]
		if m < target/4 || m > target*4 {
			t.Fatalf("group %d measured selectivity %g; target %g", i, m, target)
		}
	}
}

func TestSweepOverlayAblation(t *testing.T) {
	t.Parallel()
	res, err := SweepOverlayAblation(tiny(), []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OverlayLatency.X) != 1 {
		t.Fatal("one point expected")
	}
	// Both modes must produce positive latencies; the root-start mode pays
	// the extra client->root trip.
	if res.OverlayLatency.Y["root-start"][0] <= 0 {
		t.Fatal("root-start latency must be positive")
	}
	// Without the overlay every query traverses the root; with it, only a
	// fraction do — the paper's "bottleneck at the root is eliminated".
	if got := res.RootLoad.Y["root-start"][0]; got != 1 {
		t.Fatalf("root-start root-hit fraction = %g; want 1", got)
	}
	if got := res.RootLoad.Y["overlay"][0]; got >= 1 {
		t.Fatalf("overlay root-hit fraction = %g; want < 1", got)
	}
}

func TestSweepBucketsAblation(t *testing.T) {
	t.Parallel()
	res, err := SweepBucketsAblation(tiny(), []int{10, 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Coarser histograms -> more false positives -> more servers contacted.
	if res.Y["contacted"][0] <= res.Y["contacted"][1] {
		t.Fatalf("10-bucket summaries should contact more servers than 1000-bucket: %v", res.Y["contacted"])
	}
	// Finer histograms -> more update traffic.
	if res.Y["update bytes/s"][0] >= res.Y["update bytes/s"][1] {
		t.Fatalf("update traffic should grow with buckets: %v", res.Y["update bytes/s"])
	}
}

func TestSeriesFormat(t *testing.T) {
	s := newSeries("Test", "x", "y", "A", "B")
	s.add(1, map[string]float64{"A": 10, "B": 20})
	out := s.Format()
	for _, want := range []string{"Test", "A", "B", "10", "20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

// TestSweepChurn runs the sweep with the default query count: stale recall is
// read before any crash can be detected however long the queries take, and
// the repair is stepped, so stale recall, post-repair recall and the steps
// the repair took are the same in every run of a seed.
func TestSweepChurn(t *testing.T) {
	t.Parallel()
	o := tiny()
	o.Queries = Default().Queries
	var s *Series
	var steps []int
	for run := 0; run < 2; run++ {
		res, err := SweepChurn(o, []float64{0.2})
		if err != nil {
			t.Fatal(err)
		}
		if s != nil {
			for _, col := range []string{"stale recall", "post-repair recall"} {
				if res.Series.Y[col][0] != s.Y[col][0] {
					t.Fatalf("two runs of one seed give %s %g and %g", col, s.Y[col][0], res.Series.Y[col][0])
				}
			}
			if !slices.Equal(res.RepairSteps, steps) {
				t.Fatalf("two runs of one seed repaired in %v and %v steps", steps, res.RepairSteps)
			}
		}
		s, steps = res.Series, res.RepairSteps
	}
	t.Logf("repaired in %v steps", steps)
	stale := s.Y["stale recall"][0]
	repaired := s.Y["post-repair recall"][0]
	if repaired != 1.0 {
		t.Fatalf("post-repair recall = %g; want 1.0 (maintenance restores completeness)", repaired)
	}
	if stale <= 0 || stale > 1 {
		t.Fatalf("stale recall = %g; want in (0,1]", stale)
	}
	if stale > repaired {
		t.Fatal("stale recall cannot exceed post-repair recall")
	}
}

// TestQueryColumnsDeterministic: a federation is built stepped and the query
// side reads it through traced hops, so two runs of one seed agree exactly on
// latency, query bytes, and update and idle bytes.
func TestQueryColumnsDeterministic(t *testing.T) {
	t.Parallel()
	o := tiny()
	o.Nodes, o.Queries = 40, 20
	var dims [2]*DimsSweepResult
	var nodes [2]*NodesSweepResult
	for i := range dims {
		var err error
		if dims[i], err = SweepDims(o, []int{3}); err != nil {
			t.Fatal(err)
		}
		if nodes[i], err = SweepNodes(o, []int{40}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		pair [2]*Series
		col  string
	}{
		{[2]*Series{dims[0].Fig6Latency, dims[1].Fig6Latency}, "ROADS"},
		{[2]*Series{dims[0].Fig7Query, dims[1].Fig7Query}, "ROADS"},
		{[2]*Series{nodes[0].Fig4Update, nodes[1].Fig4Update}, "ROADS"},
		{[2]*Series{nodes[0].Fig4Update, nodes[1].Fig4Update}, "ROADS idle"},
	} {
		a, b := c.pair[0].Y[c.col][0], c.pair[1].Y[c.col][0]
		if a != b {
			t.Errorf("%s %s: two runs of one seed give %g and %g", c.pair[0].Name, c.col, a, b)
		}
	}
}
