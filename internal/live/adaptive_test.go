package live

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"roads/internal/central"
	"roads/internal/netsim"
	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/store"
	"roads/internal/transport"
)

// adaptiveCluster builds a parked-loop root with two leaf children over
// tr, with coarse 8-bucket summaries and a replan every aggregation round
// so tests drive the feedback loop deterministically via driveRound. The
// first child hosts nHot records clustered in a0's lowest 1/16th — narrow
// queries just above the cluster match the coarse bucket but no records,
// the exact false-positive shape adaptation exists to kill. The second
// child hosts one record at a0=0.9 so sibling pushes flow.
func adaptiveCluster(t *testing.T, tr transport.Transport, nHot int, mut func(id string, c *Config)) (root, hot, cold *Server) {
	t.Helper()
	schema := record.DefaultSchema(4)
	mk := func(id string) *Server {
		return deltaServerCfg(t, tr, id, schema, func(c *Config) {
			c.Summary.Buckets = 8
			c.ReplanEvery = 1
			if mut != nil {
				mut(id, c)
			}
		})
	}
	root, hot, cold = mk("root"), mk("hot"), mk("cold")

	oh := policy.NewOwner("own-hot", schema, nil)
	recs := make([]*record.Record, nHot)
	for i := range recs {
		r := record.New(schema, fmt.Sprintf("hot-r%d", i), oh.ID)
		r.SetNum(0, 0.003*float64(i)) // all below 0.0625 = one 16-bucket cell
		for a := 1; a < 4; a++ {
			r.SetNum(a, 0.5)
		}
		recs[i] = r
	}
	oh.SetRecords(recs)
	if err := hot.AttachOwner(oh); err != nil {
		t.Fatal(err)
	}

	oc := policy.NewOwner("own-cold", schema, nil)
	r := record.New(schema, "cold-r0", oc.ID)
	r.SetNum(0, 0.9)
	for a := 1; a < 4; a++ {
		r.SetNum(a, 0.5)
	}
	oc.SetRecords([]*record.Record{r})
	if err := cold.AttachOwner(oc); err != nil {
		t.Fatal(err)
	}

	for _, c := range []*Server{hot, cold} {
		if err := c.Join(root.Addr()); err != nil {
			t.Fatalf("%s join: %v", c.ID(), err)
		}
	}
	return root, hot, cold
}

// fpQueries drives n distinct narrow-range queries through the root that
// match the hot child's coarse bucket 0 but none of its records, and
// returns how many produced zero records (all should).
func fpQueries(t *testing.T, tr transport.Transport, root *Server, n, gen int) int {
	t.Helper()
	cli := NewClient(tr, "probe")
	empties := 0
	for i := 0; i < n; i++ {
		lo := 0.07 + 0.003*float64(i)
		q := query.New(fmt.Sprintf("fp-%d-%d", gen, i), query.NewRange("a0", lo, 0.124))
		recs, _, err := cli.Resolve(root.Addr(), q)
		if err != nil {
			t.Fatalf("fp query %d: %v", i, err)
		}
		if len(recs) == 0 {
			empties++
		}
	}
	return empties
}

// TestAdaptiveFeedbackKillsFPDescents is the end-to-end tentpole test:
// false-positive descents heat the attribute they routed on, the next
// replan refines that attribute's resolution, the refined summary reports
// up natively (the parent proved wire-v6), and the same query shape stops
// descending — while genuine matches keep full recall throughout.
func TestAdaptiveFeedbackKillsFPDescents(t *testing.T) {
	tr := transport.NewChan()
	root, hot, cold := adaptiveCluster(t, tr, 20, nil)

	// Negotiation warm-up: child acks flag capability, the root's next
	// pushes run flagged, reports turn native after that.
	for i := 0; i < 4; i++ {
		driveRound(hot, cold, root)
		driveRound(root)
	}
	if got := root.CoveredRecords(); got != 21 {
		t.Fatalf("root covers %d records before queries, want 21", got)
	}

	if got := fpQueries(t, tr, root, 12, 0); got != 12 {
		t.Fatalf("%d/12 probe queries were empty; the coarse baseline must redirect all of them", got)
	}
	di := hot.AdaptiveInfo()
	if !di.Enabled {
		t.Fatal("adaptive summaries must be on by default")
	}
	if di.FPDescents == 0 {
		t.Fatal("empty descents were not counted as false positives")
	}

	// Fold the heat: replan on the hot child, re-export, report up, and
	// let the root push the refreshed state around.
	for i := 0; i < 3; i++ {
		driveRound(hot, cold, root)
		driveRound(root)
	}
	di = hot.AdaptiveInfo()
	if di.Replans == 0 {
		t.Fatal("heated child never replanned")
	}
	if di.PlanDeviation == 0 {
		t.Fatal("replan left the geometry at the static base despite concentrated heat")
	}

	// The same query shape must now stop at the root: the refined a0
	// histogram separates the occupied cell from the probed range.
	before := hot.AdaptiveInfo().FPDescents
	if got := fpQueries(t, tr, root, 12, 1); got != 12 {
		t.Fatalf("%d/12 post-replan probes returned records; they target an empty range", got)
	}
	after := hot.AdaptiveInfo().FPDescents
	if after != before {
		t.Fatalf("refined summary still drew %d false-positive descents", after-before)
	}

	// Recall check: a genuine match still returns the full cluster.
	cli := NewClient(tr, "probe")
	recs, _, err := cli.Resolve(root.Addr(), query.New("real", query.NewRange("a0", 0, 0.06)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("adaptive refinement lost recall: %d records, want 20", len(recs))
	}
}

// TestAdaptiveDisabledStaticBaseline pins the escape hatch: with
// DisableAdaptiveSummaries the same workload keeps the static geometry —
// no replans, zero plan deviation — so false positives persist, while the
// descent counter still measures them for the baseline comparison.
func TestAdaptiveDisabledStaticBaseline(t *testing.T) {
	tr := transport.NewChan()
	root, hot, cold := adaptiveCluster(t, tr, 20, func(_ string, c *Config) {
		c.DisableAdaptiveSummaries = true
	})
	for i := 0; i < 4; i++ {
		driveRound(hot, cold, root)
		driveRound(root)
	}

	fpQueries(t, tr, root, 12, 0)
	before := hot.AdaptiveInfo()
	if before.Enabled {
		t.Fatal("DisableAdaptiveSummaries left adaptation enabled")
	}
	if before.FPDescents == 0 {
		t.Fatal("static baseline must still count false-positive descents")
	}

	for i := 0; i < 3; i++ {
		driveRound(hot, cold, root)
		driveRound(root)
	}
	di := hot.AdaptiveInfo()
	if di.Replans != 0 || di.PlanDeviation != 0 {
		t.Fatalf("static baseline replanned anyway: %d replans, deviation %d",
			di.Replans, di.PlanDeviation)
	}

	// The identical query shape keeps descending: nothing refined.
	fpQueries(t, tr, root, 12, 1)
	if after := hot.AdaptiveInfo().FPDescents; after <= before.FPDescents {
		t.Fatal("static geometry should keep drawing false-positive descents")
	}
	cli := NewClient(tr, "probe")
	recs, _, err := cli.Resolve(root.Addr(), query.New("real", query.NewRange("a0", 0, 0.06)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("static baseline lost recall: %d records, want 20", len(recs))
	}
}

// TestAdaptiveChildrenUnderStaticParent: DisableAdaptiveSummaries only stops
// a server's own planner. A static parent ingests its adaptive children's
// refined branches as they are (Summary.Merge resamples them into its own
// uniform branch) and forwards them natively to their siblings, so the
// federation still converges to full coverage and every entry's answers
// equal the centralized repository's.
func TestAdaptiveChildrenUnderStaticParent(t *testing.T) {
	tr := transport.NewChan()
	root, hot, cold := adaptiveCluster(t, tr, 20, func(id string, c *Config) {
		if id == "root" {
			c.DisableAdaptiveSummaries = true
		}
	})
	all := []*Server{root, hot, cold}
	rounds := func(n int) {
		for i := 0; i < n; i++ {
			driveRound(hot, cold, root)
			driveRound(root)
		}
	}
	rounds(2)
	// Heat the hot child so its reports carry a real plan.
	fpQueries(t, tr, root, 12, 0)
	rounds(3)
	if di := hot.AdaptiveInfo(); di.Replans == 0 || di.PlanDeviation == 0 {
		t.Fatalf("adaptive child never refined: %+v", di)
	}
	if di := root.AdaptiveInfo(); di.Enabled || di.Replans != 0 || di.PlanDeviation != 0 {
		t.Fatalf("static parent replanned: %+v", di)
	}
	snap := root.snap.Load()
	if len(snap.branchSummary.Cfg.Resolution) != 0 {
		t.Fatalf("static parent's branch summary carries a resolution plan: %+v", snap.branchSummary.Cfg.Resolution)
	}
	var hotBranch *snapChild
	for i := range snap.children {
		if snap.children[i].ri.ID == "hot" {
			hotBranch = &snap.children[i]
		}
	}
	if hotBranch == nil || len(hotBranch.branch.Cfg.Resolution) == 0 {
		t.Fatal("static parent does not hold the adaptive child's branch in its native geometry")
	}
	// The sibling got that branch forwarded natively too, not down-projected.
	cold.mu.Lock()
	fwd := cold.replicas["hot"]
	cold.mu.Unlock()
	if fwd == nil || len(fwd.sum.Cfg.Resolution) == 0 {
		t.Fatal("the adaptive child's branch did not reach its sibling in its native geometry")
	}

	// Coverage 1.0 everywhere.
	for _, srv := range all {
		if got := srv.CoveredRecords(); got != 21 {
			t.Fatalf("%s covers %d records; want 21", srv.ID(), got)
		}
	}

	// Answers equal the centralized repository's, through every entry.
	schema := root.cfg.Schema
	repo := central.New(schema, store.CostModel{}, netsim.New(netsim.ConstLatency(0)), 0)
	for _, srv := range []*Server{hot, cold} {
		for _, o := range srv.snap.Load().owners {
			repo.Export(0, o.Records())
		}
	}
	queries := []*query.Query{
		query.New("all", query.NewRange("a0", 0, 1)),
		query.New("cluster", query.NewRange("a0", 0, 0.06)),
		query.New("half", query.NewRange("a0", 0.03, 0.95)),
		query.New("gap", query.NewRange("a0", 0.07, 0.124)),
		query.New("conj", query.NewRange("a0", 0.5, 1), query.NewRange("a1", 0.4, 0.6)),
	}
	ids := func(recs []*record.Record) []string {
		out := make([]string, len(recs))
		for i, r := range recs {
			out[i] = r.Owner + "/" + r.ID
		}
		sort.Strings(out)
		return out
	}
	for _, entry := range all {
		cli := NewClient(tr, "probe-"+entry.ID())
		for _, q := range queries {
			want, err := repo.Resolve(q.Clone(), 0)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := cli.Resolve(entry.Addr(), q)
			if err != nil {
				t.Fatalf("entry %s query %s: %v", entry.ID(), q.ID, err)
			}
			if stats.Coverage != 1 || stats.Failed != 0 {
				t.Fatalf("entry %s query %s: coverage %.3f, %d failed contacts", entry.ID(), q.ID, stats.Coverage, stats.Failed)
			}
			if g, w := ids(got), ids(want.Records); !slices.Equal(g, w) {
				t.Fatalf("entry %s query %s: got %v; the central repository says %v", entry.ID(), q.ID, g, w)
			}
		}
	}
}
