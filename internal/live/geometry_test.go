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

// twoLeafCluster builds a parked-loop root with rootBuckets-bucket summaries
// and two leaf children with childBuckets, driven by driveRound. The first
// child hosts 20 records clustered in a0's lowest 1/16th, the second one
// record at a0=0.9 so sibling pushes flow.
func twoLeafCluster(t *testing.T, tr transport.Transport, rootBuckets, childBuckets int) (root, hot, cold *Server) {
	t.Helper()
	schema := record.DefaultSchema(4)
	mk := func(id string, buckets int) *Server {
		return deltaServerCfg(t, tr, id, schema, func(c *Config) { c.Summary.Buckets = buckets })
	}
	root, hot, cold = mk("root", rootBuckets), mk("hot", childBuckets), mk("cold", childBuckets)
	attach := func(srv *Server, owner string, a0 ...float64) {
		o := policy.NewOwner(owner, schema, nil)
		recs := make([]*record.Record, len(a0))
		for i, v := range a0 {
			r := record.New(schema, fmt.Sprintf("%s-r%d", owner, i), o.ID)
			r.SetNum(0, v)
			for a := 1; a < 4; a++ {
				r.SetNum(a, 0.5)
			}
			recs[i] = r
		}
		o.SetRecords(recs)
		if err := srv.AttachOwner(o); err != nil {
			t.Fatal(err)
		}
	}
	cluster := make([]float64, 20)
	for i := range cluster {
		cluster[i] = 0.003 * float64(i) // all below 0.0625 = one 16-bucket cell
	}
	attach(hot, "own-hot", cluster...)
	attach(cold, "own-cold", 0.9)
	for _, c := range []*Server{hot, cold} {
		if err := c.Join(root.Addr()); err != nil {
			t.Fatalf("%s join: %v", c.ID(), err)
		}
	}
	for i := 0; i < 4; i++ {
		driveRound(hot, cold, root)
		driveRound(root)
	}
	return root, hot, cold
}

// TestEmptyDescentsAreCounted: with 8-bucket summaries, narrow queries just
// above the hot child's cluster match its first bucket but none of its
// records, so each one entered at the root descends to the hot child and
// finds nothing there. roads_fp_descents_total counts exactly those empty
// contacts, and genuine matches keep full recall.
func TestEmptyDescentsAreCounted(t *testing.T) {
	tr := transport.NewChan()
	root, hot, cold := twoLeafCluster(t, tr, 8, 8)
	cli := NewClient(tr, "probe")
	const n = 12
	for i := 0; i < n; i++ {
		lo := 0.07 + 0.003*float64(i)
		recs, _, err := cli.Resolve(root.Addr(), query.New(fmt.Sprintf("fp-%d", i), query.NewRange("a0", lo, 0.124)))
		if err != nil {
			t.Fatalf("fp query %d: %v", i, err)
		}
		if len(recs) != 0 {
			t.Fatalf("fp query %d returned %d records; it targets an empty range", i, len(recs))
		}
	}
	for _, srv := range []*Server{root, hot, cold} {
		want := uint64(0)
		if srv == hot {
			want = n
		}
		if got := srv.mx.fpDescents.Load(); got != want {
			t.Errorf("%s counted %d empty descents; want %d", srv.ID(), got, want)
		}
	}
	recs, _, err := cli.Resolve(root.Addr(), query.New("real", query.NewRange("a0", 0, 0.06)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("a genuine match returned %d records, want 20", len(recs))
	}
}

// TestMixedGeometryChildrenUnderParent: each server builds its summaries in
// its own geometry, and roadsd -buckets lets a federation mix them. Here the
// root builds 8-bucket summaries and its two leaf children 16 (see
// twoLeafCluster). The root ingests their branches as they are
// (Summary.Merge resamples them into its own 8-bucket branch) and forwards
// them natively to their siblings, so the federation still converges to
// full coverage and every entry's answers equal the centralized
// repository's.
func TestMixedGeometryChildrenUnderParent(t *testing.T) {
	const parentBuckets, childBuckets = 8, 16
	tr := transport.NewChan()
	root, hot, cold := twoLeafCluster(t, tr, parentBuckets, childBuckets)
	schema := root.cfg.Schema
	all := []*Server{root, hot, cold}

	snap := root.snap.Load()
	if got := len(snap.branchSummary.Hists[0].Counts); got != parentBuckets {
		t.Fatalf("the parent's branch summary has %d buckets; want its own %d", got, parentBuckets)
	}
	var hotBranch *snapChild
	for i := range snap.children {
		if snap.children[i].ri.ID == "hot" {
			hotBranch = &snap.children[i]
		}
	}
	if hotBranch == nil || len(hotBranch.branch.Hists[0].Counts) != childBuckets {
		t.Fatal("the parent does not hold the child's branch in its native geometry")
	}
	// The sibling got that branch forwarded natively too, not down-projected.
	cold.mu.Lock()
	fwd := cold.replicas["hot"]
	cold.mu.Unlock()
	if fwd == nil || len(fwd.sum.Hists[0].Counts) != childBuckets {
		t.Fatal("the child's branch did not reach its sibling in its native geometry")
	}

	// Coverage 1.0 everywhere.
	for _, srv := range all {
		if got := srv.CoveredRecords(); got != 21 {
			t.Fatalf("%s covers %d records; want 21", srv.ID(), got)
		}
	}

	// Answers equal the centralized repository's, through every entry.
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
