package live

import (
	"fmt"
	"math/rand"
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
	"roads/internal/workload"
)

// startWorkloadCluster builds a settled stepped cluster whose server i holds
// workload node i's records through a summary-mode owner. Tests that need
// real timers call Run on it.
func startWorkloadCluster(t *testing.T, n, recsPer int, seed int64) (*Cluster, *workload.Workload) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := workload.MustGenerate(workload.Config{Nodes: n, RecordsPerNode: recsPer, AttrsPerDist: 2}, rng)
	cl, err := NewCluster(transport.NewChan(), ClusterConfig{N: n, Schema: w.Schema, MaxChildren: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	for i := 0; i < n; i++ {
		o := policy.NewOwner(fmt.Sprintf("owner%d", i), w.Schema, nil)
		o.SetRecords(w.PerNode[i])
		if err := cl.AttachOwner(i, o); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, cl, uint64(n*recsPer))
	return cl, w
}

// settle settles a stepped cluster and checks that every server covers
// want records.
func settle(tb testing.TB, cl *Cluster, want uint64) {
	tb.Helper()
	if err := cl.Settle(); err != nil {
		tb.Fatal(err)
	}
	if under, over := cl.coverageLag(want); len(under)+len(over) > 0 {
		tb.Fatalf("settled short of %d records; under: %s; over: %s", want, lagDetail(under), lagDetail(over))
	}
}

func TestConfigValidate(t *testing.T) {
	schema := record.DefaultSchema(4)
	good := DefaultConfig("a", "addr-a", schema)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.ID = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("empty ID must fail")
	}
	bad = good
	bad.Schema = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil schema must fail")
	}
	bad = good
	bad.MaxChildren = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero MaxChildren must fail")
	}
}

// TestClusterConvergesAndQueries: a converged cluster answers every query
// exactly as the centralized repository holding all the records does,
// whichever server the query enters at.
func TestClusterConvergesAndQueries(t *testing.T) {
	const n, recsPer = 10, 40
	cl, w := startWorkloadCluster(t, n, recsPer, 77)
	repo := central.New(w.Schema, store.CostModel{}, netsim.New(netsim.ConstLatency(0)), 0)
	repo.ExportAll(w.PerNode)
	rng := rand.New(rand.NewSource(2))
	client := NewClient(cl.Tr, "tester")
	ids := func(recs []*record.Record) []string {
		out := make([]string, len(recs))
		for i, r := range recs {
			out[i] = r.Owner + "/" + r.ID
		}
		sort.Strings(out)
		return out
	}

	queries, err := w.GenQueries(12, 3, 0.35, rng)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		// Start at a random server — the overlay allows any entry point.
		start := cl.Servers[rng.Intn(len(cl.Servers))]
		recs, stats, err := client.Resolve(start.Addr(), q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		want, err := repo.Resolve(q.Clone(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ids(recs), ids(want.Records); !slices.Equal(got, want) {
			t.Fatalf("query %d from %s: got %d records, the central repository %d (contacted %v)",
				qi, start.ID(), len(got), len(want), stats.Servers)
		}
		if stats.Contacted == 0 {
			t.Fatal("must contact at least the start server")
		}
	}
}

func TestHierarchyShape(t *testing.T) {
	cl, _ := startWorkloadCluster(t, 8, 10, 3)
	root := cl.Root()
	if root == nil {
		t.Fatal("no root")
	}
	// MaxChildren=3: 8 servers need at least two levels.
	if root.NumChildren() == 0 || root.NumChildren() > 3 {
		t.Fatalf("root has %d children; want 1..3", root.NumChildren())
	}
	// Every non-root server has a root path starting at the root.
	for _, srv := range cl.Servers {
		if srv == root {
			continue
		}
		path := srv.RootPath()
		if len(path) < 2 || path[0] != root.ID() {
			t.Fatalf("server %s root path %v does not start at root %s", srv.ID(), path, root.ID())
		}
	}
}

func TestVoluntarySharingOverWire(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	cl, err := StartCluster(tr, ClusterConfig{N: 2, Schema: schema, MaxChildren: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	pol := policy.NewPolicy(policy.ExportSummary)
	pol.DefaultView = policy.View{Name: "deny", Filter: func(*record.Record) bool { return false }}
	pol.SetView("friend", policy.View{Name: "allow"})
	o := policy.NewOwner("own", schema, pol)
	r := record.New(schema, "r1", "own")
	r.SetNum(0, 0.5)
	r.SetNum(1, 0.5)
	o.SetRecords([]*record.Record{r})
	if err := cl.AttachOwner(1, o); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitConverged(1, convergeTimeout); err != nil {
		t.Fatal(err)
	}

	q := query.New("q", query.NewRange("a0", 0, 1))
	stranger := NewClient(tr, "stranger")
	recs, _, err := stranger.Resolve(cl.Servers[0].Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("stranger got %d records; want 0 under deny view", len(recs))
	}
	friend := NewClient(tr, "friend")
	recs, _, err = friend.Resolve(cl.Servers[0].Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("friend got %d records; want 1", len(recs))
	}
}

// TestRecordsModeAnswersIgnoreViews: a records-mode owner handed its records
// to the server, so its answer is every matching record whatever its views
// say, while a summary-mode owner beside it keeps final control.
func TestRecordsModeAnswersIgnoreViews(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	cl, err := StartCluster(tr, ClusterConfig{N: 2, Schema: schema, MaxChildren: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	denyAll := policy.View{Name: "deny", Filter: func(*record.Record) bool { return false }}
	trustedPol := policy.NewPolicy(policy.ExportRecords)
	trustedPol.DefaultView = denyAll
	trusted := policy.NewOwner("trusted", schema, trustedPol)
	trusted.SetRecords(deltaRecords(schema, "trusted", 2))
	privatePol := policy.NewPolicy(policy.ExportSummary)
	privatePol.DefaultView = denyAll
	private := policy.NewOwner("private", schema, privatePol)
	private.SetRecords(deltaRecords(schema, "private", 2))
	for _, o := range []*policy.Owner{trusted, private} {
		if err := cl.AttachOwner(1, o); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.WaitConverged(4, convergeTimeout); err != nil {
		t.Fatal(err)
	}
	recs, _, err := NewClient(tr, "any").Resolve(cl.Servers[0].Addr(), matchAllQuery())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	slices.Sort(ids)
	if want := []string{"trusted-r0", "trusted-r1"}; !slices.Equal(ids, want) {
		t.Fatalf("resolved %v; want every record of the records-mode owner, %v, and none of the summary-mode owner's", ids, want)
	}
}

func TestLeafDepartureRecovery(t *testing.T) {
	cl, w := startWorkloadCluster(t, 6, 10, 4)
	// Stop a non-root server gracefully.
	var victim *Server
	var victimIdx int
	for i, srv := range cl.Servers {
		if !srv.IsRoot() && srv.NumChildren() == 0 {
			victim, victimIdx = srv, i
			break
		}
	}
	if victim == nil {
		t.Skip("no leaf found")
	}
	victim.Stop()
	cl.Servers = slices.Delete(cl.Servers, victimIdx, victimIdx+1)

	// Remaining data (all but the victim's) stays queryable once the
	// departure has settled.
	if err := cl.Settle(); err != nil {
		t.Fatal(err)
	}
	client := NewClient(cl.Tr, "t")
	q := query.New("q", query.NewRange("a0", 0, 1))
	if err := q.Bind(w.Schema); err != nil {
		t.Fatal(err)
	}
	root := cl.Root()
	if root == nil {
		t.Fatal("no root after departure")
	}
	recs, _, err := client.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i, nodeRecs := range w.PerNode {
		if i == victimIdx {
			continue
		}
		for _, r := range nodeRecs {
			if q.MatchRecord(r) {
				want++
			}
		}
	}
	if len(recs) < want {
		t.Fatalf("after departure got %d records; want >= %d", len(recs), want)
	}
}

func TestParentFailureRejoin(t *testing.T) {
	cl, _ := startWorkloadCluster(t, 6, 5, 5)
	root := cl.Root()
	// Find an internal (non-root) server with children.
	var internal *Server
	for _, srv := range cl.Servers {
		if srv != root && srv.NumChildren() > 0 {
			internal = srv
			break
		}
	}
	if internal == nil {
		t.Skip("tree too flat for an internal failure test")
	}
	internal.Stop()

	// The Leave plans each orphan's recovery, and the orphan's next periodic
	// round rejoins its grandparent: after one step every surviving server
	// reaches the root via its root path.
	cl.Step()
	for _, srv := range cl.Servers {
		if srv == internal {
			continue
		}
		if path := srv.RootPath(); len(path) == 0 || path[0] != root.ID() || (srv != root && srv.ParentID() == "") {
			t.Errorf("%s did not rejoin in one step: parent=%q isroot=%v path=%v", srv.ID(), srv.ParentID(), srv.IsRoot(), path)
		}
	}
}

func TestClusterOverTCP(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewTCP()
	ports := freeLoopbackAddrs(t, 3)
	cl, err := StartCluster(tr, ClusterConfig{
		N:       3,
		Schema:  schema,
		AddrFor: func(i int) string { return ports[i] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	o := policy.NewOwner("own", schema, nil)
	r := record.New(schema, "r1", "own")
	r.SetNum(0, 0.3)
	r.SetNum(1, 0.3)
	o.SetRecords([]*record.Record{r})
	if err := cl.AttachOwner(2, o); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitConverged(1, convergeTimeout); err != nil {
		t.Fatal(err)
	}
	client := NewClient(tr, "any")
	q := query.New("q", query.NewRange("a0", 0.2, 0.4))
	recs, stats, err := client.Resolve(cl.Servers[0].Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("TCP cluster returned %d records; want 1 (contacted %v)", len(recs), stats.Servers)
	}
}

func TestStartClusterValidation(t *testing.T) {
	tr := transport.NewChan()
	if _, err := StartCluster(tr, ClusterConfig{N: 0, Schema: record.DefaultSchema(1)}); err == nil {
		t.Fatal("zero servers must fail")
	}
	if _, err := StartCluster(tr, ClusterConfig{N: 1}); err == nil {
		t.Fatal("nil schema must fail")
	}
}

func TestServerDoubleStartAndStop(t *testing.T) {
	schema := record.DefaultSchema(1)
	tr := transport.NewChan()
	srv, err := NewServer(DefaultConfig("a", "addr-a", schema), tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err == nil {
		t.Fatal("double start must fail")
	}
	srv.Stop()
	srv.Stop() // idempotent
}
