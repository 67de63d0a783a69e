package live

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// These tests pin early rounds: a record write, a child branch at a new
// version, a full entry that changes a replica passed on, and an accepted join
// set off a content-only round at once, each round keeping the next one at its
// server waiting nine times its own duration (at most half a period).

// earlyRounds returns each server's early-round count.
func earlyRounds(cl *Cluster) []uint64 {
	out := make([]uint64, len(cl.Servers))
	for i, s := range cl.Servers {
		out[i] = s.RefreshInfo().EarlyRounds
	}
	return out
}

// ownerOf returns the first owner attached at srv.
func ownerOf(srv *Server) *policy.Owner {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.owners[0]
}

// waitCovered polls until every server of cl covers want records, failing
// the test after within.
func waitCovered(t *testing.T, cl *Cluster, want uint64, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for {
		under, over := cl.coverageLag(want)
		if len(under)+len(over) == 0 {
			return time.Since(start)
		}
		if time.Since(start) > within {
			t.Fatalf("not every server covers %d records after %v; under: %s; over: %s",
				want, within, lagDetail(under), lagDetail(over))
		}
		time.Sleep(time.Millisecond)
	}
}

// staleViews lists every child branch and replica a server of cl holds at a
// version other than the one its origin publishes now: the branch, or for an
// ancestor entry the local summary.
func staleViews(cl *Cluster) []string {
	byID := make(map[string]*Server, len(cl.Servers))
	for _, s := range cl.Servers {
		byID[s.ID()] = s
	}
	version := func(id string, local bool) uint64 {
		snap := byID[id].snap.Load()
		if local {
			return snap.localSummary.Version
		}
		return snap.branchSummary.Version
	}
	var stale []string
	for _, s := range cl.Servers {
		s.mu.Lock()
		for id, c := range s.children {
			if byID[id] != nil && c.version != version(id, false) {
				stale = append(stale, s.ID()+">child "+id)
			}
		}
		for id, r := range s.replicas {
			if byID[id] != nil && r.version != version(id, r.ancestor) {
				stale = append(stale, s.ID()+">replica "+id)
			}
		}
		s.mu.Unlock()
	}
	slices.Sort(stale)
	return stale
}

// TestWriteReachesEveryServerWithoutATick: on the settled federation, whose
// period is an hour, only early rounds can move anything. A view change
// re-versions the owner's export (PolicyRev) without firing the write hook;
// the report it causes, driven by hand, is the only maintenance call, and
// the parent, which takes the branch in at a new version, is the one server
// it leaves an early round queued at. The view-changing server's own early
// round and the rounds it sets off bring every server to the new versions.
// Then, with the loops running, a leaf write reaches all 64 servers within a
// second, in at most one early round per server and without advancing any
// server's periodic round count — the clock soft state counts.
func TestWriteReachesEveryServerWithoutATick(t *testing.T) {
	tr := &countingTransport{Chan: transport.NewChan()}
	cl, _ := parkedFederation(t, tr, nil)

	// A view change at an interior server, reported by hand.
	before := earlyRounds(cl)
	mid := cl.Servers[5]
	version := mid.snap.Load().branchSummary.Version
	ownerOf(mid).Policy.SetView("tenant", policy.View{Name: "tenant"})
	mid.refreshSummaries()
	if mid.snap.Load().branchSummary.Version == version {
		t.Fatal("setup: the view change did not change the branch")
	}
	calls := tr.Stats().Calls
	tr.reset()
	mid.reportToParent()
	if summaries, _, _ := tr.counts(); summaries != 1 {
		t.Fatalf("the re-versioned branch went up in %d summaries; want 1", summaries)
	}
	if got := tr.Stats().Calls - calls; got != 1 {
		t.Errorf("%d maintenance calls after a view change's report; want the report alone", got)
	}
	for _, s := range cl.Servers {
		if queued, parent := len(s.wake) > 0, s.ID() == mid.ParentID(); queued != parent {
			t.Errorf("%s: early round queued after a view change's report: %v; want %v", s.ID(), queued, parent)
		}
	}
	if after := earlyRounds(cl); !slices.Equal(after, before) {
		t.Errorf("a view change's report ran early rounds: %v -> %v", before, after)
	}
	mid.round(true)
	cl.drainEarly()
	if stale := staleViews(cl); len(stale) > 0 {
		t.Errorf("after the view change's early rounds, servers hold older versions: %v", stale)
	}

	// A leaf write, with the loops running.
	total := cl.Servers[0].BranchRecords()
	ticks := make([]uint64, len(cl.Servers))
	for i, s := range cl.Servers {
		ticks[i] = s.RefreshInfo().Ticks
	}
	cl.Run()
	before = earlyRounds(cl)
	leaf := cl.Servers[len(cl.Servers)-1]
	o := ownerOf(leaf)
	r := o.Records()[0].Clone()
	r.ID = "write-without-a-tick"
	o.AddRecords(r)
	took := waitCovered(t, cl, total+1, earlyPropagationBound)
	after := earlyRounds(cl)
	ran := 0
	for i, s := range cl.Servers {
		n := after[i] - before[i]
		ran += int(n)
		if n > 1 {
			t.Errorf("%s ran %d early rounds for one write; want at most one", s.ID(), n)
		}
		if got := s.RefreshInfo().Ticks; got != ticks[i] {
			t.Errorf("%s counted %d periodic rounds during early rounds; soft state counts periodic rounds only", s.ID(), got-ticks[i])
		}
	}
	if after[len(after)-1] == before[len(before)-1] {
		t.Error("the writer ran no early round")
	}
	t.Logf("a leaf write reached all %d servers in %v, in %d early rounds", len(cl.Servers), took, ran)
}

// TestEarlyGap pins the gap after an early round: nine times the round's own
// duration, capped at half a period.
func TestEarlyGap(t *testing.T) {
	for _, tc := range []struct{ d, period, want time.Duration }{
		{0, 100 * time.Millisecond, 0},
		{100 * time.Microsecond, 100 * time.Millisecond, 900 * time.Microsecond},
		{5 * time.Millisecond, 100 * time.Millisecond, 45 * time.Millisecond},
		{6 * time.Millisecond, 100 * time.Millisecond, 50 * time.Millisecond},
		{time.Second, 100 * time.Millisecond, 50 * time.Millisecond},
		{time.Millisecond, time.Hour, 9 * time.Millisecond},
		{time.Hour, time.Hour, 30 * time.Minute},
	} {
		if got := earlyGap(tc.d, tc.period); got != tc.want {
			t.Errorf("earlyGap(%v, %v) = %v; want %v", tc.d, tc.period, got, tc.want)
		}
	}
}

// TestWriteBurstCostsAFewEarlyRounds: 200 writes in a tight loop at one owner
// cost each server a handful of early rounds, not one per write, because
// each round makes the next wait nine times its own duration and a request
// made meanwhile is absorbed by the one already queued; and every server ends
// holding every origin's final version.
func TestWriteBurstCostsAFewEarlyRounds(t *testing.T) {
	const servers, fanOut, writes, handful = 21, 4, 200, 10
	tick := 40 * time.Millisecond
	schema := record.DefaultSchema(2)
	cl, err := StartCluster(transport.NewChan(), ClusterConfig{
		N: servers, Schema: schema, MaxChildren: fanOut, Tick: tick,
		JoinVia: func(i int) int { return (i - 1) / fanOut },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	for i, s := range cl.Servers {
		attachDeltaOwner(t, s, schema, 3+i%2)
	}
	total := uint64(servers*3 + servers/2)
	if err := cl.WaitConverged(total, convergeTimeout); err != nil {
		t.Fatal(err)
	}

	o := ownerOf(cl.Servers[servers-1])
	before := earlyRounds(cl)
	start := time.Now()
	for i := 0; i < writes; i++ {
		r := record.New(schema, fmt.Sprintf("burst-%d", i), o.ID)
		r.SetNum(0, float64(i)/writes)
		o.AddRecords(r)
		runtime.Gosched() // let the loops see each write on its own
	}
	if err := cl.WaitConverged(total+writes, convergeTimeout); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(convergeTimeout)
	for stale := staleViews(cl); len(stale) > 0; stale = staleViews(cl) {
		if time.Now().After(deadline) {
			t.Fatalf("servers still hold older versions: %v", stale)
		}
		time.Sleep(tick / 4)
	}
	elapsed := time.Since(start)
	after := earlyRounds(cl)
	most := uint64(0)
	for i, s := range cl.Servers {
		n := after[i] - before[i]
		most = max(most, n)
		if n > handful {
			t.Errorf("%s ran %d early rounds for %d writes; want at most %d", s.ID(), n, writes, handful)
		}
	}
	t.Logf("%d writes settled everywhere in %v; at most %d early rounds at one server", writes, elapsed, most)
}

// TestBackToBackWritesWithoutATick: with the loops running on an hour's
// period, a write and the removal right behind it each reach every server
// within two seconds. The gap after an early round is a multiple of the
// round's own cost, so the second write does not wait out half a period.
func TestBackToBackWritesWithoutATick(t *testing.T) {
	cl, _ := parkedFederation(t, transport.NewChan(), nil)
	cl.Run()
	total := cl.Servers[0].BranchRecords()
	o := ownerOf(cl.Servers[len(cl.Servers)-1])
	r := o.Records()[0].Clone()
	r.ID = "back-to-back"
	o.AddRecords(r)
	added := waitCovered(t, cl, total+1, 2*time.Second)
	o.RemoveRecords(r.ID)
	removed := waitCovered(t, cl, total, 2*time.Second)
	t.Logf("the add reached all %d servers in %v, the removal behind it in %v", len(cl.Servers), added, removed)
}

// TestEarlyReportFailureIsNoParentMiss: the failure detector counts periodic
// exchanges only. Early reports into an unreachable parent, however many,
// count no miss; the periodic ones still give the parent up at exactly
// heartbeatMiss.
func TestEarlyReportFailureIsNoParentMiss(t *testing.T) {
	schema := record.DefaultSchema(2)
	ch := transport.NewChan()
	hj := &hijackTransport{Transport: ch}
	p := deltaServer(t, ch, "p", schema)
	c := deltaServer(t, hj, "c", schema)
	o := attachDeltaOwner(t, c, schema, 2)
	if err := c.Join(p.Addr()); err != nil {
		t.Fatal(err)
	}
	hj.hijack = func(addr string, req *wire.Message) (*wire.Message, error) {
		return nil, fmt.Errorf("test: %s unreachable", addr)
	}
	for i := 0; i < 2*heartbeatMiss; i++ {
		o.AddRecords(deltaRecords(schema, fmt.Sprintf("w%d", i), 1)...)
		c.refresh(true)
		c.report(true)
	}
	c.mu.Lock()
	misses := c.parentMisses
	c.mu.Unlock()
	if misses != 0 || c.ParentID() != "p" {
		t.Fatalf("after %d failed early reports: %d misses, parent %q; want 0 and p", 2*heartbeatMiss, misses, c.ParentID())
	}
	for i := 0; i < heartbeatMiss-1; i++ {
		c.reportToParent()
	}
	if got := c.mx.parentFailovers.Load(); got != 0 {
		t.Fatalf("recovery after %d failed periodic reports; the threshold is %d", heartbeatMiss-1, heartbeatMiss)
	}
	c.reportToParent()
	if got := c.mx.parentFailovers.Load(); got != 1 {
		t.Fatalf("parent failovers = %d after %d failed periodic reports; want 1", got, heartbeatMiss)
	}
}

// TestRecordsModeOwnerWritesReachTheFederation is the regression test for a
// records-mode owner whose store copy was taken once, at AttachOwner: after
// the owner dropped r1 and added r2, the federation kept answering r1 and
// never r2.
func TestRecordsModeOwnerWritesReachTheFederation(t *testing.T) {
	schema := record.DefaultSchema(2)
	cl, err := NewCluster(transport.NewChan(), ClusterConfig{N: 3, Schema: schema, MaxChildren: 1,
		JoinVia: func(i int) int { return i - 1 }})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	o := policy.NewOwner("trusted", schema, policy.NewPolicy(policy.ExportRecords))
	o.SetRecords(deltaRecords(schema, "r1", 1))
	if err := cl.AttachOwner(2, o); err != nil {
		t.Fatal(err)
	}
	settle(t, cl, 1)
	o.RemoveRecords("r1-r0")
	o.AddRecords(deltaRecords(schema, "r2", 1)...)
	settle(t, cl, 1)

	recs, _, err := NewClient(cl.Tr, "t").Resolve(cl.Servers[0].Addr(), matchAllQuery())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	if !slices.Equal(ids, []string{"r2-r0"}) {
		t.Fatalf("the federation answers %v once settled after the owner replaced r1 with r2; want [r2-r0]", ids)
	}
}
