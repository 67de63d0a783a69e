package live

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// These tests pin early rounds: a record write, an urgent report or entry
// and an accepted join set off a content-only round at once, at most one per
// half period per server, while everything else waits for the period.

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

// TestWriteReachesEveryServerWithoutATick: on the parked federation, whose
// period is an hour, only early rounds can move anything. A leaf write
// reaches all 64 servers within a second, in at most one early round per
// server and without advancing any server's periodic round count — the
// replan cadence. A replan is not urgent: the report it causes, driven by
// hand, is the only maintenance call, and no server runs an early round.
func TestWriteReachesEveryServerWithoutATick(t *testing.T) {
	tr := &countingTransport{Chan: transport.NewChan()}
	cl, _ := parkedFederation(t, tr, nil)
	total := cl.Servers[0].BranchRecords()
	ticks := make([]uint64, len(cl.Servers))
	for i, s := range cl.Servers {
		ticks[i] = s.RefreshInfo().Ticks
	}
	unparkEarlyRounds(cl.Servers...)
	before := earlyRounds(cl)

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
			t.Errorf("%s counted %d periodic rounds during early rounds; the replan cadence counts periodic rounds only", s.ID(), got-ticks[i])
		}
	}
	if after[len(after)-1] == before[len(before)-1] {
		t.Error("the writer ran no early round")
	}
	t.Logf("a leaf write reached all %d servers in %v, in %d early rounds", len(cl.Servers), took, ran)

	// A forced replan at an interior server, reported by hand.
	unparkEarlyRounds(cl.Servers...)
	before = earlyRounds(cl)
	mid := cl.Servers[5]
	mid.fpHeat[0].Add(1000)
	mid.refreshMu.Lock()
	mid.replanLocked()
	mid.refreshMu.Unlock()
	if mid.AdaptiveInfo().Replans == 0 {
		t.Fatal("setup: the heat did not change the plan")
	}
	mid.refreshSummaries()
	calls := tr.Stats().Calls
	tr.reset()
	mid.reportToParent()
	if summaries, _, _ := tr.counts(); summaries != 1 {
		t.Fatalf("the replanned branch went up in %d summaries; want 1", summaries)
	}
	time.Sleep(50 * time.Millisecond) // room for an early round that must not come
	if got := tr.Stats().Calls - calls; got != 1 {
		t.Errorf("%d maintenance calls after a replan's report; want the report alone", got)
	}
	if after := earlyRounds(cl); !slices.Equal(after, before) {
		t.Errorf("a replan set off early rounds: %v -> %v", before, after)
	}
}

// TestEarlyRoundsAreRateLimited: 200 writes in a tight loop at one owner give
// no server more than one early round per half period, and every server ends
// holding every origin's final version.
func TestEarlyRoundsAreRateLimited(t *testing.T) {
	const servers, fanOut, writes = 21, 4, 200
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
	limit := uint64(elapsed/(tick/2)) + 1
	after := earlyRounds(cl)
	most := uint64(0)
	for i, s := range cl.Servers {
		n := after[i] - before[i]
		most = max(most, n)
		if n > limit {
			t.Errorf("%s ran %d early rounds in %v; the rate limit allows %d", s.ID(), n, elapsed, limit)
		}
	}
	t.Logf("%d writes settled everywhere in %v; at most %d early rounds at one server (limit %d)", writes, elapsed, most, limit)
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
	cl, err := StartCluster(transport.NewChan(), ClusterConfig{N: 3, Schema: schema, MaxChildren: 1,
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
	if err := cl.WaitConverged(1, convergeTimeout); err != nil {
		t.Fatal(err)
	}
	o.RemoveRecords("r1-r0")
	o.AddRecords(deltaRecords(schema, "r2", 1)...)

	client := NewClient(cl.Tr, "t")
	var ids []string
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		recs, _, err := client.Resolve(cl.Servers[0].Addr(), matchAllQuery())
		if err != nil {
			t.Fatal(err)
		}
		ids = ids[:0]
		for _, r := range recs {
			ids = append(ids, r.ID)
		}
		if slices.Equal(ids, []string{"r2-r0"}) {
			return
		}
	}
	t.Fatalf("the federation answers %v two seconds after the owner replaced r1 with r2; want [r2-r0]", ids)
}

// TestRecordsModeStoreFollowsConcurrentWrites: writers racing on one
// records-mode owner leave the server's store holding exactly the owner's
// records.
func TestRecordsModeStoreFollowsConcurrentWrites(t *testing.T) {
	schema := record.DefaultSchema(2)
	srv := deltaServer(t, transport.NewChan(), "s", schema)
	o := policy.NewOwner("trusted", schema, policy.NewPolicy(policy.ExportRecords))
	if err := srv.AttachOwner(o); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				recs := deltaRecords(schema, fmt.Sprintf("w%d-%d", w, i), 2)
				o.AddRecords(recs...)
				o.RemoveRecords(recs[0].ID)
			}
		}(w)
	}
	wg.Wait()
	ids := func(recs []*record.Record) []string {
		out := make([]string, len(recs))
		for i, r := range recs {
			out[i] = r.ID
		}
		slices.Sort(out)
		return out
	}
	if got, want := ids(srv.store.Records()), ids(o.Records()); len(want) != 200 || !slices.Equal(got, want) {
		t.Fatalf("the store holds %d records, the owner %d; want the owner's 200, the same", len(got), len(want))
	}
}
