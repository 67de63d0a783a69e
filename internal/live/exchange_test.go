package live

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"roads/internal/record"
	"roads/internal/transport"
)

// These tests pin what follows from there being one exchange up every tree
// edge: one verdict per tick, so a refused child cannot be reassured by a
// second signal; a NeedFull answer that is still a liveness refresh; and one
// loop goroutine per server, gone after Stop.

// TestRefusedChildRejoins: a child its parent no longer lists and has no room
// for is refused every report, gives the parent up after exactly heartbeatMiss
// of them, and the existing recovery and the split-brain probes of the
// periodic rounds bring the federation back to one tree. With a separate heartbeat (last at 948f4b6)
// the parent answered the orphan's heartbeat every tick, which reset the miss
// count, and the orphan stayed outside the tree forever.
func TestRefusedChildRejoins(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	root := deltaServerCfg(t, tr, "root", schema, func(c *Config) { c.MaxChildren = 1 })
	a := deltaServer(t, tr, "a", schema)
	b := deltaServer(t, tr, "b", schema)
	all := []*Server{a, b, root}
	for _, s := range all {
		attachDeltaOwner(t, s, schema, 3)
	}
	if err := a.Join(root.Addr()); err != nil {
		t.Fatal(err)
	}
	driveRound(a, root)
	if got := root.BranchRecords(); got != 6 {
		t.Fatalf("setup: root's branch covers %d records with a under it; want 6", got)
	}

	// What ageSoftState does to a child silent for a whole window; then
	// b takes the only slot.
	root.mu.Lock()
	delete(root.children, "a")
	root.childEpoch++
	root.publishSnapshotLocked()
	root.mu.Unlock()
	if err := b.Join(root.Addr()); err != nil {
		t.Fatal(err)
	}
	if pid := b.ParentID(); pid != "root" {
		t.Fatalf("setup: b joined under %q; want root", pid)
	}

	const miss = heartbeatMiss
	for i := 0; i < miss-1; i++ {
		driveRound(all...)
	}
	if got, pid := a.mx.parentFailovers.Load(), a.ParentID(); got != 0 || pid != "root" {
		t.Fatalf("after %d refused reports: %d failovers, parent %q; the threshold is %d", miss-1, got, pid, miss)
	}
	driveRound(all...)
	if got, pid := a.mx.parentFailovers.Load(), a.ParentID(); got != 1 || pid != "" {
		t.Fatalf("after %d refused reports: %d failovers, parent %q; want the parent given up and a recovery started", miss, got, pid)
	}

	// Recovery runs on its own goroutine; the rounds, and with them the
	// split-brain probes, are driven by hand.
	healed := func() bool {
		roots := 0
		var covered uint64
		for _, s := range all {
			if s.IsRoot() {
				roots++
				covered = s.BranchRecords()
			}
		}
		return roots == 1 && covered == 9
	}
	deadline := time.Now().Add(convergeTimeout)
	for !healed() && time.Now().Before(deadline) {
		driveRound(all...)
		time.Sleep(time.Millisecond)
	}
	if !healed() {
		for _, s := range all {
			t.Logf("%s: root=%v parent=%q branch=%d path=%v", s.ID(), s.IsRoot(), s.ParentID(), s.BranchRecords(), s.RootPath())
		}
		t.Fatal("the federation never came back to one root covering all 9 records")
	}
}

// TestLateChildKeepsItsPlace: a parent whose child's reports run late by
// several of the parent's rounds keeps the child, and answers that enter at
// the parent stay complete at coverage 1 throughout. Only the root's rounds
// run on a root -> mid -> leaf chain, so mid is silent from the root's view:
// it keeps its place for the whole soft-state window (replicaRounds rounds
// after its last report, as a replica would), well past heartbeatMiss, and is
// dropped the round after. Dropping it early would lose mid's and leaf's
// records from the root's answers while they still read coverage 1.
func TestLateChildKeepsItsPlace(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	root := deltaServer(t, tr, "root", schema)
	mid := deltaServer(t, tr, "mid", schema)
	leaf := deltaServer(t, tr, "leaf", schema)
	for _, s := range []*Server{root, mid, leaf} {
		attachDeltaOwner(t, s, schema, 4)
	}
	if err := mid.Join(root.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Join(mid.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		driveRound(leaf, mid, root)
	}
	const want = 12
	if got := root.BranchRecords(); got != want {
		t.Fatalf("setup: root's branch covers %d records; want %d", got, want)
	}

	q := matchAllQuery()
	if err := q.Bind(schema); err != nil {
		t.Fatal(err)
	}
	client := NewClient(tr, "t")
	renewed := childRenewed(root, "mid")
	for root.rounds.Load() < renewed+replicaRounds {
		driveRound(root)
		round := root.rounds.Load() - renewed
		if root.NumChildren() != 1 {
			t.Fatalf("round %d of mid's silence: root dropped it inside the window of %d rounds", round, replicaRounds)
		}
		recs, stats, err := client.Resolve(root.Addr(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != want || stats.Coverage != 1 {
			t.Fatalf("round %d of mid's silence: a root-entry answer has %d of %d records at coverage %.2f; want all at 1",
				round, len(recs), want, stats.Coverage)
		}
	}
	driveRound(root)
	if root.NumChildren() != 0 {
		t.Fatalf("root still lists mid %d rounds after its last report; the window is %d", replicaRounds+1, replicaRounds)
	}
	if got := root.mx.childrenPruned.Load(); got != 1 {
		t.Fatalf("roads_children_pruned_total reads %d; want 1", got)
	}
}

// TestNeedFullStillRefreshesChild: a known child whose version-only report
// names a version the parent does not hold is told NeedFull — and is still a
// child that reported: liveness, epoch, branch shape and failover alternates
// refreshed, ancestry verdict delivered.
func TestNeedFullStillRefreshesChild(t *testing.T) {
	schema := record.DefaultSchema(2)
	ch := transport.NewChan()
	tap := &ackTap{Transport: ch}
	p := deltaServer(t, ch, "p", schema)
	c := deltaServer(t, tap, "c", schema)
	attachDeltaOwner(t, c, schema, 3)
	if err := c.Join(p.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		driveRound(c, p)
	}
	if have, _ := parentDelta(c); have == 0 {
		t.Fatal("setup: c never reached version-only reports")
	}

	// Everything a report refreshes changes at once: c gains a child, its
	// epoch moves, it gains a sibling — and p loses track of its version.
	g := deltaServer(t, ch, "g", schema)
	if err := g.Join(c.Addr()); err != nil {
		t.Fatal(err)
	}
	d := deltaServer(t, ch, "d", schema)
	if err := d.Join(p.Addr()); err != nil {
		t.Fatal(err)
	}
	c.observeEpoch(7)
	setChildVersion(p, "c", 0xdead)
	p.rounds.Add(1) // so the report's stamp shows

	c.reportToParent()
	ack := tap.last(t)
	if !ack.NeedFull || ack.HaveVersion != 0 {
		t.Fatalf("version-only report of a version p does not hold was acked %+v; want NeedFull", ack)
	}
	if a := ack.Ancestry; a == nil || len(a.Siblings) != 1 || a.Siblings[0].ID != "d" {
		t.Fatalf("the NeedFull ack carries ancestry %+v; want it with the new sibling d", ack.Ancestry)
	}
	if _, needFull := parentDelta(c); !needFull {
		t.Fatal("c did not take the NeedFull")
	}
	c.mu.Lock()
	sibs := slices.Clone(c.siblingsOfMe)
	c.mu.Unlock()
	if len(sibs) != 1 || sibs[0].ID != "d" {
		t.Fatalf("c holds siblings %v after the NeedFull ack; want d", sibs)
	}

	if childRenewed(p, "c") != p.rounds.Load() {
		t.Fatal("a report answered NeedFull did not refresh the child's liveness")
	}
	if got := childEpochState(p, "c"); got != 7 {
		t.Fatalf("p records epoch %d for c after the report; want 7", got)
	}
	p.mu.Lock()
	cs := p.children["c"]
	depth, descendants, kids := cs.depth, cs.descendants, slices.Clone(cs.kids)
	p.mu.Unlock()
	if depth != 2 || descendants != 1 || len(kids) != 1 || kids[0].ID != "g" {
		t.Fatalf("p holds c at depth %d, %d descendants, kids %v; want 2, 1 and g", depth, descendants, kids)
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has held still for
// 50 ms, so stragglers of earlier tests are not counted into a baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for held := 0; held < 5; {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, held = m, 0
		} else {
			held++
		}
	}
	return n
}

// waitGoroutines polls up to a second for runtime.NumGoroutine to reach want
// and fails with every goroutine's stack when it does not.
func waitGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != want {
		buf := make([]byte, 1<<20)
		t.Fatalf("%s: %d goroutines; want %d\n%s", when, got, want, buf[:runtime.Stack(buf, true)])
	}
}

// TestClusterStopLeavesNoGoroutines: a server at rest is one loop goroutine —
// its periodic rounds also probe for split brains and advance a recovery —
// and Kill and Stop take it down. Orphans whose recovery waits for their next
// round, an hour away, hold no goroutine either.
func TestClusterStopLeavesNoGoroutines(t *testing.T) {
	const servers = 16
	base := settledGoroutines()
	cl, err := StartCluster(transport.NewChan(), ClusterConfig{
		N: servers, Schema: record.DefaultSchema(2), MaxChildren: 4, Tick: time.Hour, // parked: at rest
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	waitGoroutines(t, base+servers, "16 servers at rest")
	cl.Servers[servers-1].Kill()
	waitGoroutines(t, base+servers-1, "after killing one server")

	// The root dies unnoticed, then an interior server leaves: its orphans
	// plan a recovery whose grandparent is dead.
	root := cl.Root()
	var interior *Server
	for _, srv := range cl.Servers[:servers-1] {
		if srv != root && srv.NumChildren() > 0 {
			interior = srv
			break
		}
	}
	if interior == nil {
		t.Fatal("no interior server below the root")
	}
	var orphans []*Server
	for _, srv := range cl.Servers[:servers-1] {
		if srv.ParentID() == interior.ID() {
			orphans = append(orphans, srv)
		}
	}
	root.Kill()
	interior.Stop()
	for _, o := range orphans {
		if o.ParentID() != "" || o.Membership().Elections != 0 {
			t.Fatalf("%s is not waiting to recover: parent %q", o.ID(), o.ParentID())
		}
	}
	waitGoroutines(t, base+servers-3, "with orphans waiting to recover")
	cl.Stop()
	waitGoroutines(t, base, "after Cluster.Stop")
}
