package live

import (
	"fmt"
	"testing"
	"time"

	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// --- helpers ---

// childEpochState snapshots the parent-side epoch record for one child.
func childEpochState(s *Server, id string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.children[id]; ok {
		return c.epoch
	}
	return 0
}

// parentEpochState snapshots the child-side epoch record.
func parentEpochState(s *Server) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parentEpoch
}

// rootPathOf snapshots a server's root path.
func rootPathOf(s *Server) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.rootPath...)
}

// aliveRoots returns the servers (skipping skipIdx) that currently claim
// the root role. A killed server's frozen state still reports IsRoot, so
// chaos tests that crash the root must pass its index.
func aliveRoots(cl *Cluster, skip map[int]bool) []*Server {
	var roots []*Server
	for i, srv := range cl.Servers {
		if skip[i] {
			continue
		}
		if srv.IsRoot() {
			roots = append(roots, srv)
		}
	}
	return roots
}

// sumMembership folds the membership counters across all live servers.
func sumMembership(cl *Cluster, skip map[int]bool) MembershipInfo {
	var sum MembershipInfo
	for i, srv := range cl.Servers {
		if skip[i] {
			continue
		}
		m := srv.Membership()
		sum.Fenced += m.Fenced
		sum.Elections += m.Elections
		sum.Merges += m.Merges
		sum.Probes += m.Probes
		sum.OrphanRetries += m.OrphanRetries
		sum.EpochRegressions += m.EpochRegressions
	}
	return sum
}

// subtreeOf returns the index set of rootIdx's subtree (itself included),
// computed from the live parent pointers.
func subtreeOf(cl *Cluster, rootIdx int) map[int]bool {
	id := make(map[string]int, len(cl.Servers))
	for i, srv := range cl.Servers {
		id[srv.ID()] = i
	}
	in := map[int]bool{rootIdx: true}
	// Parent pointers always lead to an earlier-attached server, but walk
	// repeatedly anyway so discovery order cannot matter.
	for changed := true; changed; {
		changed = false
		for i, srv := range cl.Servers {
			if in[i] {
				continue
			}
			if p, ok := id[srv.ParentID()]; ok && in[p] {
				in[i] = true
				changed = true
			}
		}
	}
	return in
}

// --- epoch stamping and fencing ---

// TestEpochStampedFromFirstMessage: there is no bootstrap. The join and its
// accept are already stamped, so both ends of a relationship record each
// other's epoch before any aggregation round runs; every relationship reply
// is stamped, whoever asked; and root probes are answered by any server.
func TestEpochStampedFromFirstMessage(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	p := deltaServerCfg(t, tr, "p", schema, nil)
	c1 := deltaServerCfg(t, tr, "c1", schema, nil)
	// Give the child a distinguishable epoch before it joins.
	c1.observeEpoch(7)
	if err := c1.Join(p.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := childEpochState(p, "c1"); got != 7 {
		t.Fatalf("parent recorded epoch %d for c1 from its join; want 7", got)
	}
	if got := p.Epoch(); got != 7 {
		t.Fatalf("parent's own epoch is %d after a join stamped 7; want 7 (epochs converge to the maximum)", got)
	}
	if got := parentEpochState(c1); got != 7 {
		t.Fatalf("child recorded epoch %d for its parent from the accept; want 7", got)
	}

	// Replies are stamped whether or not the request was: zero on a request
	// only means a client sent it.
	for _, reqEpoch := range []uint64{c1.Epoch(), 0} {
		rep := p.handle(&wire.Message{Kind: wire.KindSummaryReport, From: "c1", Addr: c1.Addr(), Epoch: reqEpoch,
			Report: &wire.SummaryReport{Depth: 1, Version: 1}})
		if wire.RemoteError(rep) != nil || rep.Epoch != p.Epoch() {
			t.Fatalf("ack of a report stamped %d: %+v; want it stamped %d", reqEpoch, rep, p.Epoch())
		}
	}

	// One round: report, batch and both acks are stamped too.
	driveRound(c1, p)
	if got := childEpochState(p, "c1"); got != c1.Epoch() {
		t.Fatalf("parent recorded epoch %d for c1 after a round; child is at %d", got, c1.Epoch())
	}

	probe := p.probeMessage()
	if probe.Epoch == 0 {
		t.Fatal("root probe left unstamped")
	}
	rep := c1.handle(probe)
	if wire.RemoteError(rep) != nil || rep.RootProbe == nil || rep.Epoch == 0 {
		t.Fatalf("server rejected a root probe or left the reply unstamped: %+v", rep)
	}
	if rep.RootProbe.RootID != "p" {
		t.Fatalf("c1 follows root %q; want p", rep.RootProbe.RootID)
	}
}

// TestAnonymousRelationshipMessagesChangeNothing: a relationship message
// without a sender is nobody's. A leave with an empty From at a root once
// matched the root's empty parent ID, planned a recovery, bumped the epoch
// and ran an election; a report with an empty From was adopted as a child
// "", and a join with an empty ID was accepted. Each is refused now (the
// leave is acknowledged and ignored), and none changes the tree.
func TestAnonymousRelationshipMessagesChangeNothing(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	p := deltaServer(t, tr, "p", schema)
	c := deltaServer(t, tr, "c", schema)
	if err := c.Join(p.Addr()); err != nil {
		t.Fatal(err)
	}
	driveRound(c, p)
	recovering := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.recovery != nil
	}
	check := func(what string) {
		t.Helper()
		if !p.IsRoot() || recovering() || p.Epoch() != 1 || p.mx.parentFailovers.Load() != 0 {
			t.Errorf("after %s: root %v, recovering %v, epoch %d, failovers %d; want a settled root at epoch 1",
				what, p.IsRoot(), recovering(), p.Epoch(), p.mx.parentFailovers.Load())
		}
		if got := p.NumChildren(); got != 1 {
			t.Errorf("after %s: %d children; want c alone", what, got)
		}
	}

	p.handle(&wire.Message{Kind: wire.KindLeave})
	check("a leave without a sender")
	p.round(false) // the round a planned recovery would run its election in
	check("a round after it")

	for _, from := range [][2]string{{"", ""}, {"x", ""}, {"", "addr-x"}} {
		what := fmt.Sprintf("a report from ID %q, address %q", from[0], from[1])
		rep := p.handle(&wire.Message{Kind: wire.KindSummaryReport, From: from[0], Addr: from[1],
			Report: &wire.SummaryReport{Depth: 1, Version: 1}})
		if wire.RemoteError(rep) == nil {
			t.Errorf("%s was acked", what)
		}
		check(what)
	}
	for _, j := range []wire.Join{{}, {ID: "x"}, {Addr: "addr-x"}} {
		what := fmt.Sprintf("a join of ID %q, address %q", j.ID, j.Addr)
		rep := p.handle(&wire.Message{Kind: wire.KindJoin, From: "x", Addr: "addr-x", Join: &j})
		if wire.RemoteError(rep) == nil {
			t.Errorf("%s was answered %+v", what, rep.JoinReply)
		}
		check(what)
	}

	local := c.snap.Load().localSummary
	batch := &wire.ReplicaBatch{Pushes: []*wire.ReplicaPush{{OriginID: "x", OriginAddr: "addr-x",
		Summary: wire.FromSummary(local), Level: 1, Version: local.Version}}}
	replicas := c.NumReplicas()
	for _, from := range [][2]string{{"", ""}, {"p", ""}, {"", p.Addr()}} {
		rep := c.handle(&wire.Message{Kind: wire.KindReplicaBatch, From: from[0], Addr: from[1], Batch: batch})
		if wire.RemoteError(rep) == nil {
			t.Errorf("a batch from ID %q, address %q was acked", from[0], from[1])
		}
	}
	if got := c.NumReplicas(); got != replicas {
		t.Errorf("c holds %d replicas after anonymous batches; want %d", got, replicas)
	}
}

// TestEpochFencesStaleMutations pins the fence on every parent-side
// relationship handler: once a child's recorded epoch advances, messages
// stamped from an older regime are rejected with an error and counted,
// without moving the recorded epoch — and without ever counting an epoch
// regression, which is the protocol invariant.
func TestEpochFencesStaleMutations(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	p := deltaServerCfg(t, tr, "p", schema, nil)
	c1 := deltaServerCfg(t, tr, "c1", schema, nil)
	if err := c1.Join(p.Addr()); err != nil {
		t.Fatal(err)
	}

	// Advance the recorded relationship epoch to 5 via a stamped report.
	report := func(epoch uint64) *wire.Message {
		return &wire.Message{Kind: wire.KindSummaryReport, From: "c1", Addr: c1.Addr(), Epoch: epoch,
			Report: &wire.SummaryReport{Depth: 1, Version: 1}}
	}
	rep := p.handle(report(5))
	if wire.RemoteError(rep) != nil {
		t.Fatalf("stamped report rejected: %v", wire.RemoteError(rep))
	}
	if epoch := childEpochState(p, "c1"); epoch != 5 {
		t.Fatalf("recorded epoch %d after stamp; want 5", epoch)
	}

	fencedBefore := p.mx.fenced.Load()
	stale := []*wire.Message{
		report(3),
		{Kind: wire.KindJoin, From: "c1", Addr: c1.Addr(), Epoch: 3,
			Join: &wire.Join{ID: "c1", Addr: c1.Addr()}},
	}
	for _, msg := range stale {
		if rep := p.handle(msg); wire.RemoteError(rep) == nil {
			t.Fatalf("stale kind-%d mutation (epoch 3 < 5) was not fenced", msg.Kind)
		}
	}
	if got := p.mx.fenced.Load() - fencedBefore; got != uint64(len(stale)) {
		t.Fatalf("fenced counter moved by %d; want %d", got, len(stale))
	}
	if epoch := childEpochState(p, "c1"); epoch != 5 {
		t.Fatalf("fenced traffic moved the recorded epoch to %d", epoch)
	}
	// Unstamped traffic (zero: not from a server) is never fenced.
	if rep := p.handle(report(0)); wire.RemoteError(rep) != nil {
		t.Fatalf("unstamped report fenced: %v", wire.RemoteError(rep))
	}
	// A current-epoch re-join passes the fence.
	if rep := p.handle(&wire.Message{Kind: wire.KindJoin, From: "c1", Addr: c1.Addr(), Epoch: 6,
		Join: &wire.Join{ID: "c1", Addr: c1.Addr()}}); wire.RemoteError(rep) != nil {
		t.Fatalf("current-epoch rejoin fenced: %v", wire.RemoteError(rep))
	}
	if p.mx.epochRegressions.Load() != 0 {
		t.Fatalf("epoch regressions = %d; the fences must catch staleness first", p.mx.epochRegressions.Load())
	}
}

// --- parent-miss accounting ---

// hijackTransport wraps a Transport and lets a test intercept Call: what the
// hijack returns stands in for the callee's answer, unless it returns nothing.
type hijackTransport struct {
	transport.Transport
	hijack func(addr string, req *wire.Message) (*wire.Message, error)
}

func (h *hijackTransport) Call(addr string, req *wire.Message) (*wire.Message, error) {
	if h.hijack != nil {
		if rep, err := h.hijack(addr, req); rep != nil || err != nil {
			return rep, err
		}
	}
	return h.Transport.Call(addr, req)
}

// TestParentDeclaredDeadAfterExactMisses pins the detection-time contract of
// the one failure detector: a parent is given up after exactly heartbeatMiss
// consecutive failed reports — not sooner, and one success in between resets
// the count.
func TestParentDeclaredDeadAfterExactMisses(t *testing.T) {
	schema := record.DefaultSchema(2)
	ch := transport.NewChan()
	hj := &hijackTransport{Transport: ch}
	p := deltaServerCfg(t, ch, "p", schema, nil)
	c := deltaServerCfg(t, hj, "c", schema, nil)
	if err := c.Join(p.Addr()); err != nil {
		t.Fatal(err)
	}
	const miss = heartbeatMiss
	unreachable := func(addr string, req *wire.Message) (*wire.Message, error) {
		return nil, fmt.Errorf("test: %s unreachable", addr)
	}

	// One short of the threshold, then a success, then one short again: had
	// the success not reset the count, the second run would cross it.
	for run := 0; run < 2; run++ {
		hj.hijack = unreachable
		for i := 0; i < miss-1; i++ {
			c.reportToParent()
		}
		if got := c.mx.parentFailovers.Load(); got != 0 {
			t.Fatalf("run %d: recovery triggered after %d failed reports; the threshold is %d", run, miss-1, miss)
		}
		if pid := c.ParentID(); pid != "p" {
			t.Fatalf("run %d: parent dropped to %q below the miss threshold", run, pid)
		}
		hj.hijack = nil
		c.reportToParent()
	}

	// The parent dies: detection happens at exactly the configured count.
	p.Kill()
	for i := 0; i < miss-1; i++ {
		c.reportToParent()
	}
	if got := c.mx.parentFailovers.Load(); got != 0 {
		t.Fatalf("recovery triggered %d failed reports into the outage; the threshold is %d", miss-1, miss)
	}
	c.reportToParent()
	if got := c.mx.parentFailovers.Load(); got != 1 {
		t.Fatalf("parent failovers = %d after %d consecutive failed reports; want 1", got, miss)
	}
	// The orphan has no ancestors and no siblings, so the first attempt of
	// its recovery, in its next periodic round, claims the root role.
	c.round(false)
	if !c.IsRoot() || c.Membership().Elections != 1 {
		t.Fatal("orphan with no ancestors or siblings did not claim the root role in its next round")
	}
	// A recovered (parentless) server has nobody to miss.
	c.reportToParent()
	if got := c.mx.parentFailovers.Load(); got != 1 {
		t.Fatalf("parentless server planned another failover (count %d)", got)
	}
}

// --- stale and fenced report acks ---

// TestReportAckFromReplacedParentDiscarded pins the two guards on the reply
// half of the merged exchange. When the parent changes while a report is in
// flight (a rejoin won the race), the old parent's ack describes the dead
// relationship and must not clobber the post-rejoin root path or delta state.
// And an ack stamped below the parent's recorded epoch — sent before the
// parent's last recovery — is fenced: counted, and nothing of it applied.
func TestReportAckFromReplacedParentDiscarded(t *testing.T) {
	schema := record.DefaultSchema(2)
	ch := transport.NewChan()
	hj := &hijackTransport{Transport: ch}
	p := deltaServerCfg(t, ch, "p", schema, nil)
	c := deltaServerCfg(t, hj, "c", schema, nil)
	if err := c.Join(p.Addr()); err != nil {
		t.Fatal(err)
	}

	staleAck := func(epoch uint64) *wire.Message {
		return &wire.Message{
			Kind: wire.KindAck, From: "p", Addr: p.Addr(), Epoch: epoch,
			Ack: &wire.AckInfo{HaveVersion: 0xbad, Ancestry: &wire.Ancestry{
				RootPath: []string{"stale-root"}, PathAddrs: []string{"addr-stale-root"}}},
		}
	}

	// While the report is in flight, a rejoin moves the parent: the ack
	// that then lands is from the replaced relationship.
	hj.hijack = func(addr string, req *wire.Message) (*wire.Message, error) {
		if req.Kind != wire.KindSummaryReport {
			return nil, nil
		}
		c.mu.Lock()
		c.parentID, c.parentAddr = "q", "addr-q"
		c.rootPath = []string{"q", "c"}
		c.rootPathAddrs = []string{"addr-q", c.Addr()}
		c.parentHaveVersion = 0
		c.publishSnapshotLocked()
		c.mu.Unlock()
		return staleAck(0), nil
	}
	c.reportToParent()
	if path := rootPathOf(c); len(path) != 2 || path[0] != "q" {
		t.Fatalf("stale report ack clobbered the post-rejoin root path: %v", path)
	}
	if pid := c.ParentID(); pid != "q" {
		t.Fatalf("parent rewritten to %q by a stale ack", pid)
	}
	if have, _ := parentDelta(c); have != 0 {
		t.Fatalf("stale ack told c its new parent holds version %#x", have)
	}

	// Back under p, whose recorded epoch is now 9: an ack stamped 4 is from
	// before p's last recovery.
	c.mu.Lock()
	c.parentID, c.parentAddr = "p", p.Addr()
	c.parentEpoch = 9
	c.publishSnapshotLocked()
	c.mu.Unlock()
	hj.hijack = func(addr string, req *wire.Message) (*wire.Message, error) {
		if req.Kind != wire.KindSummaryReport {
			return nil, nil
		}
		return staleAck(4), nil
	}
	fenced := c.mx.fenced.Load()
	c.reportToParent()
	if got := c.mx.fenced.Load() - fenced; got != 1 {
		t.Fatalf("an ack stamped 4 under a recorded parent epoch of 9 moved the fenced counter by %d; want 1", got)
	}
	if path := rootPathOf(c); len(path) != 2 || path[0] != "q" {
		t.Fatalf("fenced ack rewrote the root path: %v", path)
	}
	if have, _ := parentDelta(c); have != 0 {
		t.Fatalf("fenced ack told c its parent holds version %#x", have)
	}
	if got := parentEpochState(c); got != 9 {
		t.Fatalf("fenced ack moved the recorded parent epoch to %d", got)
	}
	if c.mx.epochRegressions.Load() != 0 {
		t.Fatal("the fence let an epoch regression through")
	}

	// Control: the identical ack at a current epoch applies — proving the
	// guards (not some other rejection) discarded it above.
	hj.hijack = func(addr string, req *wire.Message) (*wire.Message, error) {
		if req.Kind != wire.KindSummaryReport {
			return nil, nil
		}
		return staleAck(9), nil
	}
	c.reportToParent()
	if path := rootPathOf(c); len(path) != 2 || path[0] != "stale-root" {
		t.Fatalf("control ack did not apply: %v", path)
	}
	if have, _ := parentDelta(c); have != 0xbad {
		t.Fatalf("control ack left the confirmed version at %#x", have)
	}
}

// --- chaos: split-brain, elections, merges ---

// startMembershipCluster is startChaosCluster stepped (NewCluster: no loop
// runs, the test drives every round) plus a config mutator, for chaos
// scenarios that need merge seeds or other membership knobs.
func startMembershipCluster(t *testing.T, n, maxChildren int, seed int64, mut func(*ClusterConfig)) (*Cluster, *transport.Faulty) {
	t.Helper()
	leakCheck(t)
	f := transport.NewFaulty(transport.NewChan(), seed)
	// A dropped call holds the stepping goroutine for MaxBlackhole.
	f.MaxBlackhole = 5 * time.Millisecond
	cfg := ClusterConfig{
		N:           n,
		Schema:      record.DefaultSchema(2),
		MaxChildren: maxChildren,
	}
	if mut != nil {
		mut(&cfg)
	}
	cl, err := NewCluster(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl, f
}

// awaitSteps bounds the step-until helpers, about three times the slowest
// wait they serve: one side of a partition forgets the other within two
// soft-state windows (a silent child, then the replicas of its branch, each
// replicaRounds steps), and a merge takes a few probe rounds, mergeProbeTicks
// steps apart.
const awaitSteps = 100

// awaitRootCount steps cl until exactly want servers (outside skip) claim the
// root role, and fails after awaitSteps steps.
func awaitRootCount(t *testing.T, cl *Cluster, skip map[int]bool, want int, what string) []*Server {
	t.Helper()
	roots := aliveRoots(cl, skip)
	for step := 1; len(roots) != want; step++ {
		if step > awaitSteps {
			ids := make([]string, len(roots))
			for i, r := range roots {
				ids[i] = r.ID()
			}
			t.Fatalf("%s: %d roots %v after %d steps, want %d", what, len(roots), ids, awaitSteps, want)
		}
		cl.Step()
		roots = aliveRoots(cl, skip)
	}
	return roots
}

// awaitCoverage steps cl until every server outside skip covers exactly total
// records, and fails after awaitSteps steps.
func awaitCoverage(t *testing.T, cl *Cluster, skip map[int]bool, total uint64, what string) {
	t.Helper()
	short := func() *Server {
		for i, srv := range cl.Servers {
			if !skip[i] && srv.CoveredRecords() != total {
				return srv
			}
		}
		return nil
	}
	for step := 1; short() != nil; step++ {
		if step > awaitSteps {
			srv := short()
			t.Fatalf("%s: %s covers %d of %d records after %d steps", what, srv.ID(), srv.CoveredRecords(), total, awaitSteps)
		}
		cl.Step()
	}
}

// TestSteppedSplitBrainMerges: two stepped federations on one Chan, one whose
// servers have the other's root as a merge seed, become one by stepping alone
// — no loop, no sleep. The probe goes out in the mergeProbeTicks-th round and
// the merge it decides runs in the next probe round, so one root remains
// after at most 2*mergeProbeTicks steps, and the next Settle covers every
// record of both everywhere.
func TestSteppedSplitBrainMerges(t *testing.T) {
	const perFed, recs = 5, 3
	tr := transport.NewChan()
	schema := record.DefaultSchema(2)
	a, err := NewCluster(tr, ClusterConfig{N: perFed, Schema: schema, MaxChildren: 2, MergeSeeds: []string{"addr-b0"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	bs := make([]*Server, perFed)
	for i := range bs {
		bs[i] = deltaServerCfg(t, tr, fmt.Sprintf("b%d", i), schema, func(c *Config) { c.MaxChildren = 2 })
		if i > 0 {
			if err := bs[i].Join(bs[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	both := &Cluster{Servers: append(append([]*Server(nil), a.Servers...), bs...), Tr: tr, Schema: schema}
	for _, srv := range both.Servers {
		attachDeltaOwner(t, srv, schema, recs)
	}

	steps := 0
	for len(aliveRoots(both, nil)) > 1 {
		if steps == 2*mergeProbeTicks {
			t.Fatalf("still %d roots after %d steps", len(aliveRoots(both, nil)), steps)
		}
		both.Step()
		steps++
	}
	t.Logf("one root after %d steps", steps)
	if got := both.Root(); got != bs[0] {
		t.Fatalf("the federations merged under %s; want b0, whose ID wins the same-epoch tie", got.ID())
	}
	settle(t, both, 2*perFed*recs)
	if sum := sumMembership(both, nil); sum.Merges != 1 || sum.EpochRegressions != 0 {
		t.Fatalf("membership after the merge: %+v; want one merge and no epoch regression", sum)
	}
}

// TestChaosPartitionHealMerge is the full split-brain lifecycle on a stepped
// cluster: a root child's subtree is severed by a network partition, the
// severed side elects its own root under a bumped epoch, and after the
// heal the split-brain probes discover the twin root and fold the trees
// back into exactly one — with full coverage restored and zero epoch
// regressions anywhere. The small row heals the moment the split shows, while
// the old root still lists the severed head as its child; the large row holds
// each partition until both sides have written the other off, and repeats the
// cycle on whatever tree the first merge left.
func TestChaosPartitionHealMerge(t *testing.T) {
	const recsPer = 2
	for _, tc := range []struct {
		name              string
		n, fanOut, cycles int
		hold              bool
		seed              int64
	}{
		{"13 servers, 1 cycle", 13, 3, 1, false, 81},
		{"120 servers, 2 cycles", 120, 4, 2, true, 83},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mut func(*ClusterConfig)
			if tc.n >= 100 {
				if testing.Short() {
					t.Skip("scale partition test skipped in -short mode")
				}
				// A complete fan-out tree, four levels deep at 120 servers.
				mut = func(cfg *ClusterConfig) { cfg.JoinVia = func(i int) int { return (i - 1) / tc.fanOut } }
			}
			cl, f := startMembershipCluster(t, tc.n, tc.fanOut, tc.seed, mut)
			settle(t, cl, chaosOwners(t, cl, recsPer, -1))
			var merges uint64
			for cycle := 1; cycle <= tc.cycles; cycle++ {
				root := cl.Root()
				if root == nil {
					t.Fatal("no root")
				}

				// Sever the smallest-ID root child's subtree: as the election
				// winner among its ex-siblings (none smaller), it claims the
				// root role the moment it detects the loss — the fastest
				// possible split.
				var victim *Server
				var victimIdx int
				for i, srv := range cl.Servers {
					if srv.ParentID() == root.ID() && (victim == nil || srv.ID() < victim.ID()) {
						victim, victimIdx = srv, i
					}
				}
				if victim == nil {
					t.Fatal("root has no children")
				}
				severed := subtreeOf(cl, victimIdx)
				if len(severed) == tc.n {
					t.Fatal("victim subtree is the whole cluster")
				}
				kept := make(map[int]bool, tc.n)
				var sideA, sideB []string
				for i, srv := range cl.Servers {
					if severed[i] {
						sideA = append(sideA, srv.ID())
					} else {
						kept[i] = true
						sideB = append(sideB, srv.ID())
					}
				}
				epochBefore := victim.Epoch()
				droppedBefore, _, _ := f.Injected()
				f.SetRules(transport.PartitionSets(sideA, sideB)...)

				// Split-brain: the severed side elects its own root.
				awaitRootCount(t, cl, nil, 2, fmt.Sprintf("during partition %d", cycle))
				if !victim.IsRoot() {
					t.Fatalf("partition %d: the severed subtree's head %s did not claim the root role", cycle, victim.ID())
				}
				if got := victim.Epoch(); got <= epochBefore {
					t.Fatalf("election did not bump the epoch: %d -> %d", epochBefore, got)
				}
				if dropped, _, _ := f.Injected(); dropped == droppedBefore {
					t.Fatal("partition rules never fired")
				}
				if tc.hold {
					// Until each side serves exactly its own records: the old
					// root has given the severed head up and every replica of
					// the other side has aged out, so the merge re-attaches a
					// subtree that was written off, not one nobody had missed.
					awaitCoverage(t, cl, severed, uint64(len(sideB)*recsPer), fmt.Sprintf("main side, partition %d", cycle))
					awaitCoverage(t, cl, kept, uint64(len(sideA)*recsPer), fmt.Sprintf("severed side, partition %d", cycle))
				}

				// Heal: the twin roots must discover each other (the severed
				// root remembers its pre-partition ancestry) and merge to
				// exactly one.
				f.ClearRules()
				awaitRootCount(t, cl, nil, 1, fmt.Sprintf("after heal %d", cycle))
				awaitCoverage(t, cl, nil, uint64(tc.n*recsPer), fmt.Sprintf("after merge %d", cycle))
				sum := sumMembership(cl, nil)
				if sum.Merges <= merges {
					t.Fatalf("heal %d reunified the trees without a recorded merge", cycle)
				}
				merges = sum.Merges
				if sum.Elections == 0 {
					t.Fatal("split happened without a recorded election")
				}
				if sum.EpochRegressions != 0 {
					t.Fatalf("epoch fencing invariant violated after heal %d: %d regressions", cycle, sum.EpochRegressions)
				}
			}
		})
	}
}

// TestChaosElectionWinnerUnreachable kills the root while the election
// winner (the smallest-ID ex-sibling) is unreachable: the reachable
// orphans must not dangle on the dead winner — they claim or re-form
// elsewhere — and once the winner is reachable again the split-brain
// protocol converges everything onto one root. The winner's children lose
// it to the outage too, and the outage lasts until they have written it off
// and elected among themselves: whether that happens before the heal decides
// the root. Every claimant recovered once and holds the same epoch, so the
// root is the claimant with the smallest ID (smallest ID wins every
// same-epoch merge decision): the winner, or the winner's smallest child when
// concurrent joins put a smaller ID there.
func TestChaosElectionWinnerUnreachable(t *testing.T) {
	const n, recsPer = 10, 2
	cl, f := startMembershipCluster(t, n, 3, 82, nil)
	root := cl.Root()
	if root == nil {
		t.Fatal("no root")
	}
	rootIdx := -1
	var winner *Server
	for i, srv := range cl.Servers {
		if srv == root {
			rootIdx = i
			continue
		}
		if srv.ParentID() == root.ID() && (winner == nil || srv.ID() < winner.ID()) {
			winner = srv
		}
	}
	if winner == nil {
		t.Fatal("root has no children")
	}
	want := winner
	var winnerKids []*Server
	for _, srv := range cl.Servers {
		if srv.ParentID() == winner.ID() {
			winnerKids = append(winnerKids, srv)
			if srv.ID() < want.ID() {
				want = srv
			}
		}
	}
	// wroteOff reports whether every child of the winner has given it up and
	// finished its recovery.
	wroteOff := func() bool {
		for _, srv := range winnerKids {
			srv.mu.Lock()
			done := srv.parentID != winner.ID() && srv.recovery == nil
			srv.mu.Unlock()
			if !done {
				return false
			}
		}
		return true
	}
	settle(t, cl, chaosOwners(t, cl, recsPer, rootIdx))
	skip := map[int]bool{rootIdx: true}

	// The winner goes dark first, then the root dies: every orphan's
	// first-choice election target is unreachable.
	f.SetRules(transport.Down(winner.Addr()))
	root.Kill()

	// The reachable survivors must converge on some root of their own
	// rather than dangle (the winner, cut off, roots itself too): by the step
	// at which a recovery claims the root at the latest.
	for step := 1; step <= claimStep && (len(aliveRoots(cl, skip)) < 2 || !wroteOff()); step++ {
		cl.Step()
	}
	if roots := aliveRoots(cl, skip); len(roots) < 2 || !wroteOff() {
		t.Fatalf("survivors never rooted around the unreachable winner in %d steps: roots %d, its children done: %v",
			claimStep, len(roots), wroteOff())
	}

	// Reconnect the winner: everything merges onto the smallest claimant —
	// same epochs tie.
	f.ClearRules()
	roots := awaitRootCount(t, cl, skip, 1, "after winner reachable")
	if roots[0] != want {
		t.Fatalf("federation converged on %s; want %s, the smallest ID of the election winner %s and its children",
			roots[0].ID(), want.ID(), winner.ID())
	}
	awaitCoverage(t, cl, skip, uint64((n-1)*recsPer), "after winner reachable")
	if sum := sumMembership(cl, skip); sum.EpochRegressions != 0 {
		t.Fatalf("epoch fencing invariant violated: %d regressions", sum.EpochRegressions)
	}
}

// TestChaosRootAndGrandparentDie crashes the root and one of its interior
// children at the same instant: the dead child's orphans lose their whole
// surviving ancestry (parent and grandparent at once) and must re-form
// via election, then rediscover the main tree through the configured
// merge seeds. Everything alive must end under exactly one root with full
// coverage of the surviving records.
func TestChaosRootAndGrandparentDie(t *testing.T) {
	const n, recsPer = 13, 2
	// Seed the split-brain probes with the whole address set — the
	// deployment-config stance of "every server is a well-known address" —
	// so surviving fragments can rediscover each other no matter which
	// two servers the crashes take out (dead seeds just fail to answer).
	seeds := make([]string, n)
	for i := range seeds {
		seeds[i] = fmt.Sprintf("srv%03d", i)
	}
	cl, _ := startMembershipCluster(t, n, 3, 83, func(cfg *ClusterConfig) {
		cfg.MergeSeeds = seeds
	})
	root := cl.Root()
	if root == nil {
		t.Fatal("no root")
	}
	rootIdx := -1
	for i, srv := range cl.Servers {
		if srv == root {
			rootIdx = i
		}
	}
	// The second victim: an interior root child, so its children lose
	// parent and grandparent simultaneously.
	var mid *Server
	midIdx := -1
	for i, srv := range cl.Servers {
		if srv.ParentID() == root.ID() && srv.NumChildren() > 0 {
			mid, midIdx = srv, i
			break
		}
	}
	if mid == nil {
		t.Fatal("no interior root child; tree too shallow")
	}
	settle(t, cl, chaosOwners(t, cl, recsPer, -1))
	skip := map[int]bool{rootIdx: true, midIdx: true}

	root.Kill()
	mid.Kill()

	awaitRootCount(t, cl, skip, 1, "after double crash")
	awaitCoverage(t, cl, skip, uint64((n-2)*recsPer), "after double crash")
	sum := sumMembership(cl, skip)
	if sum.Elections == 0 {
		t.Fatal("double crash recovered without any election")
	}
	if sum.EpochRegressions != 0 {
		t.Fatalf("epoch fencing invariant violated: %d regressions", sum.EpochRegressions)
	}
	for i, srv := range cl.Servers {
		if skip[i] || srv.IsRoot() {
			continue
		}
		if srv.ParentID() == root.ID() || srv.ParentID() == mid.ID() {
			t.Fatalf("%s still attached to dead parent %s", srv.ID(), srv.ParentID())
		}
	}
}
