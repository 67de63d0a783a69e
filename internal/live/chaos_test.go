package live

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// leakCheck snapshots the goroutine count and registers a cleanup that
// polls until the count settles back near it. Register it BEFORE building
// a cluster: cleanups run LIFO, so it fires after the cluster's Stop.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(15 * time.Second)
		var n int
		for time.Now().Before(deadline) {
			n = runtime.NumGoroutine()
			if n <= base+3 {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d running after cleanup, started with %d", n, base)
	})
}

// startChaosCluster builds a running cluster over a Faulty-wrapped Chan
// transport at the default 25 ms tick, so injected failures both hit quickly
// and heal quickly. No owners are attached yet — chaos tests place records
// after they have inspected the tree shape.
func startChaosCluster(t *testing.T, n, maxChildren int, seed int64) (*Cluster, *transport.Faulty) {
	t.Helper()
	leakCheck(t)
	f := transport.NewFaulty(transport.NewChan(), seed)
	// Keep background loops from stalling on drop rules: their calls carry
	// no deadline, so a black hole holds them for the full MaxBlackhole.
	f.MaxBlackhole = 5 * time.Millisecond
	cl, err := StartCluster(f, ClusterConfig{
		N:           n,
		Schema:      record.DefaultSchema(2),
		MaxChildren: maxChildren,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl, f
}

// attachChaosOwners gives a running cluster's servers their records
// (chaosOwners) and waits for convergence.
func attachChaosOwners(t *testing.T, cl *Cluster, recsPer, skipIdx int) {
	t.Helper()
	if err := cl.WaitConverged(chaosOwners(t, cl, recsPer, skipIdx), convergeTimeout); err != nil {
		t.Fatal(err)
	}
}

// chaosOwners gives every server except skipIdx (use -1 for none) recsPer
// records and returns the total. All records match the query from
// matchAllQuery.
func chaosOwners(t *testing.T, cl *Cluster, recsPer, skipIdx int) uint64 {
	t.Helper()
	total := 0
	for i := range cl.Servers {
		if i == skipIdx {
			continue
		}
		o := policy.NewOwner(fmt.Sprintf("own%d", i), cl.Schema, nil)
		recs := make([]*record.Record, recsPer)
		for j := range recs {
			r := record.New(cl.Schema, fmt.Sprintf("r%d-%d", i, j), o.ID)
			r.SetNum(0, float64(j+1)/float64(recsPer+2))
			r.SetNum(1, 0.5)
			recs[j] = r
		}
		o.SetRecords(recs)
		if err := cl.AttachOwner(i, o); err != nil {
			t.Fatal(err)
		}
		total += recsPer
	}
	return uint64(total)
}

func matchAllQuery() *query.Query {
	return query.New("chaos-q", query.NewRange("a0", 0, 1))
}

// recordIDs turns a result set into a comparable set of owner/id keys.
func recordIDs(recs []*record.Record) map[string]bool {
	ids := make(map[string]bool, len(recs))
	for _, r := range recs {
		ids[r.Owner+"/"+r.ID] = true
	}
	return ids
}

// interiorNonRoot returns a server that has children but is not the root.
func interiorNonRoot(t *testing.T, cl *Cluster) (*Server, int) {
	t.Helper()
	for i, srv := range cl.Servers {
		if !srv.IsRoot() && srv.NumChildren() > 0 {
			return srv, i
		}
	}
	t.Fatal("no interior non-root server; tree too shallow for this test")
	return nil, -1
}

// TestChaosCrashedRedirectTargetFailsOver is the headline robustness
// scenario: an interior server crashes, a resolve started inside the
// child-prune window still redirects to it, and the client must route
// around the corpse via the redirect's alternates — ending with the exact
// record set a healthy cluster returns, since the victim held no records
// of its own.
func TestChaosCrashedRedirectTargetFailsOver(t *testing.T) {
	cl, _ := startChaosCluster(t, 7, 2, 71)
	victim, victimIdx := interiorNonRoot(t, cl)
	attachChaosOwners(t, cl, 5, victimIdx)
	root := cl.Root()
	if root == nil {
		t.Fatal("no root")
	}
	client := NewClient(cl.Tr, "t")
	q := matchAllQuery()

	baseline, bstats, err := client.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if bstats.Failed != 0 || bstats.FailedOver != 0 {
		t.Fatalf("healthy baseline saw failures: %+v", bstats)
	}
	if len(baseline) != 6*5 {
		t.Fatalf("baseline returned %d records; want 30", len(baseline))
	}

	// Crash the interior server. Its parent keeps redirecting to it for the
	// whole report-miss window, so an immediate resolve hits the corpse.
	victim.Kill()
	recs, stats, err := client.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatalf("resolve with crashed redirect target: %v (stats %+v)", err, stats)
	}
	if stats.FailedOver == 0 {
		t.Fatalf("client never failed over to alternates: %+v", stats)
	}
	if stats.Retried == 0 {
		t.Fatalf("dead contact was not retried before failover: %+v", stats)
	}
	if stats.Failed == 0 || len(stats.Errors) != stats.Failed {
		t.Fatalf("failed-contact accounting off: %+v", stats)
	}
	want, got := recordIDs(baseline), recordIDs(recs)
	for id := range want {
		if !got[id] {
			t.Fatalf("record %s lost after failover (got %d of %d)", id, len(got), len(want))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("failover returned %d records; baseline had %d", len(got), len(want))
	}
	// The alternates cover the victim's whole branch, so the coverage
	// estimate must not report the subtree as missing.
	if stats.Coverage < 0.99 {
		t.Fatalf("coverage %.3f after full failover; want ~1", stats.Coverage)
	}
}

// statesDigest reports whether p's ack to child's next report states the
// replica-set digest, which renews every replica the child holds via p.
func statesDigest(p *Server, child string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.children[child]
	if !ok {
		return false
	}
	_, ok = p.statedDigestLocked(c)
	return ok
}

// waitQuiet polls until every tree edge of cl states the digest on three
// polls a tick apart: no replica set is moving anywhere.
func waitQuiet(t *testing.T, cl *Cluster) {
	t.Helper()
	byID := map[string]*Server{}
	for _, s := range cl.Servers {
		byID[s.ID()] = s
	}
	quiet := func() bool {
		for _, s := range cl.Servers {
			if p := byID[s.ParentID()]; p != nil && !statesDigest(p, s.ID()) {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(convergeTimeout)
	for streak := 0; streak < 3; {
		if quiet() {
			streak++
		} else {
			streak = 0
		}
		if time.Now().After(deadline) {
			t.Fatal("the federation never went quiet: some replica set keeps moving")
		}
		time.Sleep(cl.tick)
	}
}

// TestChaosOneWayPartition drops parent→child traffic only: the child's
// reports still flow up and their acks come back, so the hierarchy holds.
// While nothing changes, the parent has nothing to send down: every ack
// states the digest of the child's replica set, the child keeps its replicas
// through twice replicaRounds of its rounds, and answers started there stay
// complete. A write at the parent then moves the set; the list that carries
// it is dropped, the acks stop stating a digest, and the replicas age out
// replicaRounds rounds after the last one that did. Queries
// from the root stay complete throughout — routing is client-driven and
// unaffected by the partitioned pair — and after the heal the replicas come
// back.
//
// The partition is cut at the child's actual parent. Joins run concurrently,
// so the first interior non-root server is sometimes a grandchild of the root;
// severing root→child then left its real feeder untouched and the test failed
// with "still holds 4 replicas" about once in thirty runs.
func TestChaosOneWayPartition(t *testing.T) {
	cl, f := startChaosCluster(t, 7, 2, 72)
	child, _ := interiorNonRoot(t, cl)
	attachChaosOwners(t, cl, 4, -1)
	root := cl.Root()
	if root == nil {
		t.Fatal("no root")
	}
	var parent *Server
	for _, srv := range cl.Servers {
		if srv.ID() == child.ParentID() {
			parent = srv
		}
	}
	if parent == nil {
		t.Fatalf("%s has no parent in the cluster", child.ID())
	}
	// Cut once every ack confirms its child's whole set: a list still in
	// flight at the cut would leave the set moved and nothing confirmed.
	waitQuiet(t, cl)
	held := child.NumReplicas()
	if held == 0 {
		t.Fatalf("%s holds no replicas before the partition", child.ID())
	}
	parentChildren := parent.NumChildren()
	client := NewClient(cl.Tr, "t")
	resolveAll := func(from *Server, want int) {
		t.Helper()
		recs, stats, err := client.Resolve(from.Addr(), matchAllQuery())
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != want {
			t.Fatalf("resolve from %s during the partition returned %d records; want %d (stats %+v)", from.ID(), len(recs), want, stats)
		}
	}

	f.SetRules(transport.Partition(parent.ID(), child.Addr()))

	// Nothing changes: the acks keep the replicas alive for twice as many
	// rounds as would age them out.
	for end := child.rounds.Load() + 2*replicaRounds; child.rounds.Load() < end; {
		if n := child.NumReplicas(); n != held {
			t.Fatalf("%s went from %d to %d replicas with nothing changed; the acks must confirm them:\n%s",
				child.ID(), held, n, replicaDump(child))
		}
		time.Sleep(10 * time.Millisecond)
	}
	resolveAll(child, 7*4)
	resolveAll(root, 7*4)

	// A write the parent cannot deliver: the replicas age out.
	o := ownerOf(parent)
	r := o.Records()[0].Clone()
	r.ID = "unseen-write"
	o.AddRecords(r)
	wrote := child.rounds.Load()
	deadline := time.Now().Add(30 * time.Second)
	for child.NumReplicas() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := child.NumReplicas(); n > 0 {
		t.Fatalf("%s still holds %d replicas long after a write %s could not deliver:\n%s",
			child.ID(), n, parent.ID(), replicaDump(child))
	}
	// The last ack that confirmed them came at most one of the child's rounds
	// after the write, before the parent's early round took it in, and the
	// prune replicaRounds+1 rounds after that removed them (one more round of
	// slack for the poll).
	if took := child.rounds.Load() - wrote; took > replicaRounds+3 {
		t.Errorf("the replicas aged out %d of the child's rounds after the write; want at most %d", took, replicaRounds+3)
	}
	if dropped, _, _ := f.Injected(); dropped == 0 {
		t.Fatal("partition rule never fired")
	}

	// One-way means the reverse direction kept the hierarchy alive.
	if pid := child.ParentID(); pid != parent.ID() {
		t.Fatalf("child reattached to %q; the partition should not break child→parent traffic", pid)
	}
	if n := parent.NumChildren(); n != parentChildren {
		t.Fatalf("%s went from %d to %d children; the child's reports should have kept it", parent.ID(), parentChildren, n)
	}
	resolveAll(root, 7*4+1)

	// Heal the partition: pushes resume and the replicas grow back.
	f.ClearRules()
	deadline = time.Now().Add(30 * time.Second)
	for child.NumReplicas() == 0 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if child.NumReplicas() == 0 {
		t.Fatal("replicas never recovered after the partition healed")
	}
}

// replicaDump lists what a server still replicates and who feeds it: its
// current parent, then each replica's origin, feeder, level and age in rounds
// — what a failed "replicas should have aged out" assertion needs beside the
// count.
func replicaDump(s *Server) string {
	now := s.rounds.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	lines := make([]string, 0, len(s.replicas))
	for id, r := range s.replicas {
		lines = append(lines, fmt.Sprintf("  replica %s via %q level %d ancestor=%v unrenewed for %d rounds",
			id, r.via, r.level, r.ancestor, now-r.renewed))
	}
	sort.Strings(lines)
	return fmt.Sprintf("  %s: parent %q, root path %v\n%s", s.cfg.ID, s.parentID, s.rootPath, strings.Join(lines, "\n"))
}

// TestChaosDelayedRepliesStraddleDeadline injects one delay bigger than
// the per-contact timeout and one smaller: the slow server times out (a
// counted, partial failure — not a resolve error), the merely-laggy one
// still contributes, and Coverage reports the hole.
func TestChaosDelayedRepliesStraddleDeadline(t *testing.T) {
	cl, f := startChaosCluster(t, 7, 2, 73)
	attachChaosOwners(t, cl, 4, -1)
	root := cl.Root()
	var leafSlow, leafLaggy *Server
	for _, srv := range cl.Servers {
		if srv.IsRoot() || srv.NumChildren() > 0 {
			continue
		}
		if leafSlow == nil {
			leafSlow = srv
		} else if leafLaggy == nil {
			leafLaggy = srv
		}
	}
	if leafSlow == nil || leafLaggy == nil {
		t.Fatal("need two leaves")
	}

	// Scope the rules to client queries so server maintenance traffic —
	// summary reports, replica pushes — keeps its timing.
	f.SetRules(
		transport.FaultRule{From: "t", To: leafSlow.Addr(), Kind: wire.KindQuery,
			Action: transport.FaultDelay, Delay: 2 * time.Second},
		transport.FaultRule{From: "t", To: leafLaggy.Addr(), Kind: wire.KindQuery,
			Action: transport.FaultDelay, Delay: 30 * time.Millisecond},
	)

	client := NewClient(cl.Tr, "t")
	client.Timeout = 300 * time.Millisecond
	client.Retries = 0 // the retry would just time out again
	recs, stats, err := client.Resolve(root.Addr(), matchAllQuery())
	if err != nil {
		t.Fatalf("partial answers must not be resolve errors: %v", err)
	}
	if stats.Failed != 1 {
		t.Fatalf("exactly the slow leaf should fail: %+v", stats)
	}
	got := recordIDs(recs)
	if len(recs) != 6*4 {
		t.Fatalf("got %d records; want 24 (all but the slow leaf's)", len(recs))
	}
	for id := range got {
		if leafSlowOwns(leafSlow, cl, id) {
			t.Fatalf("record %s from the timed-out leaf should be missing", id)
		}
	}
	if stats.Coverage >= 1 {
		t.Fatalf("coverage %.3f claims completeness despite a lost leaf", stats.Coverage)
	}
	if _, delayed, _ := f.Injected(); delayed < 2 {
		t.Fatalf("delay rules fired %d times; want both", delayed)
	}
}

// leafSlowOwns reports whether the record key belongs to the given
// server's owner (owners are named own<index>).
func leafSlowOwns(srv *Server, cl *Cluster, key string) bool {
	for i, s := range cl.Servers {
		if s == srv {
			prefix := fmt.Sprintf("own%d/", i)
			return len(key) > len(prefix) && key[:len(prefix)] == prefix
		}
	}
	return false
}

// TestChaosHungPeerBoundedByDeadline black-holes client queries to one
// leaf with a very long blackhole: only the caller's deadline can release
// the contact, so a prompt return proves cancellation reaches the
// transport.
func TestChaosHungPeerBoundedByDeadline(t *testing.T) {
	cl, f := startChaosCluster(t, 7, 2, 74)
	attachChaosOwners(t, cl, 3, -1)
	root := cl.Root()
	var leaf *Server
	for _, srv := range cl.Servers {
		if !srv.IsRoot() && srv.NumChildren() == 0 {
			leaf = srv
			break
		}
	}
	if leaf == nil {
		t.Fatal("no leaf")
	}
	// The blackhole far exceeds any test timeout; only ctx can end it.
	f.MaxBlackhole = 5 * time.Minute
	f.SetRules(transport.FaultRule{From: "t", To: leaf.Addr(), Kind: wire.KindQuery,
		Action: transport.FaultDrop})

	client := NewClient(cl.Tr, "t")
	client.Timeout = 250 * time.Millisecond
	client.Retries = 0
	start := time.Now()
	recs, stats, err := client.Resolve(root.Addr(), matchAllQuery())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("resolve took %v against a hung peer; the deadline never propagated", elapsed)
	}
	if stats.Failed != 1 {
		t.Fatalf("the hung leaf should be the one failure: %+v", stats)
	}
	if len(recs) != 6*3 {
		t.Fatalf("got %d records; want 18 (all but the hung leaf's)", len(recs))
	}
	// Clear before cleanup so shutdown traffic is not black-holed.
	f.ClearRules()
}

// TestChaosDeltaTTLKeepalive proves replica soft-state liveness rides on
// confirmations alone: there is no full-state round, so with zero churn no
// batch goes out after convergence and every report ack states the replica
// set's digest (the parent counts its entries as delta entries) — if that
// path failed to renew, every replica would age out within replicaRounds
// rounds and coverage would collapse. Stepped: every round of the window is
// checked, on every server.
func TestChaosDeltaTTLKeepalive(t *testing.T) {
	const total = 5 * 3
	tr := &countingTransport{Chan: transport.NewChan()}
	cl, err := NewCluster(tr, ClusterConfig{N: 5, Schema: record.DefaultSchema(2), MaxChildren: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	for i := range cl.Servers {
		attachDeltaOwner(t, cl.Servers[i], cl.Schema, 3)
	}
	settle(t, cl, total)

	var pushDelta0, suppressed0 uint64
	for _, srv := range cl.Servers {
		pushDelta0 += srv.mx.pushDelta.Load()
		suppressed0 += srv.mx.reportsSuppressed.Load()
	}
	tr.reset()
	for step := 0; step < 3*replicaRounds; step++ {
		cl.Step()
		for _, srv := range cl.Servers {
			if got := srv.CoveredRecords(); got != total {
				t.Fatalf("step %d: %s dropped to %d covered records; version-only refreshes must keep replicas alive", step, srv.ID(), got)
			}
		}
	}
	if summaries, lists, digests := tr.counts(); summaries != 0 || lists != 0 || digests != 3*replicaRounds*4 {
		t.Fatalf("the window sent %d summaries, %d lists and %d digests; want digests only, one per edge per step (%d)",
			summaries, lists, digests, 3*replicaRounds*4)
	}
	var pushDelta1, suppressed1 uint64
	for _, srv := range cl.Servers {
		pushDelta1 += srv.mx.pushDelta.Load()
		suppressed1 += srv.mx.reportsSuppressed.Load()
	}
	if pushDelta1 == pushDelta0 {
		t.Fatal("no version-only push entries moved during the window; the test exercised nothing")
	}
	if suppressed1 == suppressed0 {
		t.Fatal("no reports were suppressed during the window; the test exercised nothing")
	}
}

// TestChaosVersionMismatchRecovery corrupts a held replica's version on a
// live cluster and checks the NeedList / NeedFullOrigins path restores full
// state within a few ticks — the child folds what it holds against the
// digest on every report ack, so divergence is noticed on the next tick and
// heals by itself.
func TestChaosVersionMismatchRecovery(t *testing.T) {
	cl, _ := startChaosCluster(t, 5, 2, 76)
	attachChaosOwners(t, cl, 3, -1)
	const wrongVersion = 0xdeadbeef

	// Pick any non-root server and corrupt one of its replicas.
	var victim *Server
	for _, srv := range cl.Servers {
		if !srv.IsRoot() && srv.NumReplicas() > 0 {
			victim = srv
			break
		}
	}
	if victim == nil {
		t.Fatal("no non-root server holds replicas")
	}
	victim.mu.Lock()
	var origin string
	for id, r := range victim.replicas {
		if r.version != 0 {
			origin = id
			r.version = wrongVersion
			break
		}
	}
	victim.mu.Unlock()
	if origin == "" {
		t.Fatal("victim holds no versioned replica to corrupt")
	}

	deadline := time.Now().Add(convergeTimeout)
	for time.Now().Before(deadline) {
		if v, _, ok := replicaVersion(victim, origin); ok && v != wrongVersion {
			if err := cl.WaitConverged(5*3, convergeTimeout); err != nil {
				t.Fatal(err)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica %s on %s never recovered from the version mismatch", origin, victim.ID())
}

// TestQueryBudgetShedding drives the server-side half of the deadline
// hierarchy directly: a query arriving with an exhausted budget is shed to
// a coarse answer instead of burning owner-policy work, and the shed shows
// up in the server's status counters.
func TestQueryBudgetShedding(t *testing.T) {
	cl, _ := startChaosCluster(t, 3, 3, 75)
	attachChaosOwners(t, cl, 2, -1)
	srv := cl.Servers[0]

	q := matchAllQuery()
	dto := wire.FromQuery(q, true)
	dto.Budget = time.Nanosecond // exhausted on arrival
	rep, err := cl.Tr.Call(srv.Addr(), &wire.Message{Kind: wire.KindQuery, From: "t", Query: dto})
	if err != nil {
		t.Fatal(err)
	}
	if rerr := wire.RemoteError(rep); rerr != nil {
		t.Fatalf("over-budget query must be shed to a coarse answer, not an error: %v", rerr)
	}
	if qr := rep.QueryRep; qr == nil || !qr.Coarse || len(qr.Records) != 0 || len(qr.Redirects) != 0 {
		t.Fatalf("over-budget query answered %+v; want a coarse reply without records or redirects", qr)
	}
	client := NewClient(cl.Tr, "t")
	st, err := client.Status(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if st.QueriesShed == 0 {
		t.Fatal("status does not count the shed query")
	}

	// A sane budget sails through.
	dto2 := wire.FromQuery(q, true)
	dto2.Budget = 10 * time.Second
	rep, err = cl.Tr.Call(srv.Addr(), &wire.Message{Kind: wire.KindQuery, From: "t", Query: dto2})
	if err != nil {
		t.Fatal(err)
	}
	if rerr := wire.RemoteError(rep); rerr != nil {
		t.Fatalf("budgeted query rejected: %v", rerr)
	}
	if rep.QueryRep == nil || rep.QueryRep.Coarse {
		t.Fatalf("budgeted query answered %+v; want a full reply", rep.QueryRep)
	}
}

// TestLoopJitterDeterministic pins the ticker-jitter contract: the factor
// stays within ±10% and the sequence is a pure function of the server ID,
// so two runs of the same deployment phase identically.
func TestLoopJitterDeterministic(t *testing.T) {
	base := 100 * time.Millisecond
	r1, r2 := loopRng("srv007", 0xa99a), loopRng("srv007", 0xa99a)
	other := loopRng("srv008", 0xa99a)
	same, diff := true, false
	for i := 0; i < 64; i++ {
		a, b, c := jittered(base, r1), jittered(base, r2), jittered(base, other)
		if a != b {
			same = false
		}
		if a != c {
			diff = true
		}
		if a < 90*time.Millisecond || a >= 110*time.Millisecond {
			t.Fatalf("jittered(%v) = %v; want within ±10%%", base, a)
		}
	}
	if !same {
		t.Fatal("same ID produced different jitter sequences")
	}
	if !diff {
		t.Fatal("different IDs produced identical jitter sequences; desynchronization lost")
	}
}
