package live

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/transport"
	"roads/internal/workload"
)

// holdsOf reports whether srv still lists id as a child or holds a replica
// of it.
func holdsOf(srv *Server, id string) (child, replica bool) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	_, child = srv.children[id]
	_, replica = srv.replicas[id]
	return child, replica
}

// forgotten reports whether every server of cl but victim has let go of it.
func forgotten(cl *Cluster, victim *Server) bool {
	for _, srv := range cl.Servers {
		if child, replica := holdsOf(srv, victim.ID()); srv != victim && (child || replica) {
			return false
		}
	}
	return true
}

// treeDepth is the length of the longest root path in cl.
func treeDepth(cl *Cluster) int {
	depth := 0
	for _, srv := range cl.Servers {
		depth = max(depth, len(srv.RootPath()))
	}
	return depth
}

// forgetBound is how many steps a stepped federation of the given depth takes
// at most to forget a crashed leaf: heartbeatMiss for its parent to drop it,
// one per level for the lists that stop stating it to reach every holder,
// and replicaRounds after its last renewal for each holder to age it out.
func forgetBound(depth int) int { return heartbeatMiss + depth + replicaRounds }

// TestCrashedLeafExpiresFromOverlay kills a leaf abruptly (no Leave) and
// verifies the soft-state machinery cleans up by stepping alone: the parent
// prunes the dead child, replicas of the dead branch age out everywhere
// within forgetBound steps, and queries over the surviving data stay
// complete.
func TestCrashedLeafExpiresFromOverlay(t *testing.T) {
	cl, w := startWorkloadCluster(t, 6, 10, 50)
	var victim *Server
	var victimIdx int
	for i, srv := range cl.Servers {
		if !srv.IsRoot() && srv.NumChildren() == 0 {
			victim, victimIdx = srv, i
			break
		}
	}
	if victim == nil {
		t.Skip("no leaf")
	}
	victim.Kill() // crash: no Leave messages
	bound := forgetBound(treeDepth(cl))
	for step := 0; step < bound && !forgotten(cl, victim); step++ {
		cl.Step()
	}
	for _, srv := range cl.Servers {
		if srv == victim {
			continue
		}
		child, replica := holdsOf(srv, victim.ID())
		if child {
			t.Fatalf("%s still lists crashed %s as a child after %d steps", srv.ID(), victim.ID(), bound)
		}
		if replica {
			t.Fatalf("%s still holds a replica of crashed %s after %d steps", srv.ID(), victim.ID(), bound)
		}
	}

	// Surviving data remains fully queryable.
	q := query.New("q", query.NewRange("a0", 0, 1))
	if err := q.Bind(w.Schema); err != nil {
		t.Fatal(err)
	}
	client := NewClient(cl.Tr, "t")
	root := cl.Root()
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
		t.Fatalf("after crash got %d records; want >= %d", len(recs), want)
	}
}

// TestSteppedCrashIsCountedInRounds: on a stepped federation a crashed leaf
// is detected and forgotten by stepping alone, with no loop and no clock. Its
// parent drops it after exactly heartbeatMiss steps — the count a child uses
// for its parent — every holder forgets its replica within forgetBound steps,
// and two builds of one seed forget it at the same step on every server.
func TestSteppedCrashIsCountedInRounds(t *testing.T) {
	const servers, fanOut = 21, 4
	run := func() (dropped int, forgot map[string]int) {
		w := workload.MustGenerate(workload.Config{Nodes: servers, RecordsPerNode: 5, AttrsPerDist: 2},
			rand.New(rand.NewSource(53)))
		cl, err := NewCluster(transport.NewChan(), ClusterConfig{N: servers, Schema: w.Schema, MaxChildren: fanOut,
			JoinVia: func(i int) int { return (i - 1) / fanOut }})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		for i := range cl.Servers {
			o := policy.NewOwner(fmt.Sprintf("owner%d", i), w.Schema, nil)
			o.SetRecords(w.PerNode[i])
			if err := cl.AttachOwner(i, o); err != nil {
				t.Fatal(err)
			}
		}
		settle(t, cl, servers*5)

		victim := cl.Servers[servers-1] // a leaf: the last server joins at the bottom level
		parent := cl.Servers[(servers-2)/fanOut]
		if victim.NumChildren() != 0 || victim.ParentID() != parent.ID() {
			t.Fatalf("%s is not a leaf under %s", victim.ID(), parent.ID())
		}
		holders := map[string]*Server{}
		for _, srv := range cl.Servers {
			if _, replica := holdsOf(srv, victim.ID()); replica {
				holders[srv.ID()] = srv
			}
		}
		if len(holders) == 0 {
			t.Fatalf("nobody holds a replica of %s before the crash", victim.ID())
		}
		victim.Kill()

		bound := forgetBound(treeDepth(cl))
		forgot = map[string]int{}
		for step := 1; step <= bound && len(forgot) < len(holders); step++ {
			cl.Step()
			if child, _ := holdsOf(parent, victim.ID()); !child && dropped == 0 {
				dropped = step
			}
			for id, srv := range holders {
				if _, ok := forgot[id]; ok {
					continue
				}
				if _, replica := holdsOf(srv, victim.ID()); !replica {
					forgot[id] = step
				}
			}
		}
		if dropped != heartbeatMiss {
			t.Errorf("%s dropped its crashed child after %d steps; want exactly heartbeatMiss = %d", parent.ID(), dropped, heartbeatMiss)
		}
		for _, srv := range cl.Servers {
			want := uint64(0)
			if srv == parent {
				want = 1
			}
			if got := srv.mx.childrenPruned.Load(); got != want {
				t.Errorf("%s reads roads_children_pruned_total = %d after the crash; want %d", srv.ID(), got, want)
			}
		}
		t.Logf("%s dropped after %d steps; holders forgot at steps %v (bound %d)", parent.ID(), dropped, forgot, bound)
		for id := range holders {
			if _, ok := forgot[id]; !ok {
				t.Errorf("%s still holds a replica of crashed %s after %d steps", id, victim.ID(), bound)
			}
		}
		return dropped, forgot
	}
	dropped1, forgot1 := run()
	dropped2, forgot2 := run()
	if dropped1 != dropped2 || !maps.Equal(forgot1, forgot2) {
		t.Errorf("two builds of one seed forgot the crash at different steps: drop %d vs %d, holders %v vs %v",
			dropped1, dropped2, forgot1, forgot2)
	}
}

// TestKillIdempotent ensures Kill is safe to call twice and on stopped
// servers.
func TestKillIdempotent(t *testing.T) {
	cl, _ := startWorkloadCluster(t, 3, 5, 51)
	srv := cl.Servers[2]
	srv.Kill()
	srv.Kill()
	srv.Stop() // stop after kill must also be safe
}

// TestRootCrashElection kills the root abruptly: its children must detect
// the death via missed reports and elect the smallest-ID child as the
// new root (paper §III-A), with everyone else reattaching under it. On a
// stepped federation the winner claims at exactly step heartbeatMiss, in the
// round whose report found the parent dead for the heartbeatMiss-th time, and
// everyone is attached one step later at the latest.
func TestRootCrashElection(t *testing.T) {
	cl, w := startWorkloadCluster(t, 7, 8, 52)
	oldRoot := cl.Root()
	if oldRoot == nil {
		t.Fatal("no root")
	}
	// The expected winner is the smallest-ID child of the root.
	var winner *Server
	for _, srv := range cl.Servers {
		if srv.ParentID() == oldRoot.ID() && (winner == nil || srv.ID() < winner.ID()) {
			winner = srv
		}
	}
	if winner == nil {
		t.Skip("root has no children")
	}
	wantWinner := winner.ID()
	oldRoot.Kill()

	survivors := func() (roots []string, attached int) {
		for _, srv := range cl.Servers {
			switch {
			case srv == oldRoot:
			case srv.IsRoot():
				roots = append(roots, srv.ID())
			default:
				attached++
			}
		}
		return roots, attached
	}
	for step := 1; step <= heartbeatMiss; step++ {
		cl.Step()
		roots, _ := survivors()
		if step < heartbeatMiss && len(roots) != 0 {
			t.Fatalf("step %d: %v claim the root role before the crash can be detected", step, roots)
		}
		if step == heartbeatMiss && (len(roots) != 1 || roots[0] != wantWinner) {
			t.Fatalf("step %d = heartbeatMiss: roots %v; want only %s", step, roots, wantWinner)
		}
	}
	if _, attached := survivors(); attached != len(cl.Servers)-2 {
		cl.Step()
	}
	if roots, attached := survivors(); len(roots) != 1 || roots[0] != wantWinner || attached != len(cl.Servers)-2 {
		for _, srv := range cl.Servers {
			t.Logf("state: %s isroot=%v parent=%q", srv.ID(), srv.IsRoot(), srv.ParentID())
		}
		t.Fatalf("step %d: roots %v and %d attached; want %s alone and %d attached",
			heartbeatMiss+1, roots, attached, wantWinner, len(cl.Servers)-2)
	}

	// Queries resolve over the survivors once the tree has re-covered them.
	client := NewClient(cl.Tr, "t")
	q := query.New("q", query.NewRange("a0", 0, 1))
	if err := q.Bind(w.Schema); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i, recs := range w.PerNode {
		if cl.Servers[i] == oldRoot {
			continue
		}
		for _, r := range recs {
			if q.MatchRecord(r) {
				want++
			}
		}
	}
	for step := 0; ; step++ {
		recs, _, err := client.Resolve(winner.Addr(), q.Clone())
		if err == nil && len(recs) >= want {
			return
		}
		if step == settleSteps {
			t.Fatalf("queries incomplete %d steps after the root election: %d of %d records, err %v", step, len(recs), want, err)
		}
		cl.Step()
	}
}

// claimStep is the step at which a recovery on a stepped federation claims
// the root role at the latest: heartbeatMiss steps detect the dead parent and
// make the first attempt, and the failed attempts wait 1, 2, 3 and 4 rounds
// before the attempt at recoveryClaimRounds claims.
const claimStep = heartbeatMiss + 1 + 2 + 3 + 4

// TestSteppedRecoveryIsCountedInRounds: a recovery advances one attempt per
// periodic round, so a stepped federation rejoins, elects and claims at
// steps that follow from the round counts alone. In the tree 0←1,2; 1←3,4;
// 2←5,6 with 0 and 1 crashed, every orphan drops its parent at step
// heartbeatMiss. The orphans of the dead interior server 1 retry their dead
// grandparent for recoveryEscalateRounds attempts (steps heartbeatMiss and
// heartbeatMiss+1), then elect at heartbeatMiss+1+2: 3 claims and 4 joins
// it. The root's orphan 2, whose only smaller sibling is dead, claims at
// claimStep. Two builds of one seed give the same steps.
func TestSteppedRecoveryIsCountedInRounds(t *testing.T) {
	const servers = 7
	type outcome struct {
		dropped, elected map[string]int // step each orphan lost its parent, claimed the root or joined a sibling
		retries          map[string]uint64
	}
	run := func() outcome {
		w := workload.MustGenerate(workload.Config{Nodes: servers, RecordsPerNode: 3, AttrsPerDist: 2},
			rand.New(rand.NewSource(57)))
		cl, err := NewCluster(transport.NewChan(), ClusterConfig{N: servers, Schema: w.Schema, MaxChildren: 2,
			JoinVia: func(i int) int { return (i - 1) / 2 }})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		for i := range cl.Servers {
			o := policy.NewOwner(fmt.Sprintf("owner%d", i), w.Schema, nil)
			o.SetRecords(w.PerNode[i])
			if err := cl.AttachOwner(i, o); err != nil {
				t.Fatal(err)
			}
		}
		settle(t, cl, servers*3)
		srv := cl.Servers
		srv[0].Kill()
		srv[1].Kill()

		orphans := []*Server{srv[2], srv[3], srv[4]}
		out := outcome{dropped: map[string]int{}, elected: map[string]int{}, retries: map[string]uint64{}}
		recovered := map[string]func() bool{
			"srv002": func() bool { return srv[2].Membership().Elections == 1 },
			"srv003": func() bool { return srv[3].Membership().Elections == 1 },
			"srv004": func() bool { return srv[4].ParentID() == "srv003" },
		}
		for step := 1; step <= claimStep+1; step++ {
			cl.Step()
			for _, o := range orphans {
				if _, ok := out.dropped[o.ID()]; !ok && o.ParentID() == "" {
					out.dropped[o.ID()] = step
				}
				if _, ok := out.elected[o.ID()]; !ok && recovered[o.ID()]() {
					out.elected[o.ID()] = step
				}
			}
		}
		for _, o := range orphans {
			out.retries[o.ID()] = o.Membership().OrphanRetries
		}
		for _, kept := range []*Server{srv[5], srv[6]} {
			if kept.ParentID() != "srv002" || kept.Membership().OrphanRetries != 0 {
				t.Errorf("%s under %q with %d retries; its parent srv002 never died", kept.ID(), kept.ParentID(), kept.Membership().OrphanRetries)
			}
		}
		return out
	}
	first := run()
	t.Logf("dropped %v, elected %v, retries %v", first.dropped, first.elected, first.retries)
	for _, id := range []string{"srv002", "srv003", "srv004"} {
		if first.dropped[id] != heartbeatMiss {
			t.Errorf("%s dropped its dead parent at step %d; want heartbeatMiss = %d", id, first.dropped[id], heartbeatMiss)
		}
	}
	wantElected := map[string]int{"srv003": heartbeatMiss + 1 + 2, "srv004": heartbeatMiss + 1 + 2, "srv002": claimStep}
	wantRetries := map[string]uint64{"srv003": 2, "srv004": 2, "srv002": recoveryClaimRounds}
	if !maps.Equal(first.elected, wantElected) {
		t.Errorf("recovered at steps %v; want %v", first.elected, wantElected)
	}
	if !maps.Equal(first.retries, wantRetries) {
		t.Errorf("orphan retries %v; want %v", first.retries, wantRetries)
	}
	if second := run(); !maps.Equal(first.dropped, second.dropped) || !maps.Equal(first.elected, second.elected) ||
		!maps.Equal(first.retries, second.retries) {
		t.Errorf("two builds of one seed recovered differently: %+v vs %+v", first, second)
	}
}
