package live

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

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
// new root (paper §III-A), with everyone else reattaching under it.
func TestRootCrashElection(t *testing.T) {
	cl, w := startWorkloadCluster(t, 7, 8, 52)
	oldRoot := cl.Root()
	if oldRoot == nil {
		t.Fatal("no root")
	}
	// The expected winner is the smallest-ID child of the root.
	oldRoot.mu.Lock()
	wantWinner := ""
	for id := range oldRoot.children {
		if wantWinner == "" || id < wantWinner {
			wantWinner = id
		}
	}
	oldRoot.mu.Unlock()
	if wantWinner == "" {
		t.Skip("root has no children")
	}
	cl.Run() // detection and election run on real timers
	oldRoot.Kill()

	// Wait for a single new root to emerge and everyone to reattach.
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		var roots []*Server
		attached := 0
		for _, srv := range cl.Servers {
			if srv == oldRoot {
				continue
			}
			if srv.IsRoot() {
				roots = append(roots, srv)
			} else if srv.ParentID() != "" {
				attached++
			}
		}
		if len(roots) == 1 && roots[0].ID() == wantWinner && attached == len(cl.Servers)-2 {
			// Converged: verify queries still resolve over survivors.
			client := NewClient(cl.Tr, "t")
			q := query.New("q", query.NewRange("a0", 0, 1))
			if err := q.Bind(w.Schema); err != nil {
				t.Fatal(err)
			}
			// Give aggregation a few ticks to re-cover the survivors.
			qDeadline := time.Now().Add(60 * time.Second)
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
			for time.Now().Before(qDeadline) {
				recs, _, err := client.Resolve(roots[0].Addr(), q.Clone())
				if err == nil && len(recs) >= want {
					return
				}
				time.Sleep(25 * time.Millisecond)
			}
			t.Fatal("queries incomplete after root election")
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, srv := range cl.Servers {
		if srv == oldRoot {
			continue
		}
		t.Logf("state: %s isroot=%v parent=%q", srv.ID(), srv.IsRoot(), srv.ParentID())
	}
	t.Fatalf("no stable new root emerged (want %s)", wantWinner)
}
