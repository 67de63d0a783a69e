package live

import (
	"testing"
	"time"

	"roads/internal/query"
)

// TestCrashedLeafExpiresFromOverlay kills a leaf abruptly (no Leave) and
// verifies the soft-state machinery cleans up: the parent prunes the dead
// child, replicas of the dead branch age out everywhere, and queries over
// the surviving data stay complete.
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
	cl.Run()      // detection and ageing run on real timers
	victim.Kill() // crash: no Leave messages

	// Wait for report-miss detection + replica TTL (ticks are 25ms, so
	// the 4*miss*tick TTL is 400ms; give it ample slack).
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		gone := true
		for _, srv := range cl.Servers {
			if srv == victim {
				continue
			}
			srv.mu.Lock()
			_, hasChild := srv.children[victim.ID()]
			_, hasReplica := srv.replicas[victim.ID()]
			srv.mu.Unlock()
			if hasChild || hasReplica {
				gone = false
				break
			}
		}
		if gone {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, srv := range cl.Servers {
		if srv == victim {
			continue
		}
		srv.mu.Lock()
		_, hasChild := srv.children[victim.ID()]
		_, hasReplica := srv.replicas[victim.ID()]
		srv.mu.Unlock()
		if hasChild {
			t.Fatalf("%s still lists crashed %s as a child", srv.ID(), victim.ID())
		}
		if hasReplica {
			t.Fatalf("%s still holds a replica of crashed %s", srv.ID(), victim.ID())
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
