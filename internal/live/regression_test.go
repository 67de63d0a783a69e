package live

import (
	"strings"
	"sync"
	"testing"

	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// TestKillStopConcurrent hammers Kill and Stop from many goroutines at
// once. The seed code checked started under the lock but closed s.stop
// after releasing it, so a concurrent Kill+Stop (or a crash test's Kill
// racing a deferred Stop) panicked with "close of closed channel".
func TestKillStopConcurrent(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	srv, err := NewServer(DefaultConfig("solo", "solo-addr", schema), tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			srv.Kill()
		}()
		go func() {
			defer wg.Done()
			srv.Stop()
		}()
	}
	wg.Wait()
	srv.Stop() // and once more after everything settled
}

// TestRejoinPreservesChildState re-sends a Join from an already-known
// child carrying a deep subtree. The seed code rebuilt the child's state
// with depth 1 and zero descendants, clobbering the subtree shape until
// the next summary report and skewing join-placement decisions.
func TestRejoinPreservesChildState(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	// No loop runs, so reports only flow when the test sends them.
	a, b, c := deltaServer(t, tr, "A", schema), deltaServer(t, tr, "B", schema), deltaServer(t, tr, "C", schema)
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(b.Addr()); err != nil {
		t.Fatal(err)
	}
	// B now knows about C; report B's two-level subtree up to A.
	b.refreshSummaries()
	b.reportToParent()

	childShape := func() (depth, desc int) {
		a.mu.Lock()
		defer a.mu.Unlock()
		cs := a.children["B"]
		if cs == nil {
			t.Fatal("A lost child B")
		}
		return cs.depth, cs.descendants
	}
	if depth, desc := childShape(); depth != 2 || desc != 1 {
		t.Fatalf("precondition: A sees B as depth=%d desc=%d; want 2/1", depth, desc)
	}

	// B joins again (e.g. a rejoin after a transient parent miss), as a
	// raw message so no summary report races the check.
	rep, err := tr.Call(a.Addr(), &wire.Message{
		Kind: wire.KindJoin,
		From: "B",
		Addr: b.Addr(),
		Join: &wire.Join{ID: "B", Addr: b.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.JoinReply == nil || !rep.JoinReply.Accepted {
		t.Fatalf("re-join not accepted: %+v", rep)
	}
	if depth, desc := childShape(); depth != 2 || desc != 1 {
		t.Fatalf("re-join clobbered child state: depth=%d desc=%d; want 2/1 preserved", depth, desc)
	}
}

// TestResolvePartialFailure kills one server mid-cluster and checks the
// client reports the failed contact instead of presenting partial coverage
// as a complete result. The seed code recorded only the first error and
// dropped it entirely once any server had answered.
func TestResolvePartialFailure(t *testing.T) {
	cl, _ := startWorkloadCluster(t, 5, 10, 73)
	var victim *Server
	for _, srv := range cl.Servers {
		if !srv.IsRoot() {
			victim = srv
			break
		}
	}
	if victim == nil {
		t.Fatal("no non-root server")
	}
	victim.Kill()

	client := NewClient(cl.Tr, "tester")
	q := query.New("broad", query.NewRange("a0", 0, 1))
	start := cl.Root()
	if start == nil || start == victim {
		start = cl.Servers[0]
	}
	recs, stats, err := client.Resolve(start.Addr(), q)
	if err != nil {
		t.Fatalf("partial coverage must not be a hard error: %v", err)
	}
	if stats.Contacted == 0 || len(recs) == 0 {
		t.Fatalf("surviving servers must still answer (contacted %d, %d records)", stats.Contacted, len(recs))
	}
	if stats.Failed == 0 {
		t.Fatalf("killed server %s must be reported in QueryStats.Failed (stats %+v)", victim.ID(), stats)
	}
	if len(stats.Errors) != stats.Failed {
		t.Fatalf("Errors has %d entries for %d failures", len(stats.Errors), stats.Failed)
	}
	found := false
	for _, e := range stats.Errors {
		if strings.Contains(e, victim.Addr()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no error names the dead server %s: %v", victim.Addr(), stats.Errors)
	}
}

// TestReplicaBatchAtomic feeds a server one good batch, then a batch with
// a corrupt push: the good batch must apply in full, the corrupt one must
// be rejected without partial application.
func TestReplicaBatchAtomic(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	srv := deltaServer(t, tr, "dst", schema)
	srv.refreshSummaries()
	srv.mu.Lock()
	sum, version := wire.FromSummary(srv.localSummary), srv.localSummary.Version
	srv.mu.Unlock()

	good := &wire.Message{
		Kind: wire.KindReplicaBatch,
		From: "parent",
		Addr: "parent-addr",
		Batch: &wire.ReplicaBatch{Pushes: []*wire.ReplicaPush{
			{OriginID: "sib1", OriginAddr: "sib1-addr", Summary: sum, Level: 1, Version: version},
			{OriginID: "anc1", OriginAddr: "anc1-addr", Summary: sum, Ancestor: true, Level: 2, Version: version},
		}},
	}
	rep, err := tr.Call(srv.Addr(), good)
	if err != nil || wire.RemoteError(rep) != nil {
		t.Fatalf("good batch rejected: %v / %v", err, wire.RemoteError(rep))
	}
	if n := srv.NumReplicas(); n != 2 {
		t.Fatalf("batch applied %d replicas; want 2", n)
	}

	corrupt := *sum
	corrupt.Hists = []wire.HistDTO{{Attr: 99, Counts: make([]uint32, corrupt.Buckets)}}
	bad := &wire.Message{
		Kind: wire.KindReplicaBatch,
		From: "parent",
		Addr: "parent-addr",
		Batch: &wire.ReplicaBatch{Pushes: []*wire.ReplicaPush{
			{OriginID: "sib2", OriginAddr: "sib2-addr", Summary: sum, Level: 1, Version: version},
			{OriginID: "sib3", OriginAddr: "sib3-addr", Summary: &corrupt, Level: 1, Version: version},
		}},
	}
	rep, err = tr.Call(srv.Addr(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if wire.RemoteError(rep) == nil {
		t.Fatal("corrupt batch must be rejected")
	}
	srv.mu.Lock()
	_, partial := srv.replicas["sib2"]
	srv.mu.Unlock()
	if partial {
		t.Fatal("rejected batch must not be applied partially")
	}
}

// TestStatusSurfacesTransportCounters checks a Status round trip carries
// the transport's counters for monitoring tools.
func TestStatusSurfacesTransportCounters(t *testing.T) {
	cl, _ := startWorkloadCluster(t, 3, 5, 74)
	client := NewClient(cl.Tr, "monitor")
	st, err := client.Status(cl.Servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if st.Transport == nil {
		t.Fatal("status must carry transport counters")
	}
	if st.Transport.Calls == 0 || st.Transport.BytesSent == 0 {
		t.Fatalf("transport counters empty: %+v", st.Transport)
	}
}
