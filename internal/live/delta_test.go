package live

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// deltaServerCfg builds a parked-loop server (background loops effectively
// off) so tests drive aggregation rounds deterministically by calling
// refreshSummaries/reportToParent/pushReplicas themselves.
func deltaServerCfg(t *testing.T, tr transport.Transport, id string, schema *record.Schema, mut func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig(id, "addr-"+id, schema)
	cfg.AggregateEvery = time.Hour
	cfg.HeartbeatEvery = time.Hour
	// Park the anti-entropy cadence too: tests that want full rounds set
	// their own cadence via mut.
	cfg.AntiEntropyEvery = 1 << 20
	if mut != nil {
		mut(&cfg)
	}
	srv, err := NewServer(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

func deltaServer(t *testing.T, tr transport.Transport, id string, schema *record.Schema) *Server {
	t.Helper()
	return deltaServerCfg(t, tr, id, schema, nil)
}

// deltaRecords builds n records that all match matchAllQuery.
func deltaRecords(schema *record.Schema, ownerID string, n int) []*record.Record {
	recs := make([]*record.Record, n)
	for j := range recs {
		r := record.New(schema, fmt.Sprintf("%s-r%d", ownerID, j), ownerID)
		r.SetNum(0, float64(j+1)/float64(n+2))
		r.SetNum(1, 0.5)
		recs[j] = r
	}
	return recs
}

func attachDeltaOwner(t *testing.T, srv *Server, schema *record.Schema, n int) *policy.Owner {
	t.Helper()
	o := policy.NewOwner("own-"+srv.ID(), schema, nil)
	o.SetRecords(deltaRecords(schema, o.ID, n))
	if err := srv.AttachOwner(o); err != nil {
		t.Fatal(err)
	}
	return o
}

// driveRound runs one full aggregation round on each server in order
// (children before parents, so reports land before the parent pushes).
func driveRound(servers ...*Server) {
	for _, s := range servers {
		s.refreshSummaries()
		s.reportToParent()
		s.pushReplicas()
	}
}

// childDelta snapshots the parent-side delta state for one child.
func childDelta(s *Server, id string) (version uint64, acked map[string]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.children[id]
	if !ok {
		return 0, nil
	}
	return c.version, maps.Clone(c.acked)
}

// parentDelta snapshots the child-side delta state.
func parentDelta(s *Server) (have uint64, needFull bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parentHaveVersion, s.parentNeedFull
}

func setChildVersion(s *Server, id string, v uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.children[id]
	if ok {
		c.version = v
	}
	return ok
}

func replicaVersion(s *Server, origin string) (version uint64, received time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.replicas[origin]
	if !ok {
		return 0, time.Time{}, false
	}
	return r.version, r.received, true
}

func setReplicaVersion(s *Server, origin string, v uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.replicas[origin]
	if ok {
		r.version = v
	}
	return ok
}

// countingTransport counts, per message kind, what servers send through it
// and how much of it is unversioned — so a test can assert that no
// unversioned report or push entry ever leaves a server.
type countingTransport struct {
	*transport.Chan
	mu          sync.Mutex
	unversioned []string
}

func (ct *countingTransport) Call(addr string, req *wire.Message) (*wire.Message, error) {
	ct.mu.Lock()
	if req.Report != nil && req.Report.Version == 0 {
		ct.unversioned = append(ct.unversioned, "report from "+req.From)
	}
	if req.Batch != nil {
		for _, p := range req.Batch.Pushes {
			if p.Version == 0 {
				ct.unversioned = append(ct.unversioned, "push of "+p.OriginID+" from "+req.From)
			}
		}
	}
	ct.mu.Unlock()
	return ct.Chan.Call(addr, req)
}

// TestDeltaHandshakeAndSuppression pins that there is no handshake: on a
// parked two-child star the first report and the first batch are already
// versioned and acked, the second tick is version-only both ways, no
// unversioned report or push entry is ever sent, replica TTLs are renewed
// by version-only entries, and a steady-state round moves a small fraction
// of the first full round's bytes.
func TestDeltaHandshakeAndSuppression(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := &countingTransport{Chan: transport.NewChan()}
	root := deltaServer(t, tr, "root", schema)
	c1 := deltaServer(t, tr, "c1", schema)
	c2 := deltaServer(t, tr, "c2", schema)
	attachDeltaOwner(t, root, schema, 5)
	attachDeltaOwner(t, c1, schema, 5)
	attachDeltaOwner(t, c2, schema, 5)
	if err := c1.Join(root.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c2.Join(root.Addr()); err != nil {
		t.Fatal(err)
	}

	// Tick one: everything goes in full, versioned, and is acked at once.
	firstStart := tr.Stats()
	driveRound(c1, c2, root)
	firstEnd := tr.Stats()
	branch := c1.snap.Load().branchSummary
	ver, acked := childDelta(root, "c1")
	if ver == 0 || ver != branch.Version {
		t.Fatalf("root holds c1's branch at version %d after one tick; want %d", ver, branch.Version)
	}
	if acked["root"] == 0 || acked["c2"] == 0 {
		t.Fatalf("c1 acked %v after the first batch; want root and c2 at their versions", acked)
	}
	if have, needFull := parentDelta(c1); needFull || have != branch.Version {
		t.Fatalf("after the first report c1 knows the parent holds version %d (needFull=%v); want %d", have, needFull, branch.Version)
	}
	if _, recv, ok := replicaVersion(c1, "root"); !ok || recv.IsZero() {
		t.Fatal("c1 holds no ancestor replica for root")
	}
	_, recvBefore, _ := replicaVersion(c1, "root")

	// Tick two: version-only both ways.
	supBefore := c1.mx.reportsSuppressed.Load()
	fullBefore := root.mx.pushFull.Load()
	repsBefore := root.mx.summaryReports.Load()
	steadyStart := tr.Stats()
	driveRound(c1, c2, root)
	steadyEnd := tr.Stats()

	if got := c1.mx.reportsSuppressed.Load(); got != supBefore+1 {
		t.Fatalf("second tick suppressed %d reports on c1; want exactly 1", got-supBefore)
	}
	if got := root.mx.pushDelta.Load(); got != 4 {
		t.Fatalf("second tick sent %d version-only push entries; want 4 (sibling + ancestor to each child)", got)
	}
	if got := root.mx.pushFull.Load(); got != fullBefore {
		t.Fatalf("second tick sent %d full push entries; want none", got-fullBefore)
	}
	if got := root.mx.summaryReports.Load(); got != repsBefore+2 {
		t.Fatalf("version-only reports must still count as reports: got %d new, want 2", got-repsBefore)
	}
	if st := root.StatusSnapshot(); st.ReportsSuppressed != 0 || st.ReplicaPushDelta != 4 {
		t.Fatalf("root status after two ticks: %+v; want ReplicaPushDelta 4", st)
	}
	if st := c1.StatusSnapshot(); st.ReportsSuppressed == 0 {
		t.Fatal("c1 status reports no suppressed report after two ticks")
	}
	if _, recvAfter, _ := replicaVersion(c1, "root"); !recvAfter.After(recvBefore) {
		t.Fatal("version-only push did not renew the replica's soft-state TTL")
	}
	if got := root.BranchRecords(); got != 15 {
		t.Fatalf("root branch covers %d records after suppression; want 15", got)
	}
	if len(tr.unversioned) != 0 {
		t.Fatalf("unversioned traffic was sent: %v", tr.unversioned)
	}

	fullBytes := (firstEnd.BytesSent - firstStart.BytesSent) + (firstEnd.BytesRecv - firstStart.BytesRecv)
	steadyBytes := (steadyEnd.BytesSent - steadyStart.BytesSent) + (steadyEnd.BytesRecv - steadyStart.BytesRecv)
	if steadyBytes*4 > fullBytes {
		t.Fatalf("steady-state round moved %d bytes vs %d for the first full round; want at least a 4x reduction", steadyBytes, fullBytes)
	}
}

// TestDeltaAntiEntropyRound pins the cadence: with AntiEntropyEvery=4, one
// round in four goes full-state on both the report and the push path even
// though every version matches, and the anti-entropy counter ticks.
func TestDeltaAntiEntropyRound(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	ae := func(c *Config) { c.AntiEntropyEvery = 4 }
	root := deltaServerCfg(t, tr, "root", schema, ae)
	c1 := deltaServerCfg(t, tr, "c1", schema, ae)
	c2 := deltaServerCfg(t, tr, "c2", schema, ae)
	attachDeltaOwner(t, root, schema, 4)
	attachDeltaOwner(t, c1, schema, 4)
	attachDeltaOwner(t, c2, schema, 4)
	if err := c1.Join(root.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c2.Join(root.Addr()); err != nil {
		t.Fatal(err)
	}
	// Converge (one round does; extra rounds are harmless, and 8 keeps the
	// window below clear of the rounds run so far).
	for i := 0; i < 8; i++ {
		driveRound(c1, c2, root)
	}
	if _, acked := childDelta(root, "c1"); len(acked) == 0 {
		t.Fatal("c1 never acked a push")
	}

	// All servers tick in lockstep (Start ran round 1 on each), so the next
	// four rounds contain exactly one anti-entropy round for every server.
	ae0 := c1.mx.antiEntropyRounds.Load()
	sup0 := c1.mx.reportsSuppressed.Load()
	full0 := root.mx.pushFull.Load()
	delta0 := root.mx.pushDelta.Load()
	for i := 0; i < 4; i++ {
		driveRound(c1, c2, root)
	}
	if got := c1.mx.antiEntropyRounds.Load() - ae0; got != 1 {
		t.Fatalf("4 rounds contained %d anti-entropy rounds; want 1", got)
	}
	if got := c1.mx.reportsSuppressed.Load() - sup0; got != 3 {
		t.Fatalf("c1 suppressed %d of 4 reports; want 3 (anti-entropy round goes full)", got)
	}
	// Root pushes 2 entries (sibling + ancestor) to each of 2 children per
	// round: the anti-entropy round sends all 4 full, the other 3 rounds
	// send all 4 version-only.
	if got := root.mx.pushFull.Load() - full0; got != 4 {
		t.Fatalf("anti-entropy window sent %d full push entries; want 4", got)
	}
	if got := root.mx.pushDelta.Load() - delta0; got != 12 {
		t.Fatalf("anti-entropy window sent %d version-only push entries; want 12", got)
	}
}

// TestDeltaNeedFullRecovery diverges both directions of the protocol on
// purpose and checks each recovers to full state within one round: a
// parent that lost track of the child's version NAKs the version-only
// report with NeedFull, and a child whose replica diverged NAKs the
// version-only push with NeedFullOrigins.
func TestDeltaNeedFullRecovery(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	root := deltaServer(t, tr, "root", schema)
	c1 := deltaServer(t, tr, "c1", schema)
	c2 := deltaServer(t, tr, "c2", schema)
	attachDeltaOwner(t, root, schema, 5)
	attachDeltaOwner(t, c1, schema, 5)
	attachDeltaOwner(t, c2, schema, 5)
	if err := c1.Join(root.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c2.Join(root.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		driveRound(c1, c2, root)
	}
	if sup := c1.mx.reportsSuppressed.Load(); sup == 0 {
		t.Fatal("setup never reached steady suppression")
	}

	// Report path: the parent's recorded version diverges. The child's next
	// version-only report must be NAKed, the retransmit goes full, and
	// suppression resumes after that.
	if !setChildVersion(root, "c1", 0xdead) {
		t.Fatal("root lost child c1")
	}
	c1.reportToParent() // version-only → NeedFull
	if _, needFull := parentDelta(c1); !needFull {
		t.Fatal("NeedFull ack did not reach the child")
	}
	c1.reportToParent() // full retransmit
	branch := c1.snap.Load().branchSummary
	if ver, _ := childDelta(root, "c1"); ver != branch.Version {
		t.Fatalf("full retransmit left the parent at version %d; want %d", ver, branch.Version)
	}
	if _, needFull := parentDelta(c1); needFull {
		t.Fatal("NeedFull flag survived the full retransmit")
	}
	sup := c1.mx.reportsSuppressed.Load()
	c1.reportToParent()
	if got := c1.mx.reportsSuppressed.Load(); got != sup+1 {
		t.Fatal("suppression did not resume after recovery")
	}

	// Push path: the child's held replica diverges. The parent's next
	// version-only entry is NAKed via NeedFullOrigins, the entry's acked
	// version is dropped, and the round after that ships full state.
	wantVer, _, ok := replicaVersion(c1, "root")
	if !ok || wantVer == 0 {
		t.Fatalf("c1 holds no versioned root replica (ver=%d ok=%v)", wantVer, ok)
	}
	if !setReplicaVersion(c1, "root", 0xdead) {
		t.Fatal("c1 lost the root replica")
	}
	root.pushReplicas() // version-only → NeedFullOrigins
	if _, acked := childDelta(root, "c1"); acked["root"] != 0 {
		t.Fatalf("NAKed origin still acked at version %d", acked["root"])
	}
	root.pushReplicas() // full retransmit
	if got, _, _ := replicaVersion(c1, "root"); got != wantVer {
		t.Fatalf("replica recovered to version %d; want %d", got, wantVer)
	}
	if _, acked := childDelta(root, "c1"); acked["root"] != wantVer {
		t.Fatalf("recovered origin re-acked at %d; want %d", acked["root"], wantVer)
	}
}

// TestDeltaRefreshSkipsUnchanged pins the incremental-refresh contract: a
// tick with no store mutation, no owner generation bump and no child change
// skips the rebuild entirely, and any of those changes un-skips it.
func TestDeltaRefreshSkipsUnchanged(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	srv := deltaServer(t, tr, "solo", schema)
	o := attachDeltaOwner(t, srv, schema, 10)

	srv.refreshSummaries() // absorbs the owner attached after Start
	srv.refreshSummaries() // sees no change
	if got := srv.mx.rebuildsSkipped.Load(); got != 1 {
		t.Fatalf("unchanged refresh skipped %d rebuilds; want 1", got)
	}
	v0 := srv.snap.Load().branchSummary.Version

	// Owner mutation un-skips: the generation moved.
	o.SetRecords(deltaRecords(schema, "own-solo", 11))
	srv.refreshSummaries()
	if got := srv.mx.rebuildsSkipped.Load(); got != 1 {
		t.Fatal("refresh after an owner mutation must rebuild")
	}
	if got := srv.BranchRecords(); got != 11 {
		t.Fatalf("rebuilt branch covers %d records; want 11", got)
	}
	if v := srv.snap.Load().branchSummary.Version; v == v0 {
		t.Fatal("content changed but the branch version did not")
	}

	// Back to steady state.
	srv.refreshSummaries()
	if got := srv.mx.rebuildsSkipped.Load(); got != 2 {
		t.Fatalf("second unchanged refresh skipped %d rebuilds total; want 2", got)
	}

	// Store mutation un-skips: the epoch moved.
	r := record.New(schema, "direct-1", "direct")
	r.SetNum(0, 0.5)
	r.SetNum(1, 0.5)
	srv.store.Add(r)
	srv.refreshSummaries()
	if got := srv.mx.rebuildsSkipped.Load(); got != 2 {
		t.Fatal("refresh after a store mutation must rebuild")
	}
	if got := srv.BranchRecords(); got != 12 {
		t.Fatalf("rebuilt branch covers %d records; want 12", got)
	}
}

// TestDeltaStalenessAccounting pins the satellite fix: an owner whose
// export can never merge (mismatched schema arity) fails every tick and is
// recounted every tick, but the refresh still publishes everything else
// and advances the staleness clock — partial success is not staleness.
func TestDeltaStalenessAccounting(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	srv := deltaServer(t, tr, "stale", schema)
	attachDeltaOwner(t, srv, schema, 5)

	wrong := record.DefaultSchema(3) // arity mismatch: merge always fails
	bad := policy.NewOwner("own-bad", wrong, nil)
	bad.SetRecords(deltaRecords(wrong, "own-bad", 2))
	if err := srv.AttachOwner(bad); err != nil {
		t.Fatal(err)
	}

	srv.refreshSummaries()
	e1 := srv.mx.summaryErrors.Load()
	if e1 == 0 {
		t.Fatal("mismatched owner did not count a summary error")
	}
	lr1 := srv.lastRefresh.Load()
	if lr1 == 0 {
		t.Fatal("partial refresh did not advance the staleness clock")
	}
	if got := srv.BranchRecords(); got != 5 {
		t.Fatalf("partial refresh published %d records; want the 5 mergeable ones", got)
	}

	time.Sleep(2 * time.Millisecond)
	srv.refreshSummaries()
	if got := srv.mx.summaryErrors.Load(); got <= e1 {
		t.Fatal("persistently failing owner must be recounted every tick")
	}
	if got := srv.lastRefresh.Load(); got <= lr1 {
		t.Fatalf("staleness clock stuck at %d despite a completed partial refresh", lr1)
	}
	if !srv.summaryFailing.Load() {
		t.Fatal("failing flag must stay set while an owner keeps failing")
	}
}
