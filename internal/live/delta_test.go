package live

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// deltaServerCfg builds a parked-loop server (background loops effectively
// off, early rounds parked) so tests drive aggregation rounds
// deterministically by calling refreshSummaries/reportToParent/pushReplicas
// themselves.
func deltaServerCfg(t *testing.T, tr transport.Transport, id string, schema *record.Schema, mut func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig(id, "addr-"+id, schema)
	cfg.AggregateEvery = time.Hour
	if mut != nil {
		mut(&cfg)
	}
	srv, err := NewServer(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	parkEarlyRounds(srv)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

// parkEarlyRounds keeps srv from running early rounds, so that the rounds a
// test drives by hand are all the maintenance traffic there is. Call it
// before Start: joins and attached owners ask for early rounds at once.
func parkEarlyRounds(srv *Server) { srv.earlyAt.Store(math.MaxInt64) }

// unparkEarlyRounds lets each server's next request for an early round run at
// once. A request made while parked that a loop has not taken yet is dropped
// first: it would spend the early round on nothing the test did. A request a
// loop took just before the unpark but had not checked yet still runs, and
// gates that server for half a period; so servers are unparked again until
// a settle window passes in which none of them ran an early round.
func unparkEarlyRounds(servers ...*Server) {
	const settle = 20 * time.Millisecond
	for pending := servers; len(pending) > 0; {
		for _, s := range pending {
			select {
			case <-s.wake:
			default:
			}
			s.earlyAt.Store(0)
		}
		time.Sleep(settle)
		var ran []*Server
		for _, s := range servers {
			if s.earlyAt.Load() != 0 {
				ran = append(ran, s)
			}
		}
		pending = ran
	}
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
	return c.version, maps.Clone(c.push.acked)
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

// replicaTagOf is the tag the server derives from the replica it holds —
// what its feeder's acked map must say for a digest to match.
func replicaTagOf(s *Server, origin string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.replicas[origin]; ok {
		return r.tag()
	}
	return 0
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

// countingTransport records what servers send through it: unversioned
// reports and push entries (none must ever leave a server), every summary
// DTO a request carries and the encoded bytes of the requests that carry
// one, and the replica batches by form.
type countingTransport struct {
	*transport.Chan
	mu           sync.Mutex
	unversioned  []string
	summaries    int      // SummaryDTOs in reports and push entries
	summaryBytes int      // encoded size of the requests carrying them
	fullEntries  []string // "parent>child:origin" per full push entry
	ancestors    []string // "child:origin" per full ancestor entry
	lists        int      // list batches
	digests      int      // digest batches
}

func (ct *countingTransport) Call(addr string, req *wire.Message) (*wire.Message, error) {
	ct.mu.Lock()
	summaries := ct.summaries
	if req.Report != nil {
		if req.Report.Version == 0 {
			ct.unversioned = append(ct.unversioned, "report from "+req.From)
		}
		if req.Report.Summary != nil {
			ct.summaries++
		}
	}
	if b := req.Batch; b != nil {
		if len(b.Pushes) == 0 && b.Count > 0 {
			ct.digests++
		} else {
			ct.lists++
		}
		for _, p := range b.Pushes {
			if p.Summary == nil {
				continue
			}
			ct.fullEntries = append(ct.fullEntries, req.From+">"+addr+":"+p.OriginID)
			ct.summaries++
			if p.Ancestor {
				ct.ancestors = append(ct.ancestors, addr+":"+p.OriginID)
			}
			if p.Version == 0 {
				ct.unversioned = append(ct.unversioned, "push of "+p.OriginID+" from "+req.From)
			}
		}
	}
	if ct.summaries > summaries {
		data, _ := wire.Encode(req)
		ct.summaryBytes += len(data)
	}
	ct.mu.Unlock()
	return ct.Chan.Call(addr, req)
}

// reset forgets what was counted so far and returns the full entries seen.
func (ct *countingTransport) reset() []string {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	full := ct.fullEntries
	ct.summaries, ct.summaryBytes, ct.fullEntries, ct.ancestors, ct.lists, ct.digests = 0, 0, nil, nil, 0, 0
	return full
}

func (ct *countingTransport) counts() (summaries, lists, digests int) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.summaries, ct.lists, ct.digests
}

// TestDeltaHandshakeAndSuppression pins that there is no handshake and no
// restatement: on a parked two-child star the first tick is a versioned
// report and a list batch of full entries, acked at once; the second tick is
// a version-only report and a digest batch; and from then on no summary is
// ever put on the wire again, while every tick still renews the replicas'
// soft-state TTL. A steady-state round moves a small fraction of the first
// round's bytes.
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
	tr.reset() // the joins primed the parent with one report each

	// Tick one: everything goes in full, versioned, and is acked at once.
	firstStart := tr.Stats()
	driveRound(c1, c2, root)
	firstEnd := tr.Stats()
	if _, lists, digests := tr.counts(); lists != 2 || digests != 0 {
		t.Fatalf("first tick sent %d list and %d digest batches; want 2 lists", lists, digests)
	}
	if full := tr.reset(); len(full) != 4 {
		t.Fatalf("first tick shipped full entries %v; want 4 (sibling + ancestor to each child)", full)
	}
	branch := c1.snap.Load().branchSummary
	ver, acked := childDelta(root, "c1")
	if ver == 0 || ver != branch.Version {
		t.Fatalf("root holds c1's branch at version %d after one tick; want %d", ver, branch.Version)
	}
	if len(acked) != 2 || acked["root"] != replicaTagOf(c1, "root") || acked["c2"] != replicaTagOf(c1, "c2") {
		t.Fatalf("c1 acked %v after the first batch; want root and c2 at the tags c1 derives", acked)
	}
	if have, needFull := parentDelta(c1); needFull || have != branch.Version {
		t.Fatalf("after the first report c1 knows the parent holds version %d (needFull=%v); want %d", have, needFull, branch.Version)
	}
	if _, recv, ok := replicaVersion(c1, "root"); !ok || recv.IsZero() {
		t.Fatal("c1 holds no ancestor replica for root")
	}

	// Tick two: a version-only report up, a digest batch down.
	supBefore := c1.mx.reportsSuppressed.Load()
	fullBefore := root.mx.pushFull.Load()
	repsBefore := root.mx.summaryReports.Load()
	steadyStart := tr.Stats()
	driveRound(c1, c2, root)
	steadyEnd := tr.Stats()

	if got := c1.mx.reportsSuppressed.Load(); got != supBefore+1 {
		t.Fatalf("second tick suppressed %d reports on c1; want exactly 1", got-supBefore)
	}
	if summaries, lists, digests := tr.counts(); summaries != 0 || lists != 0 || digests != 2 {
		t.Fatalf("second tick sent %d summaries, %d list and %d digest batches; want 2 digests and nothing else", summaries, lists, digests)
	}
	if got := root.mx.pushDelta.Load(); got != 4 {
		t.Fatalf("second tick confirmed %d push entries by digest; want 4 (sibling + ancestor at each child)", got)
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
	if got := root.BranchRecords(); got != 15 {
		t.Fatalf("root branch covers %d records after suppression; want 15", got)
	}

	// Thereafter: digests only, zero summaries, and every one renews the TTL.
	for i := 0; i < 40; i++ {
		_, before, _ := replicaVersion(c1, "root")
		driveRound(c1, c2, root)
		if _, after, _ := replicaVersion(c1, "root"); !after.After(before) {
			t.Fatalf("round %d: the digest batch did not renew the replica's soft-state TTL", i)
		}
	}
	if summaries, lists, digests := tr.counts(); summaries != 0 || lists != 0 || digests != 2*41 {
		t.Fatalf("steady state sent %d summaries, %d list and %d digest batches; want 82 digests and nothing else", summaries, lists, digests)
	}
	if len(tr.unversioned) != 0 {
		t.Fatalf("unversioned traffic was sent: %v", tr.unversioned)
	}

	fullBytes := (firstEnd.BytesSent - firstStart.BytesSent) + (firstEnd.BytesRecv - firstStart.BytesRecv)
	steadyBytes := (steadyEnd.BytesSent - steadyStart.BytesSent) + (steadyEnd.BytesRecv - steadyStart.BytesRecv)
	if steadyBytes*10 > fullBytes {
		t.Fatalf("steady-state round moved %d bytes vs %d for the first full round; want at least a 10x reduction", steadyBytes, fullBytes)
	}
}

// TestDeltaNeedFullRecovery diverges both directions of the protocol on
// purpose and checks each recovers without a restatement: a parent that lost
// track of the child's version NAKs the version-only report with NeedFull and
// gets the summary next round; a child whose replica diverged NAKs the digest
// with NeedFull, then the tag-only entry of the list that follows with
// NeedFullOrigins, and gets that one entry in full.
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

	// Push path: the child's held replica diverges. The parent's digest is
	// NAKed, the tag-only entry of the list batch that follows is NAKed via
	// NeedFullOrigins and dropped from what the child is taken to hold, and
	// the round after that ships the one entry in full.
	wantVer, _, ok := replicaVersion(c1, "root")
	if !ok || wantVer == 0 {
		t.Fatalf("c1 holds no versioned root replica (ver=%d ok=%v)", wantVer, ok)
	}
	wantTag := replicaTagOf(c1, "root")
	if !setReplicaVersion(c1, "root", 0xdead) {
		t.Fatal("c1 lost the root replica")
	}
	root.pushReplicas() // digest → NeedFull
	root.pushReplicas() // list, tag-only → NeedFullOrigins
	if _, acked := childDelta(root, "c1"); acked["root"] != 0 || acked["c2"] == 0 {
		t.Fatalf("after the NAKed list c1 is taken to hold %v; want c2 only", acked)
	}
	full0 := root.mx.pushFull.Load()
	root.pushReplicas() // list, the one entry in full
	if got := root.mx.pushFull.Load() - full0; got != 1 {
		t.Fatalf("recovery shipped %d full entries; want exactly the diverged one", got)
	}
	if got, _, _ := replicaVersion(c1, "root"); got != wantVer {
		t.Fatalf("replica recovered to version %d; want %d", got, wantVer)
	}
	if _, acked := childDelta(root, "c1"); acked["root"] != wantTag {
		t.Fatalf("recovered origin re-acked at %#x; want %#x", acked["root"], wantTag)
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
