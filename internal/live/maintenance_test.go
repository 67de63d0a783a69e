package live

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// These tests pin the maintenance protocol — tagged entries, list and digest
// batches, conditional ancestry on the report ack — on parked-loop servers
// over Chan: every round is driven by hand, nothing sleeps, and soft-state
// ageing is simulated by backdating replicas.

// deltaStar builds a parked root with the named children joined to it, n
// records each, and drives it to the digest steady state.
func deltaStar(t *testing.T, tr transport.Transport, n int, ids ...string) (root *Server, kids []*Server) {
	t.Helper()
	schema := record.DefaultSchema(2)
	root = deltaServer(t, tr, "root", schema)
	attachDeltaOwner(t, root, schema, n)
	for _, id := range ids {
		c := deltaServer(t, tr, id, schema)
		attachDeltaOwner(t, c, schema, n)
		if err := c.Join(root.Addr()); err != nil {
			t.Fatal(err)
		}
		kids = append(kids, c)
	}
	for i := 0; i < 3; i++ {
		driveRound(append(slices.Clone(kids), root)...)
	}
	return root, kids
}

// backdate makes every replica the server holds look d older.
func backdate(s *Server, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.replicas {
		r.received = r.received.Add(-d)
	}
}

func replicaVia(s *Server, origin string) (via string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.replicas[origin]
	if !ok {
		return "", false
	}
	return r.via, true
}

// TestDigestMismatchShipsOnlyTheMissingOrigin: a child that lost one replica
// refuses the digest, is sent the list with every entry tag-only, names the
// one origin it cannot confirm, and gets exactly that entry in full — three
// ticks, one summary's worth of bytes, then digests again.
func TestDigestMismatchShipsOnlyTheMissingOrigin(t *testing.T) {
	tr := &countingTransport{Chan: transport.NewChan()}
	root, kids := deltaStar(t, tr, 5, "c1", "c2", "c3")
	c1 := kids[0]
	tr.reset()

	c1.mu.Lock()
	delete(c1.replicas, "c2")
	c1.publishSnapshotLocked()
	c1.mu.Unlock()

	root.pushReplicas() // digest: c1 answers NeedFull
	if _, lists, digests := tr.counts(); lists != 0 || digests != 3 {
		t.Fatalf("tick 1 sent %d list and %d digest batches; want 3 digests", lists, digests)
	}
	root.pushReplicas() // list to c1, all tag-only: c1 names c2
	root.pushReplicas() // list to c1 with c2 in full
	if got := c1.NumReplicas(); got != 3 {
		t.Fatalf("c1 holds %d replicas three ticks after losing one; want 3", got)
	}
	if via, _ := replicaVia(c1, "c2"); via != "root" {
		t.Fatalf("the restored replica is held via %q; want root", via)
	}
	summaries, lists, digests := tr.counts()
	if full := tr.reset(); !slices.Equal(full, []string{"root>addr-c1:c2"}) {
		t.Fatalf("recovery shipped full entries %v; want only c2 to c1", full)
	}
	if summaries != 1 || lists != 2 || digests != 3+2+2 {
		t.Fatalf("recovery sent %d summaries, %d lists, %d digests; want 1, 2 (both to c1) and 7", summaries, lists, digests)
	}
	root.pushReplicas()
	if summaries, lists, digests := tr.counts(); summaries != 0 || lists != 0 || digests != 3 {
		t.Fatalf("tick 4 sent %d summaries, %d lists, %d digests; want digests only again", summaries, lists, digests)
	}
}

// TestShrunkSetIsRestatedOnceAndOrphanAgesOut: when a sibling leaves the
// parent's set, each remaining child gets one list batch that no longer names
// it and digests from then on — no list/digest alternation. The orphaned
// replica loses its feeder mark, is not renewed by the digests, and expires
// exactly when its TTL runs out: not at the restatement, and not later.
func TestShrunkSetIsRestatedOnceAndOrphanAgesOut(t *testing.T) {
	tr := &countingTransport{Chan: transport.NewChan()}
	root, kids := deltaStar(t, tr, 5, "c1", "c2", "c3")
	c1, c2 := kids[0], kids[1]
	_, lastRenewed, _ := replicaVersion(c1, "c3")

	// What pruneDeadChildren does to a child that stopped reporting.
	root.mu.Lock()
	delete(root.children, "c3")
	root.childEpoch++
	root.publishSnapshotLocked()
	root.mu.Unlock()
	tr.reset()

	driveRound(c1, c2, root)
	if _, lists, digests := tr.counts(); lists != 2 || digests != 0 {
		t.Fatalf("the tick after the set shrank sent %d list and %d digest batches; want one list per remaining child", lists, digests)
	}
	if via, ok := replicaVia(c1, "c3"); !ok || via != "" {
		t.Fatalf("orphaned replica: held=%v via=%q; want still held, feeder mark cleared", ok, via)
	}
	if _, recv, _ := replicaVersion(c1, "c3"); !recv.Equal(lastRenewed) {
		t.Fatal("the restatement touched the orphaned replica's age")
	}
	tr.reset()
	for i := 0; i < 6; i++ {
		driveRound(c1, c2, root)
	}
	if summaries, lists, digests := tr.counts(); summaries != 0 || lists != 0 || digests != 12 {
		t.Fatalf("six ticks later: %d summaries, %d lists, %d digests; want 12 digests and no list", summaries, lists, digests)
	}
	if _, recv, _ := replicaVersion(c1, "c3"); !recv.Equal(lastRenewed) {
		t.Fatal("digest batches renewed a replica the sender no longer lists")
	}

	// Soft state, unchanged: still there just inside the TTL, gone just past.
	ttl := c1.cfg.replicaTTL()
	backdate(c1, ttl-time.Minute)
	driveRound(c1, c2, root) // renews what root still feeds
	c1.pruneStaleReplicas()
	if _, ok := replicaVia(c1, "c3"); !ok {
		t.Fatal("orphaned replica expired before its TTL")
	}
	backdate(c1, 2*time.Minute)
	driveRound(c1, c2, root)
	c1.pruneStaleReplicas()
	if _, ok := replicaVia(c1, "c3"); ok {
		t.Fatal("orphaned replica outlived its TTL")
	}
	if got := c1.NumReplicas(); got != 2 {
		t.Fatalf("c1 holds %d replicas after the orphan aged out; want root and c2", got)
	}
}

// TestReplicaSoftStateUnderDigests: a replica confirmed by nothing but digest
// batches for ten TTLs never expires, and one whose feeder goes silent expires
// after the TTL it always had.
func TestReplicaSoftStateUnderDigests(t *testing.T) {
	tr := &countingTransport{Chan: transport.NewChan()}
	root, kids := deltaStar(t, tr, 4, "c1", "c2")
	c1, c2 := kids[0], kids[1]
	ttl := c1.cfg.replicaTTL()
	tr.reset()

	// Twelve steps of 0.9 TTL: each digest must renew every replica, or the
	// next step's prune removes it.
	for i := 0; i < 12; i++ {
		backdate(c1, ttl*9/10)
		driveRound(c1, c2, root)
		c1.pruneStaleReplicas()
		if got := c1.NumReplicas(); got != 2 {
			t.Fatalf("step %d: c1 holds %d replicas; digest batches must keep both alive", i, got)
		}
	}
	if summaries, lists, _ := tr.counts(); summaries != 0 || lists != 0 {
		t.Fatalf("the keepalive window put %d summaries and %d list batches on the wire; want digests only", summaries, lists)
	}

	// The feeder goes silent: nothing renews, and the TTL is what it was.
	if want := 16 * time.Hour; ttl != want {
		t.Fatalf("replica TTL is %v on a one-hour tick; want 4 x heartbeatMiss ticks = %v", ttl, want)
	}
	backdate(c1, ttl-time.Minute)
	c1.pruneStaleReplicas()
	if got := c1.NumReplicas(); got != 2 {
		t.Fatalf("%d replicas left a minute before the TTL; want 2", got)
	}
	backdate(c1, 2*time.Minute)
	c1.pruneStaleReplicas()
	if got := c1.NumReplicas(); got != 0 {
		t.Fatalf("%d replicas left a minute past the TTL with a silent feeder; want 0", got)
	}
}

// TestRejoinedChildIsRestatedOnce: a child that restarts and rejoins the same
// parent gets every entry in full in the first batch — whole again one tick
// after the join — and digests from the second on; its sibling never leaves
// the digest form.
func TestRejoinedChildIsRestatedOnce(t *testing.T) {
	tr := &countingTransport{Chan: transport.NewChan()}
	root, kids := deltaStar(t, tr, 5, "c1", "c2")
	c2 := kids[1]
	kids[0].Kill()

	schema := record.DefaultSchema(2)
	c1 := deltaServer(t, tr, "c1", schema) // same identity, empty state
	attachDeltaOwner(t, c1, schema, 5)
	if err := c1.Join(root.Addr()); err != nil {
		t.Fatal(err)
	}
	tr.reset()

	driveRound(c1, c2, root)
	if got := c1.NumReplicas(); got != 2 {
		t.Fatalf("restarted child holds %d replicas one tick after rejoining; want 2", got)
	}
	if got := c1.CoveredRecords(); got != 15 {
		t.Fatalf("restarted child covers %d records one tick after rejoining; want 15", got)
	}
	_, lists, digests := tr.counts()
	full := tr.reset()
	slices.Sort(full)
	if !slices.Equal(full, []string{"root>addr-c1:c2", "root>addr-c1:root"}) || lists != 1 || digests != 1 {
		t.Fatalf("rejoin tick: full entries %v, %d lists, %d digests; want both entries in full to c1 and a digest to c2", full, lists, digests)
	}
	for i := 0; i < 3; i++ {
		driveRound(c1, c2, root)
	}
	if summaries, lists, digests := tr.counts(); summaries != 0 || lists != 0 || digests != 6 {
		t.Fatalf("after the restatement: %d summaries, %d lists, %d digests; want digests only", summaries, lists, digests)
	}
}

// ackTap records the acks that come back to the summary reports sent
// through it.
type ackTap struct {
	transport.Transport
	mu   sync.Mutex
	acks []*wire.AckInfo
}

func (a *ackTap) Call(addr string, req *wire.Message) (*wire.Message, error) {
	rep, err := a.Transport.Call(addr, req)
	if err == nil && req.Kind == wire.KindSummaryReport {
		a.mu.Lock()
		a.acks = append(a.acks, rep.Ack)
		a.mu.Unlock()
	}
	return rep, err
}

// last returns the most recent report ack.
func (a *ackTap) last(t *testing.T) *wire.AckInfo {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.acks) == 0 || a.acks[len(a.acks)-1] == nil {
		t.Fatal("no report ack recorded")
	}
	return a.acks[len(a.acks)-1]
}

func childLastSeen(s *Server, id string) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.children[id]; ok {
		return c.lastSeen
	}
	return time.Time{}
}

// TestReportAckAncestryIsConditional: the report ack carries the root path
// and the sibling list exactly when the hash the child sent does not match
// them. A new sibling and a new root path each arrive on the next report,
// once; an ack without them still counts as liveness on both sides.
func TestReportAckAncestryIsConditional(t *testing.T) {
	schema := record.DefaultSchema(2)
	ch := transport.NewChan()
	tap := &ackTap{Transport: ch}
	root := deltaServer(t, ch, "root", schema)
	c1 := deltaServer(t, tap, "c1", schema)
	if err := c1.Join(root.Addr()); err != nil { // its one report primes the root path
		t.Fatal(err)
	}
	if a := tap.last(t).Ancestry; a == nil || !slices.Equal(a.RootPath, []string{"root"}) {
		t.Fatalf("first report ack carries ancestry %+v; want the root path in full", a)
	}
	if path := c1.RootPath(); !slices.Equal(path, []string{"root", "c1"}) {
		t.Fatalf("c1's root path after joining is %v; want root, c1", path)
	}

	seen := childLastSeen(root, "c1")
	c1.reportToParent()
	if a := tap.last(t).Ancestry; a != nil {
		t.Fatalf("second report ack carries ancestry %+v; want none", a)
	}
	if !childLastSeen(root, "c1").After(seen) {
		t.Fatal("a report did not refresh the child's liveness at the parent")
	}
	if path := c1.RootPath(); !slices.Equal(path, []string{"root", "c1"}) {
		t.Fatalf("an ack without ancestry altered the root path: %v", path)
	}

	// A sibling appears: delivered on the next report, once.
	c2 := deltaServer(t, ch, "c2", schema)
	if err := c2.Join(root.Addr()); err != nil {
		t.Fatal(err)
	}
	c1.reportToParent()
	if a := tap.last(t).Ancestry; a == nil || len(a.Siblings) != 1 || a.Siblings[0].ID != "c2" {
		t.Fatalf("report ack after a sibling joined: %+v; want the ancestry with c2 in it", a)
	}
	c1.reportToParent()
	if a := tap.last(t).Ancestry; a != nil {
		t.Fatalf("report ack after the sibling was delivered: %+v; want no ancestry", a)
	}
	c1.mu.Lock()
	sibs := slices.Clone(c1.siblingsOfMe)
	c1.mu.Unlock()
	if len(sibs) != 1 || sibs[0].ID != "c2" || sibs[0].Addr != c2.Addr() {
		t.Fatalf("c1 holds siblings %v; want c2", sibs)
	}

	// The root path grows above the parent: delivered on the next report.
	top := deltaServer(t, ch, "top", schema)
	if err := root.Join(top.Addr()); err != nil {
		t.Fatal(err)
	}
	c1.reportToParent()
	if a := tap.last(t).Ancestry; a == nil || !slices.Equal(a.RootPath, []string{"top", "root"}) {
		t.Fatalf("report ack after the parent got a parent: %+v; want the new root path", a)
	}
	if path := c1.RootPath(); !slices.Equal(path, []string{"top", "root", "c1"}) {
		t.Fatalf("c1's root path is %v; want top, root, c1", path)
	}
	c1.reportToParent()
	if a := tap.last(t).Ancestry; a != nil {
		t.Fatalf("report ack after the new path was delivered: %+v; want no ancestry", a)
	}

	// A report without a hash (a hand-built one) gets the content.
	rep := root.handle(&wire.Message{Kind: wire.KindSummaryReport, From: "c1", Addr: c1.Addr(),
		Report: &wire.SummaryReport{Depth: 1, Version: 1}})
	if rep.Ack == nil || rep.Ack.Ancestry == nil || len(rep.Ack.Ancestry.RootPath) != 2 {
		t.Fatalf("hashless report answered %+v; want the ancestry", rep.Ack)
	}
}

// TestReplicaTagCoversMetadata is the regression test for metadata drifting
// under an unchanged branch version, which only the periodic full round used
// to heal. (a) A sibling gains a child that holds no records: the sibling's
// branch version stays, its children list does not, and the replicas of it —
// their Fallbacks, hence the Alternates of redirects to it — must follow.
// (b) A record moves from a child to its parent: the parent's branch is
// identical, its local summary is not, and the ancestor replica's local must
// follow. Both within two ticks, and by restating that one entry.
func TestReplicaTagCoversMetadata(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	root := deltaServer(t, tr, "root", schema)
	c1 := deltaServer(t, tr, "c1", schema)
	c2 := deltaServer(t, tr, "c2", schema)
	oRoot := attachDeltaOwner(t, root, schema, 3)
	attachDeltaOwner(t, c1, schema, 3)
	o2 := attachDeltaOwner(t, c2, schema, 3)
	for _, c := range []*Server{c1, c2} {
		if err := c.Join(root.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		driveRound(c1, c2, root)
	}

	// (a) c2 gains an empty child.
	c2Version := c2.snap.Load().branchSummary.Version
	g := deltaServer(t, tr, "g", schema)
	if err := g.Join(c2.Addr()); err != nil {
		t.Fatal(err)
	}
	full0 := root.mx.pushFull.Load()
	for i := 0; i < 2; i++ {
		driveRound(g, c1, c2, root)
	}
	if v := c2.snap.Load().branchSummary.Version; v != c2Version {
		t.Fatalf("setup: an empty child moved c2's branch version (%d -> %d); the test needs it unchanged", c2Version, v)
	}
	alternates := func(s *Server, target string) []string {
		var ids []string
		snap := s.snap.Load()
		for _, c := range snap.children {
			if c.ri.ID == target {
				for _, a := range c.ri.Alternates {
					ids = append(ids, a.ID)
				}
			}
		}
		for _, r := range snap.replicas {
			if r.ri.ID == target {
				for _, a := range r.ri.Alternates {
					ids = append(ids, a.ID)
				}
			}
		}
		return ids
	}
	if got := alternates(root, "c2"); !slices.Equal(got, []string{"g"}) {
		t.Fatalf("root redirects to c2 with alternates %v two ticks after g joined it; want [g]", got)
	}
	if got := alternates(c1, "c2"); !slices.Equal(got, []string{"g"}) {
		t.Fatalf("c1 redirects to c2 with alternates %v two ticks after g joined it; want [g]", got)
	}
	if got := root.mx.pushFull.Load() - full0; got != 1 {
		t.Fatalf("the new fallback cost %d full entries; want 1 (c2's, to c1)", got)
	}

	// (b) One record moves from c2 up to root: root's branch keeps its
	// content, root's local summary gains a record.
	rootVersion := root.snap.Load().branchSummary.Version
	moved := deltaRecords(schema, o2.ID, 3)
	o2.SetRecords(moved[:2])
	oRoot.SetRecords(append(deltaRecords(schema, oRoot.ID, 3), moved[2]))
	full0 = root.mx.pushFull.Load()
	for i := 0; i < 2; i++ {
		driveRound(g, c1, c2, root)
	}
	if v := root.snap.Load().branchSummary.Version; v != rootVersion {
		t.Fatalf("setup: moving a record inside root's branch changed its version (%d -> %d); the test needs it unchanged", rootVersion, v)
	}
	for _, c := range []*Server{c1, c2} {
		c.mu.Lock()
		r := c.replicas["root"]
		var local uint64
		if r != nil {
			local = r.sum.Records
		}
		c.mu.Unlock()
		if local != 4 {
			t.Fatalf("%s holds root's local summary at %d records two ticks after it gained one; want 4", c.ID(), local)
		}
	}
	// Root's entry to both children, and c2's changed branch to c1.
	if got := root.mx.pushFull.Load() - full0; got != 3 {
		t.Fatalf("the moved record cost %d full entries; want 3", got)
	}
}

// writeAndSettle adds one record to srv's owner and drives the federation's
// rounds until one puts no summary on the wire.
func writeAndSettle(tb testing.TB, cl *Cluster, tr *countingTransport, srv *Server, id string) {
	tb.Helper()
	srv.mu.Lock()
	o := srv.owners[0]
	srv.mu.Unlock()
	r := o.Records()[0].Clone()
	r.ID = id
	o.AddRecords(r)
	for round := 0; ; round++ {
		if round == 16 {
			tb.Fatalf("one write still ships summaries after %d rounds", round)
		}
		before, _, _ := tr.counts()
		driveRound(cl.Servers...)
		if after, _, _ := tr.counts(); after == before {
			return
		}
	}
}

// paperReplicaSet is the replica set the paper gives a server: its siblings,
// its ancestors and their siblings, read off the tree the servers report.
func paperReplicaSet(cl *Cluster, srv *Server) []string {
	parent := map[string]string{}
	children := map[string][]string{}
	for _, s := range cl.Servers {
		if p := s.ParentID(); p != "" {
			parent[s.ID()] = p
			children[p] = append(children[p], s.ID())
		}
	}
	var set []string
	for node := srv.ID(); parent[node] != ""; node = parent[node] {
		p := parent[node]
		set = append(set, p)
		for _, sib := range children[p] {
			if sib != node {
				set = append(set, sib)
			}
		}
	}
	slices.Sort(set)
	return set
}

// TestWriteShipsOneSummaryPerServer: a write costs one summary per other
// server. A record added at a leaf of the parked 64-server federation reaches
// each other server once — up the root path as reports, everywhere else as
// the branch of the writer's ancestor on that side — and moves no ancestor
// entry, since no ancestor's local data changed. While ancestor entries also
// carried the ancestor's branch (last at 3234915), the same write shipped 225
// summaries. A record added at an interior server ships its local summary
// once to each of its descendants. Replica sets stay the paper's, and
// coverage ends exact.
func TestWriteShipsOneSummaryPerServer(t *testing.T) {
	tr := &countingTransport{Chan: transport.NewChan()}
	cl, _ := parkedFederation(t, tr, nil)
	others := len(cl.Servers) - 1
	total := cl.Servers[0].BranchRecords()

	tr.reset()
	writeAndSettle(t, cl, tr, cl.Servers[others], "write-at-leaf")
	summaries, _, _ := tr.counts()
	t.Logf("leaf write: %d summaries, %d bytes of reports and batches", summaries, tr.summaryBytes)
	if summaries > others {
		t.Errorf("a leaf write shipped %d summaries; want at most one per other server, %d", summaries, others)
	}
	if len(tr.ancestors) != 0 {
		t.Errorf("a leaf write shipped ancestor entries %v; no ancestor's local data changed", tr.ancestors)
	}

	interior := cl.Servers[1]
	var want []string
	for _, s := range cl.Servers {
		if slices.Contains(s.RootPath(), interior.ID()) && s != interior {
			want = append(want, s.Addr()+":"+interior.ID())
		}
	}
	tr.reset()
	writeAndSettle(t, cl, tr, interior, "write-at-interior")
	summaries, _, _ = tr.counts()
	got := slices.Clone(tr.ancestors)
	slices.Sort(got)
	slices.Sort(want)
	if len(want) != 20 || !slices.Equal(got, want) {
		t.Errorf("an interior write shipped ancestor entries %v; want its local summary once to each of its 20 descendants %v", got, want)
	}
	if summaries > others {
		t.Errorf("an interior write shipped %d summaries; want at most %d", summaries, others)
	}

	for _, s := range cl.Servers {
		if got := s.CoveredRecords(); got != total+2 {
			t.Errorf("%s covers %d records after both writes; want %d", s.ID(), got, total+2)
		}
		var held []string
		s.mu.Lock()
		for id := range s.replicas {
			held = append(held, id)
		}
		s.mu.Unlock()
		slices.Sort(held)
		if want := paperReplicaSet(cl, s); !slices.Equal(held, want) {
			t.Errorf("%s holds replicas %v; the paper's set is %v", s.ID(), held, want)
		}
	}
}

// TestMaintenanceByteBudget is the tier-1 guard on maintenance bytes: a
// converged 21-server fan-out-4 hierarchy, every loop parked and driven by
// hand for 32 rounds of report and replica batch, must move at most 300 bytes
// per tree edge per round in exactly two calls (requests and replies together;
// Chan counts each encoding once and has no frame header) and encode no
// summary. About 170 is measured; with a separate heartbeat (last at 948f4b6)
// it was 217 in three calls, and with the round that restated everything every
// 16 ticks (last at 915855c) the average was several thousand.
func TestMaintenanceByteBudget(t *testing.T) {
	const (
		servers = 21
		fanOut  = 4
		rounds  = 32
		budget  = 300
	)
	schema := record.DefaultSchema(2)
	tr := &countingTransport{Chan: transport.NewChan()}
	all := make([]*Server, servers)
	for i := range all {
		id := fmt.Sprintf("srv%03d", i)
		all[i] = deltaServerCfg(t, tr, id, schema, func(c *Config) { c.MaxChildren = fanOut })
		o := policy.NewOwner("own-"+id, schema, nil)
		o.SetRecords(deltaRecords(schema, o.ID, 6))
		if err := all[i].AttachOwner(o); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := all[i].Join(all[(i-1)/fanOut].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Children before parents, so one round carries a report all the way up.
	bottomUp := slices.Clone(all)
	slices.Reverse(bottomUp)
	round := func() { driveRound(bottomUp...) }
	for i := 0; i < 8; i++ {
		round()
	}
	for _, s := range all {
		if got := s.CoveredRecords(); got != servers*6 {
			t.Fatalf("%s covers %d records after warm-up; want %d", s.ID(), got, servers*6)
		}
	}

	tr.reset()
	before := tr.Stats()
	for i := 0; i < rounds; i++ {
		round()
	}
	after := tr.Stats()
	if summaries, lists, digests := tr.counts(); summaries != 0 || lists != 0 || digests != rounds*(servers-1) {
		t.Fatalf("%d rounds encoded %d summaries and sent %d list, %d digest batches; want none, none and one digest per edge per round", rounds, summaries, lists, digests)
	}
	if calls := after.Calls - before.Calls; calls != 2*rounds*(servers-1) {
		t.Fatalf("%d calls in %d rounds on %d edges; want two per edge per round", calls, rounds, servers-1)
	}
	moved := (after.BytesSent - before.BytesSent) + (after.BytesRecv - before.BytesRecv)
	perEdge := float64(moved) / float64(rounds*(servers-1))
	t.Logf("steady state: %.0f bytes per edge per round", perEdge)
	if perEdge > budget {
		t.Fatalf("steady state moves %.0f bytes per edge per round; the budget is %d", perEdge, budget)
	}
}

// TestCoverageCountsRoutedReplicasOnly moves a server under its sibling. The
// adopter still holds the newcomer as a sibling replica — nothing deletes a
// replica whose origin becomes a child; it ages out by TTL — and must not
// count those records a second time: its own branch covers them now.
func TestCoverageCountsRoutedReplicasOnly(t *testing.T) {
	tr := transport.NewChan()
	root, kids := deltaStar(t, tr, 2, "a", "b")
	a, b := kids[0], kids[1]
	if _, held := replicaVia(a, "b"); !held {
		t.Fatal("a does not hold its sibling b")
	}
	root.handle(&wire.Message{Kind: wire.KindLeave, From: b.ID(), Addr: b.Addr()})
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	driveRound(b, a, root)
	if _, held := replicaVia(a, "b"); !held {
		t.Fatal("a no longer holds its replica of b; the test needs that leftover")
	}
	for _, s := range []*Server{root, a, b} {
		if got := s.CoveredRecords(); got != 6 {
			t.Errorf("%s covers %d records; the federation holds 6", s.ID(), got)
		}
	}
}

// TestUnstatedReplicaIsNotForwarded: once its parent's list leaves an origin
// out, a server stops passing that replica on, so its children stop renewing
// it as well and a dead origin ages out of every level within one TTL rather
// than one level per TTL.
func TestUnstatedReplicaIsNotForwarded(t *testing.T) {
	tr := transport.NewChan()
	root, kids := deltaStar(t, tr, 2, "a", "b")
	a, b := kids[0], kids[1]
	schema := record.DefaultSchema(2)
	a1 := deltaServer(t, tr, "a1", schema)
	attachDeltaOwner(t, a1, schema, 2)
	if err := a1.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		driveRound(a1, a, b, root)
	}
	if via, held := replicaVia(a1, "b"); !held || via != "a" {
		t.Fatalf("a1 holds b via %q (held %v); want via a", via, held)
	}
	root.handle(&wire.Message{Kind: wire.KindLeave, From: b.ID(), Addr: b.Addr()})
	driveRound(root, a)
	if via, held := replicaVia(a, "b"); !held || via != "" {
		t.Fatalf("a holds b via %q (held %v); want a leftover nobody states", via, held)
	}
	if via, _ := replicaVia(a1, "b"); via != "" {
		t.Fatalf("a1 still renews b via %q after root stopped stating it to a", via)
	}
}
