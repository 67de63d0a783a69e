package live

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// handle dispatches one incoming message. Handlers never make outgoing
// calls, which keeps the request/reply protocol deadlock-free on
// synchronous transports.
func (s *Server) handle(msg *wire.Message) *wire.Message {
	// Any server's message raises our own epoch toward the federation
	// maximum before per-kind fencing compares against the recorded
	// relationship epochs (a client's carries zero and raises nothing).
	s.observeEpoch(msg.Epoch)
	switch msg.Kind {
	case wire.KindJoin:
		return s.handleJoin(msg)
	case wire.KindSummaryReport:
		return s.handleSummaryReport(msg)
	case wire.KindReplicaBatch:
		return s.handleReplicaBatch(msg)
	case wire.KindQuery:
		return s.handleQuery(msg)
	case wire.KindLeave:
		return s.handleLeave(msg)
	case wire.KindStatus:
		return s.handleStatus()
	case wire.KindRootProbe:
		return s.handleRootProbe(msg)
	}
	return wire.ErrorMessage(s.cfg.ID, fmt.Errorf("live: unhandled message kind %d", msg.Kind))
}

func (s *Server) ack() *wire.Message {
	return &wire.Message{Kind: wire.KindAck, From: s.cfg.ID}
}

// ackWith is an epoch-stamped ack carrying delta-dissemination feedback.
func (s *Server) ackWith(info *wire.AckInfo) *wire.Message {
	m := s.stampEpoch(s.ack())
	m.Ack = info
	return m
}

// handleJoin accepts the joiner as a child if capacity allows and the
// joiner is not on our root path (loop avoidance); otherwise it redirects
// to our children with their branch shapes.
func (s *Server) handleJoin(msg *wire.Message) *wire.Message {
	if msg.Join == nil || msg.Join.ID == "" || msg.Join.Addr == "" {
		return wire.ErrorMessage(s.cfg.ID, fmt.Errorf("live: join without a joiner ID and address"))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.rootPath {
		if id == msg.Join.ID {
			// The joiner is our ancestor: accepting would create a loop.
			return wire.ErrorMessage(s.cfg.ID, fmt.Errorf("live: %s is on my root path", msg.Join.ID))
		}
	}
	if c, already := s.children[msg.Join.ID]; already || len(s.children) < s.cfg.MaxChildren {
		if already {
			// A re-join stamped from before this child's last recovery
			// must not resurrect the dead relationship.
			if rep := s.fencedLocked(c, "join", msg); rep != nil {
				return rep
			}
			// Re-accepting a known child: keep its branch summary, depth
			// and descendant counts — rebuilding the state from scratch
			// clobbered the subtree shape until the next summary report
			// and skewed join-placement decisions. What it acked does
			// reset: the child may have restarted, and the next batch
			// then restates everything at once instead of finding out
			// through a digest it cannot match. The epoch
			// relationship restarts at the join's stamp for the same
			// reason.
			c.addr = msg.Join.Addr
			c.renewed = s.rounds.Load()
			c.push = pushState{}
			c.epoch = msg.Epoch
		} else {
			s.children[msg.Join.ID] = &childState{
				id:      msg.Join.ID,
				addr:    msg.Join.Addr,
				depth:   1,
				renewed: s.rounds.Load(),
				epoch:   msg.Epoch,
			}
		}
		s.rememberLocked(msg.Join.ID, msg.Join.Addr)
		s.publishSnapshotLocked()
		s.requestEarly() // the joiner's replica set, without waiting for the period
		return s.stampEpoch(&wire.Message{
			Kind: wire.KindJoinReply,
			From: s.cfg.ID,
			Addr: s.cfg.Addr,
			JoinReply: &wire.JoinReply{
				Accepted:   true,
				ParentID:   s.cfg.ID,
				ParentAddr: s.cfg.Addr,
			},
		})
	}
	infos := make([]wire.ChildInfo, 0, len(s.children))
	for _, c := range s.children {
		infos = append(infos, wire.ChildInfo{ID: c.id, Addr: c.addr, Depth: c.depth, Descendants: c.descendants})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return &wire.Message{
		Kind:      wire.KindJoinReply,
		From:      s.cfg.ID,
		Addr:      s.cfg.Addr,
		JoinReply: &wire.JoinReply{Accepted: false, Children: infos},
	}
}

// fencedLocked reports whether a relationship message of the given kind
// from child c is stamped with an epoch below the one recorded for it — sent
// before the child's last recovery — and if so counts it and builds the
// error reply. A healed partition replaying such a message must not refresh
// the dead relationship. Callers hold s.mu.
func (s *Server) fencedLocked(c *childState, what string, msg *wire.Message) *wire.Message {
	if msg.Epoch == 0 || msg.Epoch >= c.epoch {
		return nil
	}
	s.mx.fenced.Inc()
	return wire.ErrorMessage(s.cfg.ID, fmt.Errorf(
		"live: %s from %s fenced: epoch %d < recorded %d", what, msg.From, msg.Epoch, c.epoch))
}

// handleSummaryReport is the parent's half of the one exchange a child has
// with it: it ingests the child's branch summary, refreshes the child's
// liveness, epoch and branch shape, and answers with three verdicts. In order:
// refuse a report without a version or a sender ID and address; fence; adopt
// a sender this server does not know if capacity allows (state lost after a
// restart, or the child was pruned during a slow spell), refuse it with an
// error otherwise — the child counts refusals as misses and rejoins; refresh;
// then the content, ancestry and replica-set verdicts.
//
// Content: a version-only report (Summary nil — sent once this server
// confirmed holding the child's current branch version) costs no summary
// decode or re-merge; a version this server does not hold answers NeedFull so
// the child resends in full next tick, and so does an adopted sender whose
// report leaves out its children. Full reports are acked with the version now
// held, which is what lets the child start suppressing, and a branch taken in
// at a new version is passed on in an early round.
//
// Ancestry: our root path (so the child can rebuild its own) and the child's
// sibling list (for root election if we die while being the root) — unless
// the report's hash says the child holds exactly that already.
//
// Replica set: its digest while it is what the child last acknowledged
// (statedDigestLocked), by which the child renews its replicas or asks for a
// list (NeedList).
func (s *Server) handleSummaryReport(msg *wire.Message) *wire.Message {
	report := msg.Report
	if report == nil || report.Version == 0 || msg.From == "" || msg.Addr == "" {
		return wire.ErrorMessage(s.cfg.ID, fmt.Errorf("live: summary report without a version or a sender ID and address"))
	}
	sum, err := report.Summary.ToSummary(s.cfg.Schema, report.Version) // nil for a version-only report
	if err != nil {
		return wire.ErrorMessage(s.cfg.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, known := s.children[msg.From]
	if known {
		// Fenced before any mutation.
		if rep := s.fencedLocked(c, "report", msg); rep != nil {
			return rep
		}
	} else {
		if len(s.children) >= s.cfg.MaxChildren {
			return wire.ErrorMessage(s.cfg.ID, fmt.Errorf("live: %s is not my child", msg.From))
		}
		c = &childState{id: msg.From, addr: msg.Addr}
		s.children[msg.From] = c
	}
	s.advanceRelEpochLocked(&c.epoch, msg.Epoch)
	c.depth = report.Depth
	c.descendants = report.Descendants
	// The child's children are the failover alternates of redirects to it,
	// and they can change under an unchanged branch (a grandchild without
	// records joins or leaves). A report names them only when they changed.
	kidsChanged := report.Kids && !sameRedirects(c.kids, report.Children)
	if report.Kids {
		c.kids = report.Children
	}
	c.renewed = s.rounds.Load()
	c.push.needList = c.push.needList || report.NeedList
	ack := &wire.AckInfo{}
	switch {
	case sum != nil && (known || report.Kids):
		// A full report with the same version restates unchanged content
		// (the parent asked NeedFull): swap the object but skip the branch
		// re-merge and the early round.
		if c.branch == nil || c.version != report.Version {
			s.childEpoch++
			s.requestEarly()
		}
		c.branch = sum
		c.version = report.Version
		ack.HaveVersion = c.version
	case c.branch == nil || c.version != report.Version:
		// The sender must restate its branch in full, and an adopted one
		// the children this server's lost state held too.
		ack.NeedFull = true
	default:
		// The branch content did not change, so the branch merge epoch
		// stands, and so does the routing snapshot unless the child's own
		// children did — redirect record counts ride on c.branch.
		ack.HaveVersion = c.version
	}
	if !known || sum != nil || kidsChanged {
		s.publishSnapshotLocked()
	}
	s.mx.summaryReports.Inc()
	ack.Ancestry = s.ancestryLocked(msg.From, report.Have)
	if set, ok := s.statedDigestLocked(c); ok {
		ack.HeldCount, ack.HeldDigest = set.n, set.sum
		s.mx.pushDelta.Add(uint64(set.n))
	}
	return s.ackWith(ack)
}

// statedDigestLocked is the replica-set digest a report ack states to child
// c: the set this server refreshes there, folded now, while it is what c last
// acknowledged of it and c asked for no list. Callers hold s.mu.
func (s *Server) statedDigestLocked(c *childState) (setDigest, bool) {
	entries, all := s.replicaSetLocked()
	set, _ := childSet(entries, all, c.id)
	return set, set.n > 0 && set == c.push.sum && !c.push.needList
}

// ancestryLocked is the ancestry verdict for one child: what it should hold,
// or nil when have — its hash of what it does hold — says it holds exactly
// that. Callers hold s.mu.
func (s *Server) ancestryLocked(child string, have uint64) *wire.Ancestry {
	var sibs setDigest
	for _, c := range s.children {
		if c.id != child {
			sibs.addSibling(c.id, c.addr)
		}
	}
	if have == ancestryHash(s.rootPath, s.rootPathAddrs, sibs) {
		return nil
	}
	a := &wire.Ancestry{
		RootPath:  slices.Clone(s.rootPath),
		PathAddrs: slices.Clone(s.rootPathAddrs),
	}
	for _, c := range s.children {
		if c.id != child {
			a.Siblings = append(a.Siblings, wire.RedirectInfo{ID: c.id, Addr: c.addr})
		}
	}
	sort.Slice(a.Siblings, func(i, j int) bool { return a.Siblings[i].ID < a.Siblings[j].ID })
	return a
}

func sameRedirects(a, b []wire.RedirectInfo) bool {
	return slices.EqualFunc(a, b, func(x, y wire.RedirectInfo) bool {
		return x.ID == y.ID && x.Addr == y.Addr && x.Records == y.Records && sameRedirects(x.Alternates, y.Alternates)
	})
}

// decodeReplica reconstructs one full push entry's summary against the
// schema; decoding stays outside the server lock so slow summary rebuilds
// never stall the handlers. An entry without a version is refused.
func (s *Server) decodeReplica(p *wire.ReplicaPush, via string) (*replicaState, error) {
	if p == nil || p.Summary == nil {
		return nil, fmt.Errorf("live: replica push without payload")
	}
	if p.Version == 0 {
		return nil, fmt.Errorf("live: replica push of %s without a version", p.OriginID)
	}
	sum, err := p.Summary.ToSummary(s.cfg.Schema, p.Version)
	if err != nil {
		return nil, err
	}
	level := p.Level
	if level <= 0 {
		level = 1
	}
	return &replicaState{
		originID:   p.OriginID,
		originAddr: p.OriginAddr,
		sum:        sum,
		ancestor:   p.Ancestor,
		level:      level,
		renewed:    s.rounds.Load(),
		fallbacks:  p.Fallbacks,
		version:    p.Version,
		meta:       replicaMeta(p.Ancestor, level, p.OriginAddr, p.Fallbacks),
		via:        via,
	}, nil
}

// handleReplicaBatch takes a parent's list of the overlay replicas it
// refreshes here (see wire.ReplicaBatch). The list is decoded first, then
// applied under a single lock acquisition, so concurrent queries observe
// either the previous overlay state or the complete new one — never a
// half-applied tick. Full entries replace the replica; tag-only entries renew
// the replica they name when its stored tag matches, and land in the ack's
// NeedFullOrigins when it does not or the origin is unknown, so the sender
// restates that origin in full next tick. Replicas held via the sender
// that the list leaves out lose their feeder mark: the sender no longer
// renews them, and they age out. A full entry that changes a replica, at a
// server with children to pass it on to, asks for an early round.
func (s *Server) handleReplicaBatch(msg *wire.Message) *wire.Message {
	b := msg.Batch
	if b == nil || msg.From == "" || msg.Addr == "" {
		return wire.ErrorMessage(s.cfg.ID, fmt.Errorf("live: replica batch without payload or a sender ID and address"))
	}
	states := make([]*replicaState, 0, len(b.Pushes))
	var tagOnly []*wire.ReplicaPush
	for _, p := range b.Pushes {
		if p != nil && p.Summary == nil && p.Tag != 0 {
			tagOnly = append(tagOnly, p)
			continue
		}
		rs, err := s.decodeReplica(p, msg.From)
		if err != nil {
			return wire.ErrorMessage(s.cfg.ID, err)
		}
		states = append(states, rs)
	}
	var needFull []string
	s.mu.Lock()
	now := s.rounds.Load()
	s.listSeq++
	for _, rs := range states {
		if rs.originID == s.cfg.ID { // never replicate ourselves
			continue
		}
		if old := s.replicas[rs.originID]; len(s.children) > 0 && (old == nil || old.tag() != rs.tag()) {
			s.requestEarly()
		}
		rs.listed = s.listSeq
		s.replicas[rs.originID] = rs
	}
	for _, p := range tagOnly {
		if p.OriginID == s.cfg.ID {
			continue
		}
		r, ok := s.replicas[p.OriginID]
		if ok {
			r.listed = s.listSeq
		}
		if !ok || r.tag() != p.Tag {
			needFull = append(needFull, p.OriginID)
			continue
		}
		// Renewal: the held replica is confirmed current. renewed and via
		// are not part of the routing snapshot, so no republish is needed
		// for a purely tag-only batch.
		r.renewed = now
		r.via = msg.From
	}
	for _, r := range s.replicas {
		if r.via == msg.From && r.listed != s.listSeq {
			r.via = ""
		}
	}
	s.noteParentEpochLocked(msg)
	if len(states) > 0 {
		s.publishSnapshotLocked()
	}
	s.mu.Unlock()
	s.mx.replicaPushes.Add(uint64(len(states) + len(tagOnly)))
	return s.ackWith(&wire.AckInfo{NeedFullOrigins: needFull})
}

// noteParentEpochLocked raises the recorded parent epoch to a batch's stamp.
// Plain max, not the fenced advance: a delayed push from before the parent's
// recovery rewrites no ancestry, so it is a benign race here rather than an
// accepted stale mutation. Callers hold s.mu.
func (s *Server) noteParentEpochLocked(msg *wire.Message) {
	if msg.From == s.parentID && msg.Epoch > s.parentEpoch {
		s.parentEpoch = msg.Epoch
	}
}

// noteFPDescent counts empty contacts: a non-start query that found
// nothing here — no local records and no further redirects — means the
// summary some peer routed on matched spuriously, so the whole descent hop
// was a false positive. Start-contact queries are excluded (no summary
// advertised this server to the requester), as are NotModified
// revalidations and shed/coarse answers.
func (s *Server) noteFPDescent(q *wire.QueryDTO, rep *wire.QueryReply) {
	if q.Start || rep.NotModified || rep.Coarse ||
		len(rep.Records) > 0 || len(rep.Redirects) > 0 {
		return
	}
	s.mx.fpDescents.Inc()
}

// handleQuery evaluates the query against local data and held summaries,
// returning local matches (after owner policies) plus redirect targets,
// each annotated with failover alternates and a record-count estimate.
// Queries whose deadline budget runs out mid-evaluation are shed: the
// client has already given up on this contact, so finishing the work
// would only burn server time nobody is waiting on.
//
// The happy path takes no server lock: one atomic load of the routing
// snapshot pins a consistent view of owners, children and replicas for the
// whole evaluation, and the counters are atomics. Concurrent joins, reports
// and replica pushes publish fresh snapshots without ever blocking a query.
// The locks that remain are the data's own: each owner's answer takes its
// store's snapMu (Store.Records), and a summary-mode owner's its policy's
// RWMutex too.
func (s *Server) handleQuery(msg *wire.Message) *wire.Message {
	if msg.Query == nil {
		return wire.ErrorMessage(s.cfg.ID, fmt.Errorf("live: query without payload"))
	}
	began := time.Now()
	snap := s.snap.Load()
	q := msg.Query.ToQuery()
	if err := q.Bind(s.cfg.Schema); err != nil {
		return wire.ErrorMessage(s.cfg.ID, err)
	}
	wrap := func(rep wire.QueryReply) *wire.Message {
		out, payload := s.newQueryReply()
		*payload = rep
		return out
	}
	overBudget := func() bool {
		return msg.Query.Budget > 0 && time.Since(began) > msg.Query.Budget
	}
	// Shed to coarse, not to an error: the requester still gets a flagged
	// summary-only estimate it can act on.
	shed := func() *wire.Message {
		s.mx.shed.Inc()
		return wrap(s.coarseReply(snap, q))
	}

	// Fingerprint revalidation: when the requester's cached fingerprint
	// still matches the current routing state, nothing this server would
	// answer has changed — reply NotModified with no evaluation at all.
	var fp uint64
	if msg.Query.WantFingerprint || msg.Query.CacheFingerprint != 0 {
		fp = s.queryFingerprint(snap)
		if fp != 0 && fp == msg.Query.CacheFingerprint {
			s.mx.notModified.Inc()
			s.mx.queries.Inc()
			s.mx.evalLatency.Observe(time.Since(began))
			return wrap(wire.QueryReply{NotModified: true, Fingerprint: fp})
		}
	}

	tracing := msg.Query.Trace
	out, reply := s.newQueryReply()
	// Trace collection is opt-in per query; the untraced hot path never
	// touches these.
	var matchedChildren, matchedReplicas []string

	// Local matches: every record of a records-mode owner that matches (the
	// owner handed its records to this server, views and all), and each
	// summary-mode owner's policy-filtered answer (the "final control" step).
	for _, o := range snap.owners {
		var ans []*record.Record
		if o.Policy.Mode == policy.ExportRecords {
			ans = q.Filter(o.Records())
		} else {
			var err error
			if ans, err = o.Answer(q); err != nil {
				return wire.ErrorMessage(s.cfg.ID, err)
			}
		}
		reply.Records = wire.AppendRecords(reply.Records, ans)
		if overBudget() {
			return shed()
		}
	}

	// Redirects: matching children always; overlay replicas only on the
	// first contact (paper Fig. 2: redirected servers search their own
	// branches). The snapshot pre-built each redirect and pre-filtered
	// replicas shadowed by a child, so this is pure summary matching.
	for _, c := range snap.children {
		if c.branch != nil && q.MatchSummary(c.branch) {
			reply.Redirects = append(reply.Redirects, c.ri)
			if tracing {
				matchedChildren = append(matchedChildren, c.ri.ID)
			}
		}
	}
	if msg.Query.Start {
		for _, r := range snap.replicas {
			inScope := msg.Query.Scope < 0 || r.level <= msg.Query.Scope
			if inScope && q.MatchSummary(r.match) {
				reply.Redirects = append(reply.Redirects, r.ri)
				if tracing {
					matchedReplicas = append(matchedReplicas, r.ri.ID)
				}
			}
		}
	}
	if overBudget() {
		return shed()
	}
	if tracing {
		reply.Trace = &wire.TraceInfo{
			ServerID:        s.cfg.ID,
			EvalMicros:      uint64(time.Since(began) / time.Microsecond),
			LocalRecords:    len(reply.Records),
			Children:        len(snap.children),
			Replicas:        len(snap.replicas),
			MatchedChildren: matchedChildren,
			MatchedReplicas: matchedReplicas,
		}
	}
	if msg.Query.WantFingerprint {
		reply.Fingerprint = fp
	}
	s.mx.queries.Inc()
	s.mx.redirects.Add(uint64(len(reply.Redirects)))
	s.mx.evalLatency.Observe(time.Since(began))
	s.noteFPDescent(msg.Query, reply)
	return out
}

// coarseReply builds the degraded answer a query shed over its deadline budget
// gets instead of an error: no records or redirects, just the
// summary-derived match estimate for the whole branch.
func (s *Server) coarseReply(snap *routingSnapshot, q *query.Query) wire.QueryReply {
	rep := wire.QueryReply{Coarse: true}
	if snap.branchSummary != nil {
		est := q.EstimateMatches(snap.branchSummary)
		if !math.IsNaN(est) && !math.IsInf(est, 0) {
			rep.CoarseEstimate = est
		}
	}
	return rep
}

// newQueryReply returns a query reply message from this server and its
// still empty payload, allocated as one object.
func (s *Server) newQueryReply() (*wire.Message, *wire.QueryReply) {
	x := &struct {
		wire.Message
		rep wire.QueryReply
	}{}
	x.Message = wire.Message{Kind: wire.KindQueryReply, From: s.cfg.ID, Addr: s.cfg.Addr, QueryRep: &x.rep}
	return &x.Message, &x.rep
}

// StatusSnapshot returns the server's operational snapshot — the wire
// Status compatibility view over the same counters the obs registry
// exposes as named series. Like the query path it reads the routing
// snapshot and atomics only, so a status probe (or a /statusz scrape,
// which embeds this) never contends with the write paths.
func (s *Server) StatusSnapshot() *wire.Status {
	snap := s.snap.Load()
	st := &wire.Status{
		ID:              s.cfg.ID,
		Addr:            s.cfg.Addr,
		ParentID:        snap.parentID,
		IsRoot:          snap.parentAddr == "",
		Children:        len(snap.children),
		Replicas:        snap.numReplicas,
		Owners:          len(snap.owners),
		RootPath:        append([]string(nil), snap.rootPath...),
		QueriesServed:   s.mx.queries.Load(),
		RedirectsIssued: s.mx.redirects.Load(),
		SummariesRecv:   s.mx.summaryReports.Load(),
		QueriesShed:     s.mx.shed.Load(),
		SummaryErrors:   s.mx.summaryErrors.Load(),

		SummaryRebuildsSkipped: s.mx.rebuildsSkipped.Load(),
		ReportsSuppressed:      s.mx.reportsSuppressed.Load(),
		ReplicaPushDelta:       s.mx.pushDelta.Load(),
		ReplicaPushFull:        s.mx.pushFull.Load(),
	}
	if snap.branchSummary != nil {
		st.BranchRecords = snap.branchSummary.Records
	}
	if snap.localSummary != nil {
		st.LocalRecords = snap.localSummary.Records
	}
	if ts, ok := s.tr.(transport.Statser); ok {
		tst := ts.Stats()
		st.Transport = &wire.TransportStatus{
			Dials:     tst.Dials,
			Reuses:    tst.Reuses,
			InFlight:  tst.InFlight,
			Calls:     tst.Calls,
			Errors:    tst.Errors,
			Retries:   tst.Retries,
			BytesSent: tst.BytesSent,
			BytesRecv: tst.BytesRecv,
			P50Micros: uint64(tst.Latency.Percentile(0.50) / time.Microsecond),
			P99Micros: uint64(tst.Latency.Percentile(0.99) / time.Microsecond),
		}
	}
	return st
}

// handleStatus answers a KindStatus probe with StatusSnapshot.
func (s *Server) handleStatus() *wire.Message {
	return &wire.Message{Kind: wire.KindStatusReply, From: s.cfg.ID, Addr: s.cfg.Addr, Status: s.StatusSnapshot()}
}

// handleLeave removes a departing parent or child. A root's parentID is
// empty, and so is an anonymous leave's From: only a parent's leave plans a
// rejoin.
func (s *Server) handleLeave(msg *wire.Message) *wire.Message {
	s.mu.Lock()
	if _, ok := s.children[msg.From]; ok {
		s.childEpoch++ // its branch leaves the merged summary
	}
	delete(s.children, msg.From)
	delete(s.replicas, msg.From)
	if s.parentAddr != "" && msg.From == s.parentID && s.recovery == nil {
		// Capture the recovery plan now, under the lock, before anything
		// can disturb the root path or parent state. A handler makes no
		// outgoing calls: the next periodic round makes the first attempt.
		s.planRejoinLocked()
	}
	s.publishSnapshotLocked()
	s.mu.Unlock()
	return s.ack()
}
