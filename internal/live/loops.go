package live

import (
	"hash/fnv"
	"log"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"roads/internal/summary"
	"roads/internal/wire"
)

// loopRng seeds a loop's jitter RNG from the server identity (salted per
// loop), so a test cluster's tick pattern is reproducible run to run while
// distinct servers still spread out.
func loopRng(id string, salt uint64) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return rand.New(rand.NewSource(int64(h.Sum64() ^ salt)))
}

// jittered scales a period by a ±10% factor. Without jitter a large
// federation phase-locks its rounds — every server whose config was
// stamped out of the same template pushes replicas in the same instant,
// thundering-herd style; the jitter decorrelates them within one period.
func jittered(d time.Duration, rng *rand.Rand) time.Duration {
	return time.Duration(float64(d) * (0.9 + 0.2*rng.Float64()))
}

// earlyGapFactor sets how long an early round keeps the next one waiting:
// earlyGapFactor times the round's charge (round: its own work, the report's
// round trip and the first push answer), so however fast writes come a server
// spends at most about 1/(1+earlyGapFactor) of its time in what early rounds
// charge — as long as a round charges less than a twentieth of a period,
// beyond which the half-period cap sets the pace. The pushes go to every child
// at once, and the wait for the slower ones is not charged: a fan-out costs
// the gap one round trip, not one per child.
const earlyGapFactor = 9

// earlyGap is how long after an early round that charged d the next early
// round may start: a multiple of the round's own cost, never more than half a
// period. A cheap round (an idle federation, Chan) lets the next write follow
// within milliseconds; an expensive one (a loaded host, a write storm, a slow
// parent) stretches the gap toward half a period by itself.
func earlyGap(d, period time.Duration) time.Duration {
	return min(earlyGapFactor*d, period/2)
}

// aggregationLoop is the one maintenance loop. Every period it runs a
// periodic round: it refreshes the local and branch summaries, reports to
// the parent — the exchange that also carries liveness and ancestry in both
// directions (paper §III-A/B) — pushes overlay replicas to the children
// (§III-C), ages out soft state and, every mergeProbeTicks-th round, probes
// for split brains.
//
// Between periods it runs early rounds, when a write, a new child branch, a
// changed replica or an accepted join asks for one (requestEarly): content
// only, so a write crosses each hop in milliseconds instead of half a period
// on average. After an early round the next one waits earlyGap of what that
// round charged; a request inside that gap waits out the rest of it, and a
// periodic round that comes first carries what the request was for. The
// periodic timer never moves.
func (s *Server) aggregationLoop() {
	defer s.wg.Done()
	rng := loopRng(s.cfg.ID, 0xa99a)
	timer := time.NewTimer(jittered(s.cfg.AggregateEvery, rng))
	defer timer.Stop()
	var earlyAt time.Time     // no early round starts before it
	var held <-chan time.Time // fires when a request waiting out the gap may run
	for {
		select {
		case <-s.stop:
			return
		case <-timer.C:
			select {
			case <-s.wake:
			default:
			}
			held = nil
			s.round(false)
			timer.Reset(jittered(s.cfg.AggregateEvery, rng))
			continue
		case <-s.wake:
			if wait := time.Until(earlyAt); wait > 0 {
				if held == nil {
					held = time.After(wait)
				}
				continue
			}
		case <-held:
		}
		held = nil
		took := s.round(true)
		earlyAt = time.Now().Add(earlyGap(took, s.cfg.AggregateEvery))
	}
}

// round runs one aggregation round and returns what it charges toward the
// gap after it (earlyGap): its wall time less the wait for the slower children
// after the first push answer. So the charge is the round's own work, the
// report's round trip and one push round trip, however many children the
// pushes went to; a child's later answer measures the early rounds it has
// just woken more than this server. Every round sends list batches only, to
// the children whose set moved. A periodic round advances the server's clock
// (rounds), which everything soft counts: the one soft-state window and the
// split-brain probe cadence. An early round carries content only: it reports
// only a branch the parent does not hold, counts no parent miss, does not
// advance the clock and ages nothing out.
func (s *Server) round(early bool) time.Duration {
	start := time.Now()
	var now uint64
	if !early {
		now = s.rounds.Add(1)
	}
	s.refresh(early)
	s.report(early)
	if !early {
		s.executeRecovery(now)
	}
	waited := s.pushReplicas()
	if !early {
		s.ageSoftState(now)
		if now%mergeProbeTicks == 0 {
			s.membershipTick(now/mergeProbeTicks - 1)
		}
	}
	took := time.Since(start) - waited
	if early {
		s.mx.earlyRounds.Inc()
		s.earlyBusyNs.Add(took.Nanoseconds())
	}
	return took
}

// refreshSummaries rebuilds the local summary (the attached owners' exports)
// and the branch summary (local + children). Failures never abort serving —
// the previous summaries stay published — but they are counted
// (Status.SummaryErrors) and logged on each OK→failing transition, because
// a silently skipped refresh means the advertised state is going stale
// while queries still succeed.
//
// The rebuild is change-driven: each owner caches its own export and hands
// back the same pointer until its records, its views or the requested
// geometry change, the local rebuild is skipped while every pointer matches
// the last merged one, and the branch re-merge is skipped while neither the
// local content hash nor the child epoch moved — so a steady-state tick costs
// a mutex and a few counter reads per owner instead of
// O(records × attributes) work. An early round's refresh (early) is not
// counted as skipped.
func (s *Server) refreshSummaries() { s.refresh(false) }

func (s *Server) refresh(early bool) {
	start := time.Now()
	defer func() { s.refreshBusyNs.Add(time.Since(start).Nanoseconds()) }()
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()

	// Owners export in the server's one geometry. A failed export is left
	// out (nil): a partial summary beats a stale one.
	s.mu.Lock()
	owners := s.owners
	s.mu.Unlock()
	exports := make([]*summary.Summary, len(owners))
	failed := false
	for i, o := range owners {
		sum, err := o.ExportSummary(s.cfg.Summary)
		if err != nil {
			s.noteSummaryError(err)
			failed = true
			continue
		}
		exports[i] = sum
	}

	// Merge phase (owner order — deterministic content hash). Skipped when
	// every export is the one last merged and nothing failed then: the
	// published local summary is still current. A failure forces the next
	// round to rebuild, so a failing owner is recounted every round.
	rebuildLocal := !s.haveBranch || s.mergeFailed || !slices.Equal(exports, s.merged)
	var local *summary.Summary
	if rebuildLocal {
		var err error
		if local, err = summary.New(s.cfg.Schema, s.cfg.Summary); err != nil {
			s.noteSummaryError(err)
			return
		}
		for _, sum := range exports {
			if err := local.Merge(sum); err != nil {
				s.noteSummaryError(err)
				failed = true
			}
		}
		local.ComputeVersion()
	}
	s.merged, s.mergeFailed = exports, failed

	// Branch part: re-merge only when the local content or a child branch
	// actually changed; otherwise the whole refresh was a no-op and the
	// published summaries stand.
	s.mu.Lock()
	localDirty := rebuildLocal &&
		(s.localSummary == nil || local.Version != s.localSummary.Version)
	if !localDirty && s.haveBranch && s.childEpoch == s.lastChildEpoch {
		s.mu.Unlock()
		if !early {
			s.mx.rebuildsSkipped.Inc()
		}
		s.lastRefresh.Store(time.Now().UnixNano())
		if !failed {
			s.noteSummaryOK()
		}
		return
	}
	if localDirty {
		s.localSummary = local
	}
	branch := s.localSummary.Clone()
	for _, c := range s.children {
		if c.branch != nil {
			_ = branch.Merge(c.branch)
		}
	}
	branch.ComputeVersion()
	s.branchSummary = branch
	s.lastChildEpoch = s.childEpoch
	s.haveBranch = true
	s.publishSnapshotLocked()
	s.mu.Unlock()
	// Partial success still advances the staleness clock: the published
	// summaries were rebuilt this tick from everything reachable, so the
	// advertised state is current even while one owner keeps failing —
	// the per-owner errors (and the failing flag) track that separately.
	s.lastRefresh.Store(time.Now().UnixNano())
	if !failed {
		s.noteSummaryOK()
	}
}

// noteSummaryError counts one summary-refresh failure and logs only on
// the OK→failing transition, so a persistent fault produces one line
// rather than one per aggregation tick.
func (s *Server) noteSummaryError(err error) {
	s.mx.summaryErrors.Inc()
	if s.summaryFailing.CompareAndSwap(false, true) {
		log.Printf("live %s: summary refresh failing (serving previous summaries): %v", s.cfg.ID, err)
	}
}

// noteSummaryOK marks a fully clean refresh, logging the recovery if the
// previous state was failing.
func (s *Server) noteSummaryOK() {
	if s.summaryFailing.CompareAndSwap(true, false) {
		log.Printf("live %s: summary refresh recovered", s.cfg.ID)
	}
}

// RefreshInfo is a snapshot of the summary-refresh pipeline's economics:
// how many refresh ticks ran, how many reused every cached summary and how
// much wall time the refreshes consumed. The canonical benchmark reads it to
// report refresh CPU and rebuild-skip shares under write churn.
type RefreshInfo struct {
	// Ticks counts periodic aggregation rounds run; Skipped the subset
	// that reused every cached summary (owners and children all
	// unchanged). EarlyRounds counts early rounds (aggregationLoop).
	Ticks       uint64
	Skipped     uint64
	EarlyRounds uint64
	// BusySeconds is total wall time spent inside refreshSummaries.
	BusySeconds float64
}

// RefreshInfo returns the refresh pipeline counters.
func (s *Server) RefreshInfo() RefreshInfo {
	return RefreshInfo{
		Ticks:       s.rounds.Load(),
		Skipped:     s.mx.rebuildsSkipped.Load(),
		EarlyRounds: s.mx.earlyRounds.Load(),
		BusySeconds: float64(s.refreshBusyNs.Load()) / 1e9,
	}
}

// subtreeDepth returns the depth of this server's subtree (leaf = 1).
func (s *Server) subtreeDepthLocked() int {
	max := 0
	for _, c := range s.children {
		if c.depth > max {
			max = c.depth
		}
	}
	return max + 1
}

func (s *Server) descendantsLocked() int {
	total := 0
	for _, c := range s.children {
		total += c.descendants + 1
	}
	return total
}

// childRedirectsLocked snapshots the children as redirect infos (with
// branch record counts), for summary reports and replica fallbacks.
// Callers hold s.mu.
func (s *Server) childRedirectsLocked() []wire.RedirectInfo {
	if len(s.children) == 0 {
		return nil
	}
	out := make([]wire.RedirectInfo, 0, len(s.children))
	for _, c := range s.children {
		ri := wire.RedirectInfo{ID: c.id, Addr: c.addr}
		if c.branch != nil {
			ri.Records = c.branch.Records
		}
		out = append(out, ri)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// reportToParent is the one exchange a child has with its parent: it sends
// the branch summary (with depth/descendant counts piggybacked) up the
// hierarchy, and the ack brings down what the parent holds of it.
//
// Every report carries the branch content version, and while the parent
// keeps confirming it holds the current version the summary payload is
// dropped entirely — a version-only report still refreshes liveness and
// branch shape but moves ~30 bytes instead of the full summary. A version
// mismatch (parent asked NeedFull) or any content change switches back to a
// full report.
//
// Every report also carries the hash of the ancestry held — the root path
// above this server and its siblings (for root election) — and the ack brings
// the content only when the parent would say otherwise; it names this
// server's children only when the parent has not acked them. The ack states
// the digest of the replica set the parent refreshes here while nothing in it
// moved: the replicas held via the parent are renewed when they fold to it,
// and the next report asks for a list (NeedList) when not. A failed or refused
// exchange is a miss, and heartbeatMiss of them in a row are a dead parent.
// The ack is applied only if the parent is still the one the report went to
// (a slow reply from a just-replaced parent must not overwrite post-rejoin
// ancestry) and only if it is not fenced (stamped with an epoch below the
// parent's recorded one — a reply from before the parent's last recovery).
//
// An early round's report (early) goes only when the parent lacks the
// branch, and its failure is no miss: the failure detector counts periodic
// exchanges only.
func (s *Server) reportToParent() { s.report(false) }

func (s *Server) report(early bool) {
	s.mu.Lock()
	parentAddr := s.parentAddr
	branch := s.branchSummary
	if parentAddr == "" || branch == nil {
		s.mu.Unlock()
		return
	}
	held := !s.parentNeedFull && s.parentHaveVersion == branch.Version
	if early && held {
		s.mu.Unlock()
		return
	}
	kids := s.childRedirectsLocked()
	report := &wire.SummaryReport{
		Depth:       s.subtreeDepthLocked(),
		Descendants: s.descendantsLocked(),
		Version:     branch.Version,
		Have:        s.heldAncestryLocked(),
		NeedList:    s.parentNeedList,
	}
	if kidsHash(kids) != s.parentKids {
		report.Kids, report.Children = true, kids
	}
	s.mu.Unlock()
	if held {
		s.mx.reportsSuppressed.Inc()
	} else {
		report.Summary = wire.FromSummary(branch)
	}
	rep, err := s.tr.Call(parentAddr, s.stampEpoch(&wire.Message{
		Kind:   wire.KindSummaryReport,
		From:   s.cfg.ID,
		Addr:   s.cfg.Addr,
		Report: report,
	}))
	if err != nil || rep.Ack == nil { // unreachable, or refused with an error
		if !early {
			s.noteParentMiss(parentAddr)
		}
		return
	}
	s.observeEpoch(rep.Epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parentAddr != parentAddr {
		// The parent changed while the call was in flight: this ack
		// describes the dead relationship, not the new one.
		return
	}
	s.parentMisses = 0
	if rep.Epoch != 0 && rep.Epoch < s.parentEpoch {
		s.mx.fenced.Inc()
		return // stale regime: fenced
	}
	s.advanceRelEpochLocked(&s.parentEpoch, rep.Epoch)
	ack := rep.Ack
	switch {
	case ack.NeedFull:
		s.parentNeedFull = true
		s.parentHaveVersion = 0
		s.parentKids = 0
	case ack.HaveVersion != 0:
		s.parentHaveVersion = ack.HaveVersion
		s.parentNeedFull = false
	}
	if report.Kids && !ack.NeedFull {
		s.parentKids = kidsHash(kids)
	}
	// Without a stated digest there is nothing to miss: a NeedList sent was taken.
	s.parentNeedList = ack.HeldCount != 0 && !s.renewHeldLocked(setDigest{sum: ack.HeldDigest, n: ack.HeldCount})
	if a := ack.Ancestry; a != nil {
		s.rootPath = append(slices.Clone(a.RootPath), s.cfg.ID)
		s.rootPathAddrs = append(slices.Clone(a.PathAddrs), s.cfg.Addr)
		s.siblingsOfMe = a.Siblings
		s.rememberPathLocked()
		s.publishSnapshotLocked()
	}
}

// renewHeldLocked reports whether the replicas held via the parent fold to
// the digest its report ack stated, and renews them all if they do. Callers
// hold s.mu.
func (s *Server) renewHeldLocked(stated setDigest) bool {
	var held setDigest
	for id, r := range s.replicas {
		if r.via == s.parentID {
			held.add(id, r.tag())
		}
	}
	if held == stated {
		now := s.rounds.Load()
		for _, r := range s.replicas {
			if r.via == s.parentID {
				r.renewed = now
			}
		}
		s.mx.replicaPushes.Add(uint64(held.n))
	}
	return held == stated
}

// pushEntry is one origin this server refreshes at its children this tick:
// a child's branch (for the child's siblings), this server's local summary
// (for its descendants), or a replica it holds and hands one level down. It
// keeps the parts of a full entry and builds the DTO only when some child
// needs it.
type pushEntry struct {
	origin, addr string
	sum          *summary.Summary
	ancestor     bool
	level        int
	fallbacks    []wire.RedirectInfo
	version      uint64
	tag          uint64
	dto          *wire.ReplicaPush // the full entry, built on first use and shared by the children
}

// full is the entry with its summary and metadata.
func (e *pushEntry) full() *wire.ReplicaPush {
	if e.dto == nil {
		e.dto = &wire.ReplicaPush{
			OriginID:   e.origin,
			OriginAddr: e.addr,
			Summary:    wire.FromSummary(e.sum),
			Ancestor:   e.ancestor,
			Level:      e.level,
			Fallbacks:  e.fallbacks,
			Version:    e.version,
		}
	}
	return e.dto
}

// replicaSetLocked is the replica set this server refreshes at its children,
// one entry per origin, and all of them folded: each child's branch
// (for the child's siblings), this server's own local summary (ancestor
// push), and every replica its parent states (sibling replicas become the
// child's ancestor-sibling replicas; ancestor replicas stay ancestors), each
// tagged with the hash of all a full entry would store (replicaTag). A child
// is sent all but its own branch (childSet). After L rounds every server
// holds exactly the paper's replica set. Every entry carries the one summary
// its holders route on — an ancestor's branch is a merge of summaries its
// descendants already hold — so a write ships one summary to each other
// server: the writer's local to its descendants, and the branch of the
// writer's ancestor on its side to everyone else. Callers hold s.mu.
func (s *Server) replicaSetLocked() ([]pushEntry, setDigest) {
	entries := make([]pushEntry, 0, len(s.children)+1+len(s.replicas))
	// Sibling branches: distance 1 from the child.
	for _, c := range s.children {
		if c.branch != nil {
			entries = append(entries, pushEntry{origin: c.id, addr: c.addr, sum: c.branch,
				level: 1, fallbacks: c.kids, version: c.version})
		}
	}
	// Everything else goes to every child alike: self as ancestor (local
	// summary, distance 1), then everything this server replicates (its
	// siblings and ancestors become the child's ancestor-siblings and
	// ancestors, one level further away).
	if s.localSummary != nil {
		entries = append(entries, pushEntry{origin: s.cfg.ID, addr: s.cfg.Addr, sum: s.localSummary,
			ancestor: true, level: 1, version: s.localSummary.Version})
	}
	for _, r := range s.replicas {
		if _, isChild := s.children[r.originID]; isChild || r.originID == s.cfg.ID {
			// A leftover from before a re-parenting. The child's own report
			// (or this server itself) is the fresher statement of that
			// origin, and one origin goes into a set once.
			continue
		}
		if r.via != s.parentID {
			// Nobody states this origin here any more: the parent's list left
			// it out, or it came from a former parent. It ages out, and passing
			// it on would keep renewing it at the children until then, so a
			// dead origin would age out one level at a time.
			continue
		}
		entries = append(entries, pushEntry{origin: r.originID, addr: r.originAddr, sum: r.sum,
			ancestor: r.ancestor, level: r.level + 1, fallbacks: r.fallbacks, version: r.version})
	}
	var all setDigest
	for i := range entries {
		e := &entries[i]
		e.tag = replicaTag(replicaMeta(e.ancestor, e.level, e.addr, e.fallbacks), e.version)
		all.add(e.origin, e.tag)
	}
	return entries, all
}

// childSet is the set one child is sent: all of replicaSetLocked's but the
// child's own branch, whose index it returns (-1 if the child has none yet).
func childSet(entries []pushEntry, all setDigest, child string) (setDigest, int) {
	for i := range entries {
		if entries[i].origin == child {
			return all.without(child, entries[i].tag), i
		}
	}
	return all, -1
}

// pushReplicas sends a list batch (see wire.ReplicaBatch) to every child
// whose set moved since it last acknowledged one: full entries where the
// acknowledged tag differs, tag-only entries elsewhere. While a child's set
// folds to the digest of what it acknowledged, nothing it holds can differ
// from what a restatement would store: it is sent nothing, and its report
// ack states the digest. A child that misses the digest says NeedList and is
// sent the list; one that cannot match a tag-only entry names the origin in
// NeedFullOrigins and is sent that entry in full. Both corrections take
// effect on the next round, so no state needs a periodic restatement to heal.
//
// Every batch is built here, on the round's goroutine: a full entry's DTO is
// built on first use and then shared by the batches. The batches then go to
// their children at once, the first on the round's goroutine and each other
// on one of its own (a server has at most MaxChildren children), and the
// pushes return once every answer is in, each applied to its own child. The
// result is how long the round waited after the first answer: the part of the
// fan-out an early round does not charge (see round).
func (s *Server) pushReplicas() (waited time.Duration) {
	// Snapshot under the lock: childState fields are mutated in place by
	// summary reports, so copy the values; summary objects themselves are
	// replaced wholesale on update and never mutated after publish, and an
	// acked map is never written once it is installed.
	s.mu.Lock()
	if len(s.children) == 0 {
		s.mu.Unlock()
		return 0
	}
	children := make([]childState, 0, len(s.children))
	for _, c := range s.children {
		children = append(children, *c)
	}
	entries, all := s.replicaSetLocked()
	s.mu.Unlock()
	sort.Slice(children, func(i, j int) bool { return children[i].id < children[j].id })

	var pushes []childPush
	for _, child := range children {
		set, own := childSet(entries, all, child.id)
		if set.n == 0 || (set == child.push.sum && !child.push.needList) {
			continue
		}
		pushes = append(pushes, s.childBatch(child, entries, own, set.n))
	}
	if len(pushes) == 0 {
		return 0
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range pushes[1:] {
		wg.Add(1)
		go func(p *childPush) {
			defer wg.Done()
			s.push(p, start)
		}(&pushes[1+i])
	}
	s.push(&pushes[0], start) // on the round's goroutine, whose stack has grown
	wg.Wait()
	first := pushes[0].answered
	for _, p := range pushes[1:] {
		first = min(first, p.answered)
	}
	return time.Since(start) - first
}

// childPush is one child's list batch in a round: the message, what its list
// states by origin, and when the child answered, counted from the fan-out's
// start.
type childPush struct {
	id, addr string
	msg      *wire.Message
	listed   map[string]uint64
	answered time.Duration
}

// childBatch builds the list batch for one child: every entry but the
// child's own branch (index own), tag-only where the child acknowledged the
// entry's tag. The tag-only entries share one backing array, counted first so
// that a batch of full entries allocates none.
func (s *Server) childBatch(child childState, entries []pushEntry, own, n int) childPush {
	held := func(e *pushEntry) bool { return child.push.acked[e.origin] == e.tag }
	tags := 0
	for i := range entries {
		if i != own && held(&entries[i]) {
			tags++
		}
	}
	tagOnly := make([]wire.ReplicaPush, 0, tags)
	batch := &wire.ReplicaBatch{Pushes: make([]*wire.ReplicaPush, 0, n)}
	listed := make(map[string]uint64, n) // what the list states, by origin
	for i := range entries {
		e := &entries[i]
		if i == own {
			continue
		}
		listed[e.origin] = e.tag
		if held(e) {
			// The entry that stands in for the full one: it renews the
			// replica for the origin ID and nine bytes.
			tagOnly = append(tagOnly, wire.ReplicaPush{OriginID: e.origin, Tag: e.tag})
			batch.Pushes = append(batch.Pushes, &tagOnly[len(tagOnly)-1])
			s.mx.pushDelta.Inc()
		} else {
			batch.Pushes = append(batch.Pushes, e.full())
			s.mx.pushFull.Inc()
		}
	}
	return childPush{id: child.id, addr: child.addr, listed: listed, msg: s.stampEpoch(&wire.Message{
		Kind:  wire.KindReplicaBatch,
		From:  s.cfg.ID,
		Addr:  s.cfg.Addr,
		Batch: batch,
	})}
}

// push sends one child its batch, notes when the answer came, and applies the
// ack to the child's state: what the child now holds via this server is the
// list, minus what it asked for in full.
func (s *Server) push(p *childPush, start time.Time) {
	rep, err := s.tr.Call(p.addr, p.msg)
	p.answered = time.Since(start)
	if err != nil || rep.Ack == nil {
		return // unreachable, or the batch was refused: nothing learned
	}
	s.observeEpoch(rep.Epoch)
	next := pushState{acked: p.listed}
	for _, o := range rep.Ack.NeedFullOrigins {
		delete(p.listed, o)
	}
	for o, tag := range p.listed {
		next.sum.add(o, tag)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.children[p.id]; ok {
		if rep.Epoch > c.epoch {
			// Plain max, not the fenced advance: a late ack from before
			// the child's recovery is a benign race here, not an accepted
			// stale mutation.
			c.epoch = rep.Epoch
		}
		c.push = next
	}
}

// ageSoftState drops what this server holds from its peers — a child's
// branch and an overlay replica — once replicaRounds of its own periodic
// rounds, now being the current one, have passed since the last renewal (a
// child's report or join; a full entry, a matching tag-only entry or a
// matching digest on a report ack). A crashed child's subtree then rejoins
// via its root path, and a crashed origin stops attracting redirects.
// roads_children_pruned_total counts the children dropped.
func (s *Server) ageSoftState(now uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lapsed := func(renewed uint64) bool { return renewed+replicaRounds < now }
	changed := false
	for id, c := range s.children {
		if lapsed(c.renewed) {
			delete(s.children, id)
			s.childEpoch++ // its branch leaves the merged summary
			s.mx.childrenPruned.Inc()
			changed = true
		}
	}
	for id, r := range s.replicas {
		if lapsed(r.renewed) {
			delete(s.replicas, id)
			changed = true
		}
	}
	if changed {
		s.publishSnapshotLocked()
	}
}

// heldAncestryLocked hashes what this server holds of a report ack's
// ancestry — the root path above it and its siblings — the way the parent
// hashes what it would send (ancestryHash). Callers hold s.mu.
func (s *Server) heldAncestryLocked() uint64 {
	n := len(s.rootPath) - 1
	if n < 0 || len(s.rootPathAddrs) != n+1 {
		return 0 // nothing coherent held: ask for the content
	}
	var sibs setDigest
	for _, sib := range s.siblingsOfMe {
		sibs.addSibling(sib.ID, sib.Addr)
	}
	return ancestryHash(s.rootPath[:n], s.rootPathAddrs[:n], sibs)
}

// noteParentMiss counts one failed or refused exchange with the parent at
// parentAddr and, at heartbeatMiss of them in a row, gives the parent up: the
// recovery's first attempt runs later in the same round.
func (s *Server) noteParentMiss(parentAddr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parentAddr == parentAddr { // else it was replaced mid-flight, and the miss is not the new one's
		s.parentMisses++
		if s.parentMisses >= heartbeatMiss && s.recovery == nil {
			s.planRejoinLocked()
		}
	}
}

// rejoinPlan captures, at the moment a parent failure is detected, the
// state a recovery needs: the surviving ancestry and the election order. It
// is captured under the lock the failure was detected under, so it is the
// ancestry the dead parent last stated: an orphan planning from any other
// path elects itself root (hierarchy split). attempt counts the attempts made
// so far, and due is the periodic round the next may run in; only the
// server's rounds touch them.
type rejoinPlan struct {
	ancestors     []string // addresses, nearest (grandparent) first
	parentWasRoot bool
	// smaller are the dead parent's other children with IDs smaller than
	// ours, smallest first: the election's join targets (edges toward
	// smaller IDs cannot form adoption cycles).
	smaller []wire.RedirectInfo
	attempt int
	due     uint64
}

// planRejoinLocked stores the plan, begins the recovery transaction, bumps
// the membership epoch (fencing everything still loyal to the dead parent's
// regime), and clears the dead parent. The next periodic round makes the
// first attempt — the current one, when the round's own report detected the
// loss. Callers hold s.mu and must have checked that no recovery is in
// flight (s.recovery == nil).
func (s *Server) planRejoinLocked() {
	p := &rejoinPlan{}
	for _, sib := range s.siblingsOfMe {
		if sib.ID != s.parentID && sib.ID < s.cfg.ID {
			p.smaller = append(p.smaller, sib)
		}
	}
	sort.Slice(p.smaller, func(i, j int) bool { return p.smaller[i].ID < p.smaller[j].ID })
	// The root path is [root ... grandparent parent self]; the dead
	// parent was the root exactly when nothing sits above it.
	path := s.rootPath
	addrs := s.rootPathAddrs
	p.parentWasRoot = len(path) <= 2
	for i := len(path) - 3; i >= 0 && i < len(addrs); i-- {
		p.ancestors = append(p.ancestors, addrs[i])
	}
	// The dying ancestry is exactly what split-brain probing needs later.
	s.rememberPathLocked()
	s.recovery = p
	s.epoch.Add(1)
	s.parentID = ""
	s.parentAddr = ""
	s.parentMisses = 0
	s.parentHaveVersion, s.parentNeedFull = 0, false
	s.parentKids, s.parentNeedList = 0, false
	s.parentEpoch = 0
	s.publishSnapshotLocked()
	s.mx.parentFailovers.Inc()
}
