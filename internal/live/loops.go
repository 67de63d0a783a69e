package live

import (
	"hash/fnv"
	"log"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"roads/internal/policy"
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

// aggregationLoop is the one maintenance loop. Every period it runs a
// periodic round: it refreshes the local and branch summaries, reports to
// the parent — the exchange that also carries liveness and ancestry in both
// directions (paper §III-A/B) — pushes overlay replicas to the children
// (§III-C) and ages out soft state.
//
// Between periods it runs early rounds, when a write signal, an urgent report
// or entry, or an accepted join asks for one (requestEarly): content only, so
// a write crosses each hop in milliseconds instead of half a period on
// average. At most one early round starts per half period; a request inside
// that gap waits out the rest of it, and a periodic round that comes first
// carries what the request was for. The periodic timer never moves.
func (s *Server) aggregationLoop() {
	defer s.wg.Done()
	rng := loopRng(s.cfg.ID, 0xa99a)
	timer := time.NewTimer(jittered(s.cfg.AggregateEvery, rng))
	defer timer.Stop()
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
			if wait := time.Until(time.Unix(0, s.earlyAt.Load())); wait > 0 {
				if held == nil {
					held = time.After(wait)
				}
				continue
			}
		case <-held:
		}
		held = nil
		s.earlyAt.Store(time.Now().Add(s.cfg.AggregateEvery / 2).UnixNano())
		s.round(true)
	}
}

// round runs one aggregation round. An early round carries content only:
// it reports only a branch the parent does not hold and sends only list
// batches, to the children whose set moved. It counts no parent miss, does
// not advance the replan cadence and prunes nothing — liveness, replans and
// ageing stay with the periodic round.
func (s *Server) round(early bool) {
	if early {
		s.mx.earlyRounds.Inc()
	}
	s.refresh(early)
	s.report(early)
	s.push(early)
	if !early {
		s.pruneDeadChildren()
		s.pruneStaleReplicas()
	}
}

// exportWorkers bounds the concurrent owner exports one refresh runs:
// exports are independent CPU-bound FromRecords builds, but one refresh
// must not commandeer the whole machine.
const exportWorkers = 4

// refreshSummaries rebuilds the local summary (store + owners) and the
// branch summary (local + children). Failures never abort serving — the
// previous summaries stay published — but they are counted
// (Status.SummaryErrors) and logged on each OK→failing transition, because
// a silently skipped refresh means the advertised state is going stale
// while queries still succeed.
//
// The rebuild is change-driven: the store caches its own export against its
// mutation epoch, each owner's export is cached against the owner's
// record-set generation and view revision, and the branch re-merge is
// skipped while neither the local content hash nor the child epoch moved —
// so a steady-state tick costs a few counter reads instead of
// O(records × attributes) work. Owners that did change
// re-export concurrently on a bounded worker pool.
//
// A local summary rebuilt after an owner's write signal is urgent content,
// and so is a branch rebuilt from it or from an urgent child branch. An
// early round's refresh (early) neither counts toward the replan cadence nor
// replans.
func (s *Server) refreshSummaries() { s.refresh(false) }

func (s *Server) refresh(early bool) {
	start := time.Now()
	defer func() { s.refreshBusyNs.Add(time.Since(start).Nanoseconds()) }()
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if !early {
		round := s.aggRound.Add(1)
		if s.planner != nil && round%replanEvery == 0 {
			s.replanLocked()
		}
	}
	// An owner signals after its write, so the exports below see every write
	// counted here.
	writes := s.writes.Load()
	wrote := writes != s.seenWrites
	s.seenWrites = writes
	failed := false

	// Store part: the store hands back the summary it last merged until its
	// mutation epoch moves (or a replan re-keys its geometry), so a new
	// pointer is what "changed" means. A re-export is a merge of per-shard
	// partial summaries maintained on write, so even a changed tick costs
	// the shards touched since the last export, not O(records × attributes).
	sum, err := s.store.ExportSummary()
	if err != nil {
		s.noteSummaryError(err)
		return
	}
	storeFresh := sum != s.storeSummary
	s.storeSummary = sum

	// Owner part: reuse cached exports for unchanged owners; re-export
	// the rest (concurrently when several changed at once).
	s.mu.Lock()
	owners := append([]*policy.Owner(nil), s.owners...)
	s.mu.Unlock()
	exports := make([]*summary.Summary, len(owners)) // cached or fresh, nil = skip
	gens := make([]uint64, len(owners))
	errs := make([]error, len(owners))
	fresh := make([]bool, len(owners))
	var need []int
	for i, o := range owners {
		if o.Policy.Mode != policy.ExportSummary {
			continue // records-mode data already sits in the store
		}
		if e, ok := s.ownerCache[o]; ok && e.gen == o.Generation() && e.sum.PolicyRev == o.Policy.Rev() {
			exports[i] = e.sum
			continue
		}
		need = append(need, i)
	}
	// Owners export in the current adaptive geometry (curCfg is refresh
	// state, stable while refreshMu is held; it equals Config.Summary when
	// adaptation is off or the plan is at base).
	curCfg := s.curCfg
	export := func(i int) {
		o := owners[i]
		// Generation before export: a mutation landing between the two
		// makes the cached summary newer than its generation claims, so
		// the next tick re-exports — never the stale direction.
		gens[i] = o.Generation()
		exports[i], errs[i] = o.ExportSummary(curCfg)
		fresh[i] = true
	}
	if len(need) > 1 {
		workers := exportWorkers
		if workers > len(need) {
			workers = len(need)
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					export(i)
				}
			}()
		}
		for _, i := range need {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for _, i := range need {
			export(i)
		}
	}

	// Merge phase (serialized, owner order — deterministic content hash).
	// Skipped entirely when nothing changed: the published local summary
	// is still current.
	rebuildLocal := storeFresh || len(need) > 0
	var local *summary.Summary
	if rebuildLocal {
		local = s.storeSummary.Clone()
		for i, o := range owners {
			if o.Policy.Mode != policy.ExportSummary {
				continue
			}
			if fresh[i] && errs[i] != nil {
				// Skip this owner's contribution but keep the rest of the
				// refresh: a partial summary beats a stale one. Not cached,
				// so every tick retries (and keeps counting the error).
				s.noteSummaryError(errs[i])
				failed = true
				continue
			}
			if exports[i] == nil {
				continue
			}
			if err := local.Merge(exports[i]); err != nil {
				s.noteSummaryError(err)
				failed = true
				delete(s.ownerCache, o) // retry (and recount) next tick
				continue
			}
			if fresh[i] {
				s.ownerCache[o] = ownerCacheEntry{gen: gens[i], sum: exports[i]}
			}
		}
		local.Origin = s.cfg.ID
		local.ComputeVersion()
	}

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
		s.localUrgent = wrote
	}
	if (localDirty && wrote) || s.childUrgent {
		s.branchUrgent = true
	}
	s.childUrgent = false
	branch := s.localSummary.Clone()
	branch.Origin = s.cfg.ID
	for _, c := range s.children {
		if c.branch != nil {
			_ = branch.Merge(c.branch)
		}
	}
	// Re-condense after the child merges: children export their own
	// condensed sets, but merging branches can push the union back over
	// the threshold. Must precede ComputeVersion so the stamped version
	// reflects the condensed content.
	branch.Condense()
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

// replanLocked folds the accumulated false-positive heat into the planner
// and installs the resulting geometry as the current export configuration.
// Callers hold refreshMu. Drained heat decays by half each replan (EWMA),
// so an attribute that stops attracting false-positive descents cools off
// and its resolution drifts back to base. A changed plan re-keys every
// summary source: the store re-summarizes under the new geometry and the
// owner export cache is dropped so owners re-export (Owner.ExportSummary
// re-enables its own store on a config change by itself).
func (s *Server) replanLocked() {
	for i := range s.fpHeat {
		h := s.fpHeat[i].Swap(0)
		name := s.cfg.Schema.Attr(i).Name
		s.heat[name] = s.heat[name]*0.5 + float64(h)
	}
	plan := s.planner.Replan(s.cfg.Schema, s.heat)
	newCfg := s.cfg.Summary
	newCfg.Resolution = plan
	deviation := 0
	for _, l := range s.planner.Levels() {
		if l != 0 {
			deviation++
		}
	}
	s.planDeviation.Store(int64(deviation))
	if newCfg.Equal(s.curCfg) {
		return
	}
	// Re-key the store's partial summaries to the new geometry before
	// adopting it; on failure the previous geometry stays installed and
	// the next replan retries.
	if err := s.store.EnableSummaries(newCfg); err != nil {
		s.noteSummaryError(err)
		return
	}
	s.curCfg = newCfg
	for o := range s.ownerCache {
		delete(s.ownerCache, o)
	}
	s.mx.replans.Inc()
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
// how many refresh ticks ran, how many reused every cached summary, how
// much wall time the refreshes consumed, and the store's partial-summary
// maintenance counters. The canonical benchmark reads it to report refresh
// CPU and rebuild-skip shares under write churn.
type RefreshInfo struct {
	// Ticks counts periodic aggregation rounds run; Skipped the subset
	// that reused every cached summary (store, owners and children all
	// unchanged). EarlyRounds counts early rounds (aggregationLoop).
	Ticks       uint64
	Skipped     uint64
	EarlyRounds uint64
	// BusySeconds is total wall time spent inside refreshSummaries.
	BusySeconds float64
	// StoreShardRebuilds / StorePartialMerges / StoreExportsCached are the
	// server store's partial-summary counters (see store.Stats).
	StoreShardRebuilds uint64
	StorePartialMerges uint64
	StoreExportsCached uint64
}

// RefreshInfo returns the refresh pipeline counters.
func (s *Server) RefreshInfo() RefreshInfo {
	st := s.store.Stats()
	return RefreshInfo{
		Ticks:              s.aggRound.Load(),
		Skipped:            s.mx.rebuildsSkipped.Load(),
		EarlyRounds:        s.mx.earlyRounds.Load(),
		BusySeconds:        float64(s.refreshBusyNs.Load()) / 1e9,
		StoreShardRebuilds: st.ShardRebuilds,
		StorePartialMerges: st.PartialMerges,
		StoreExportsCached: st.ExportsCached,
	}
}

// AdaptiveInfo is a snapshot of one server's adaptive-summary state: the
// feedback the planner has consumed and the plan it is currently running.
type AdaptiveInfo struct {
	// Enabled reports whether this server's planner replans (on by
	// default; off under DisableAdaptiveSummaries).
	Enabled bool
	// Replans counts summary-geometry changes installed; FPDescents the
	// false-positive descents detected on the query path (counted whether
	// or not adaptation is enabled, so static baselines measure too).
	Replans    uint64
	FPDescents uint64
	// PlanDeviation is the summed |resolution level| across attributes —
	// zero means the current plan is the static base configuration.
	PlanDeviation int64
}

// AdaptiveInfo returns the adaptive-summary counters.
func (s *Server) AdaptiveInfo() AdaptiveInfo {
	return AdaptiveInfo{
		Enabled:       s.planner != nil,
		Replans:       s.mx.replans.Load(),
		FPDescents:    s.mx.fpDescents.Load(),
		PlanDeviation: s.planDeviation.Load(),
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
// the content only when the parent would say otherwise. A failed or refused
// exchange is a miss, and heartbeatMiss of them in a row are a dead parent.
// The ack is applied only if the parent is still the one the report went to
// (a slow reply from a just-replaced parent must not overwrite post-rejoin
// ancestry) and only if it is not fenced (stamped with an epoch below the
// parent's recorded one — a reply from before the parent's last recovery).
//
// A full report is urgent while the branch holds urgent content the parent
// has not confirmed. An early round's report (early) goes only when the
// parent lacks the branch, and its failure is no miss: the failure detector
// counts periodic exchanges only.
func (s *Server) reportToParent() { s.report(false) }

func (s *Server) report(early bool) {
	s.mu.Lock()
	parentAddr := s.parentAddr
	branch := s.branchSummary
	if parentAddr == "" || branch == nil {
		s.mu.Unlock()
		return
	}
	held := !s.parentNeedFull && branch.Version != 0 && s.parentHaveVersion == branch.Version
	if early && held {
		s.mu.Unlock()
		return
	}
	report := &wire.SummaryReport{
		Depth:       s.subtreeDepthLocked(),
		Descendants: s.descendantsLocked(),
		Children:    s.childRedirectsLocked(),
		Version:     branch.Version,
		Have:        s.heldAncestryLocked(),
		Urgent:      !held && s.branchUrgent,
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
	case ack.HaveVersion != 0:
		s.parentHaveVersion = ack.HaveVersion
		s.parentNeedFull = false
		if s.branchSummary != nil && s.branchSummary.Version == ack.HaveVersion {
			s.branchUrgent = false // the parent holds it
		}
	}
	if a := ack.Ancestry; a != nil {
		s.rootPath = append(slices.Clone(a.RootPath), s.cfg.ID)
		s.rootPathAddrs = append(slices.Clone(a.PathAddrs), s.cfg.Addr)
		s.siblingsOfMe = a.Siblings
		s.rememberPathLocked()
		s.publishSnapshotLocked()
	}
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
	urgent       bool
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
			Urgent:     e.urgent,
		}
	}
	return e.dto
}

// tagOnly is the entry that stands in for full toward a child that already
// confirmed holding the tag: it renews the replica's TTL for the origin ID
// and nine bytes.
func (e *pushEntry) tagOnly() *wire.ReplicaPush {
	return &wire.ReplicaPush{OriginID: e.origin, Tag: e.tag}
}

// pushReplicas distributes overlay state to every child: each sibling's
// branch summary, this server's own local summary (ancestor push), and all
// replicas this server holds (sibling replicas become the child's
// ancestor-sibling replicas; ancestor replicas stay ancestors). After L
// rounds every server holds exactly the paper's replica set. Every entry
// carries the one summary its holders route on — an ancestor's branch is a
// merge of summaries its descendants already hold — so a write ships one
// summary to each other server: the writer's local to its descendants, and
// the branch of the writer's ancestor on its side to everyone else.
//
// One KindReplicaBatch per child per tick, in one of two forms (see
// wire.ReplicaBatch). Every entry has a tag, the hash of all a full entry
// would store (replicaTag), and the tags each child acknowledged are
// remembered. While the set to send folds to the digest of what the child
// acknowledged, nothing it holds can differ from what a restatement would
// store, and the batch is that digest alone. Otherwise the batch lists the
// set: full entries where the acknowledged tag differs, tag-only entries
// elsewhere. A child that cannot match a digest answers NeedFull and is sent
// the list; a child that cannot match a tag-only entry names the origin in
// NeedFullOrigins and is sent that entry in full. Both corrections take
// effect on the next tick, so no state needs a periodic restatement to heal.
//
// A full entry is urgent when its summary came in urgent (or, for this
// server's own local summary, was rebuilt after a write). An early round's
// push (early) sends list batches only: a child whose set has not moved gets
// nothing until the period.
func (s *Server) pushReplicas() { s.push(false) }

func (s *Server) push(early bool) {
	// Snapshot under the lock: childState fields are mutated in place by
	// summary reports, so copy the values; summary objects themselves are
	// replaced wholesale on update and never mutated after publish, and an
	// acked map is never written once it is installed.
	type childSnap struct {
		id, addr string
		push     pushState
		own      int // index of the child's own branch in entries, -1 if it has none yet
	}
	s.mu.Lock()
	if len(s.children) == 0 {
		s.mu.Unlock()
		return
	}
	children := make([]childSnap, 0, len(s.children))
	entries := make([]pushEntry, 0, len(s.children)+1+len(s.replicas))
	// Sibling branches: distance 1 from the child.
	for _, c := range s.children {
		snap := childSnap{id: c.id, addr: c.addr, push: c.push, own: -1}
		if c.branch != nil {
			snap.own = len(entries)
			entries = append(entries, pushEntry{origin: c.id, addr: c.addr, sum: c.branch,
				level: 1, fallbacks: c.kids, version: c.version, urgent: c.urgent})
		}
		children = append(children, snap)
	}
	// Everything else goes to every child alike: self as ancestor (local
	// summary, distance 1), then everything this server replicates (its
	// siblings and ancestors become the child's ancestor-siblings and
	// ancestors, one level further away).
	if s.localSummary != nil {
		entries = append(entries, pushEntry{origin: s.cfg.ID, addr: s.cfg.Addr, sum: s.localSummary,
			ancestor: true, level: 1, version: s.localSummary.Version, urgent: s.localUrgent})
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
			// it out, or it came from a former parent. It ages out by TTL, and
			// passing it on would keep renewing it at the children until then,
			// so a dead origin would age out one level at a time.
			continue
		}
		entries = append(entries, pushEntry{origin: r.originID, addr: r.originAddr, sum: r.sum,
			ancestor: r.ancestor, level: r.level + 1, fallbacks: r.fallbacks, version: r.version, urgent: r.urgent})
	}
	s.mu.Unlock()
	sort.Slice(children, func(i, j int) bool { return children[i].id < children[j].id })

	var all setDigest
	for i := range entries {
		e := &entries[i]
		e.tag = replicaTag(replicaMeta(e.ancestor, e.level, e.addr, e.fallbacks), e.version)
		all.add(e.origin, e.tag)
	}

	for _, child := range children {
		// The child's set is everything but its own branch.
		set := all
		if child.own >= 0 {
			set = all.without(child.id, entries[child.own].tag)
		}
		if set.n == 0 {
			continue
		}
		var batch *wire.ReplicaBatch
		var listed map[string]uint64 // what a list batch states, by origin
		if set == child.push.sum && !child.push.needList {
			if early {
				continue
			}
			batch = &wire.ReplicaBatch{Digest: set.sum, Count: set.n}
			s.mx.pushDelta.Add(uint64(set.n))
		} else {
			batch = &wire.ReplicaBatch{Pushes: make([]*wire.ReplicaPush, 0, set.n)}
			listed = make(map[string]uint64, set.n)
			for i := range entries {
				e := &entries[i]
				if i == child.own {
					continue
				}
				// Unversioned content is never taken as held: it ships in
				// full every tick and keeps the batch a list.
				versioned := e.version != 0
				if versioned {
					listed[e.origin] = e.tag
				}
				if versioned && child.push.acked[e.origin] == e.tag {
					batch.Pushes = append(batch.Pushes, e.tagOnly())
					s.mx.pushDelta.Inc()
				} else {
					batch.Pushes = append(batch.Pushes, e.full())
					s.mx.pushFull.Inc()
				}
			}
		}
		rep, err := s.tr.Call(child.addr, s.stampEpoch(&wire.Message{
			Kind:  wire.KindReplicaBatch,
			From:  s.cfg.ID,
			Addr:  s.cfg.Addr,
			Batch: batch,
		}))
		if err != nil || rep.Ack == nil {
			continue // unreachable, or the batch was refused: nothing learned
		}
		s.observeEpoch(rep.Epoch)
		// What the child now holds via this server: the list, minus what it
		// asked for in full. A confirmed digest leaves the record as it is.
		var next pushState
		if listed != nil {
			for _, o := range rep.Ack.NeedFullOrigins {
				delete(listed, o)
			}
			next.acked = listed
			for o, tag := range listed {
				next.sum.add(o, tag)
			}
		}
		s.mu.Lock()
		if c, ok := s.children[child.id]; ok {
			if rep.Epoch > c.epoch {
				// Plain max, not the fenced advance: a late ack from
				// before the child's recovery is a benign race here,
				// not an accepted stale mutation.
				c.epoch = rep.Epoch
			}
			switch {
			case listed != nil:
				c.push = next
			case rep.Ack.NeedFull:
				c.push.needList = true
			}
		}
		s.mu.Unlock()
	}
}

// pruneDeadChildren drops children that have not reported within the
// failure window; their subtrees rejoin on their own via root paths. The
// window is floored so heavily loaded (or instrumented) processes whose
// message handling runs slower than the tick never mistake slowness for
// death.
func (s *Server) pruneDeadChildren() {
	deadline := heartbeatMiss * s.cfg.AggregateEvery
	if deadline < 2*time.Second {
		deadline = 2 * time.Second
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for id, c := range s.children {
		if c.lastSeen.IsZero() {
			c.lastSeen = now
			continue
		}
		if now.Sub(c.lastSeen) > deadline {
			delete(s.children, id)
			s.childEpoch++ // its branch leaves the merged summary
			changed = true
		}
	}
	if changed {
		s.publishSnapshotLocked()
	}
}

// pruneStaleReplicas ages out overlay replicas that have not refreshed
// recently — replicas are soft state, so a crashed origin's summary stops
// attracting redirects after its TTL. The window is generous (propagation
// takes one aggregation tick per hierarchy level).
func (s *Server) pruneStaleReplicas() {
	ttl := s.cfg.replicaTTL()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for id, r := range s.replicas {
		if r.received.IsZero() {
			r.received = now
			continue
		}
		if now.Sub(r.received) > ttl {
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
// parentAddr and, at heartbeatMiss of them in a row, gives the parent up.
func (s *Server) noteParentMiss(parentAddr string) {
	s.mu.Lock()
	var plan *rejoinPlan
	if s.parentAddr == parentAddr { // else it was replaced mid-flight, and the miss is not the new one's
		s.parentMisses++
		if s.parentMisses >= heartbeatMiss && s.tx == txNone {
			plan = s.planRejoinLocked()
		}
	}
	s.mu.Unlock()
	if plan != nil {
		s.spawnRecovery(plan)
	}
}

// rejoinPlan captures, at the moment a parent failure is detected, the
// state a recovery needs: which parent died, the surviving ancestry, and
// the sibling list for root election. It is captured under the lock the
// failure was detected under, so it is the ancestry the dead parent last
// stated: an orphan planning from any other path elects itself root
// (hierarchy split).
type rejoinPlan struct {
	deadID        string
	ancestors     []string // addresses, nearest (grandparent) first
	parentWasRoot bool
	siblings      []wire.RedirectInfo
}

// planRejoinLocked builds the plan, begins the recovery transaction, bumps
// the membership epoch (fencing everything still loyal to the dead
// parent's regime), and clears the dead parent. Callers hold s.mu and must
// have checked s.tx == txNone.
func (s *Server) planRejoinLocked() *rejoinPlan {
	p := &rejoinPlan{
		deadID:   s.parentID,
		siblings: append([]wire.RedirectInfo(nil), s.siblingsOfMe...),
	}
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
	s.tx = txRecovery
	s.epoch.Add(1)
	s.parentID = ""
	s.parentAddr = ""
	s.parentMisses = 0
	s.parentHaveVersion = 0
	s.parentNeedFull = false
	s.parentEpoch = 0
	s.publishSnapshotLocked()
	s.mx.parentFailovers.Inc()
	return p
}
