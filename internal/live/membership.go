package live

// The epoch-fenced membership layer: every server stamps its membership epoch,
// which only ever increases, on every relationship message it sends. A parent
// loss bumps it and starts a recovery (rejoin or root election); one recovery
// at a time is in flight (Server.recovery), and while it is, neither a second
// one nor a tree merge starts. A recovery and a merge make their calls on the
// server's round goroutine, so neither can overlap the other. Epochs fence
// stale mutations — a report, its ack or a re-join carrying an epoch lower
// than the one recorded for that relationship is rejected — so a healed
// partition cannot resurrect a dead parent/child edge. On top of the fence
// sits split-brain detection: every mergeProbeTicks-th periodic round, a root
// probes its remembered ancestry and the configured merge seeds; when two live
// roots discover each other the higher-epoch root (tie: smaller ID) wins and
// the loser joins it, folding its whole tree back as a subtree. Summaries then
// re-aggregate through the ordinary change-driven pipeline.

import (
	"fmt"
	"sort"

	"roads/internal/wire"
)

// knownServerCap bounds the ancestry memory: the id→addr map of every
// server ever observed on our root path or sibling set, which seeds the
// split-brain probe candidates. 512 covers any realistic ancestry set;
// when full, new entries are dropped rather than evicted (the merge seeds
// in Config remain as the probe floor).
const knownServerCap = 512

// recoveryEscalateRounds is how many all-ancestors-unreachable rounds an
// orphan whose dead parent was NOT the root waits before escalating to a
// sibling election: the true root may be briefly unreachable, and electing
// over a live root splits the tree (the merge protocol would heal it, but
// not for free).
const recoveryEscalateRounds = 2

// recoveryClaimRounds is how many failed election rounds a losing sibling
// tolerates before claiming the root role itself. Reaching it means the
// winner and every smaller-ID sibling stayed unreachable through the
// backoff schedule; claiming beats dangling forever, and a wrong claim is
// folded back by the merge protocol once connectivity returns.
const recoveryClaimRounds = 4

// Epoch returns the server's current membership epoch (1 at startup; 0
// never appears — a zero on the wire means a client sent the message).
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// observeEpoch raises the server's own epoch to e. Epochs only ever move
// forward: the whole federation converges to the maximum it has seen, so
// any message stamped from before the latest recovery is recognizably
// stale everywhere.
func (s *Server) observeEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur {
			return
		}
		if s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// advanceRelEpochLocked raises a recorded relationship epoch (a child's
// or the parent's) to e. A lower e is refused and counted as an epoch
// regression — the fence checks run before any call to this, so the
// counter staying zero is the protocol invariant the partition chaos
// tests assert. Callers hold s.mu.
func (s *Server) advanceRelEpochLocked(cur *uint64, e uint64) bool {
	if e == 0 {
		return true
	}
	if e < *cur {
		s.mx.epochRegressions.Inc()
		return false
	}
	*cur = e
	return true
}

// stampEpoch stamps the outgoing message with the server's epoch.
func (s *Server) stampEpoch(m *wire.Message) *wire.Message {
	m.Epoch = s.epoch.Load()
	return m
}

// rememberLocked records one server in the ancestry memory that seeds
// split-brain probes. Callers hold s.mu.
func (s *Server) rememberLocked(id, addr string) {
	if id == "" || addr == "" || id == s.cfg.ID {
		return
	}
	if _, ok := s.knownServers[id]; !ok && len(s.knownServers) >= knownServerCap {
		return
	}
	s.knownServers[id] = addr
}

// rememberPathLocked records the current root path and sibling set —
// called whenever a report ack refreshes them, so the pre-partition
// ancestry survives in memory after the partition cuts it off.
func (s *Server) rememberPathLocked() {
	for i, id := range s.rootPath {
		if i < len(s.rootPathAddrs) {
			s.rememberLocked(id, s.rootPathAddrs[i])
		}
	}
	for _, sib := range s.siblingsOfMe {
		s.rememberLocked(sib.ID, sib.Addr)
	}
}

// probeCandidatesLocked lists the addresses a root should probe for
// foreign roots: the configured merge seeds first, then the remembered
// ancestry (sorted for determinism). Its own children are left out: a child
// follows this root while it reports to it, and one that stops ages out
// replicaRounds rounds after its last report. Callers hold s.mu.
func (s *Server) probeCandidatesLocked() []string {
	seen := map[string]bool{s.cfg.Addr: true}
	for _, c := range s.children {
		seen[c.addr] = true
	}
	out := make([]string, 0, len(s.cfg.MergeSeeds)+len(s.knownServers))
	for _, addr := range s.cfg.MergeSeeds {
		if !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	ids := make([]string, 0, len(s.knownServers))
	for id := range s.knownServers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if addr := s.knownServers[id]; !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	return out
}

// otherWins decides a root merge: the higher epoch wins; on a tie the
// smaller ID does. Both roots evaluate the same deterministic order, so
// they cannot both decide to join the other.
func otherWins(otherEpoch uint64, otherID string, ourEpoch uint64, ourID string) bool {
	if otherEpoch != ourEpoch {
		return otherEpoch > ourEpoch
	}
	return otherID < ourID
}

// probesPerTick bounds how many candidates one membership tick probes, so
// a root with a long ancestry memory spreads its probing over several
// ticks instead of bursting.
const probesPerTick = 3

// mergeProbeTicks is the split-brain probe cadence in periodic rounds.
const mergeProbeTicks = 4

// membershipTick runs one round of split-brain detection, the tick-th (from
// 0) of this server: first consume a pending merge decision (recorded by
// handleRootProbe, which must not make outgoing calls itself), then — if
// still a live idle root — probe the tick-th window of probesPerTick
// candidate addresses, so successive ticks walk the whole candidate list.
func (s *Server) membershipTick(tick uint64) {
	s.mu.Lock()
	merge := s.pendingMergeAddr
	s.pendingMergeAddr = ""
	isIdleRoot := s.parentAddr == "" && s.recovery == nil
	var candidates []string
	if isIdleRoot && merge == "" {
		candidates = s.probeCandidatesLocked()
	}
	s.mu.Unlock()
	if merge != "" {
		s.executeMerge(merge)
		return
	}
	if !isIdleRoot || len(candidates) == 0 {
		return
	}
	if len(candidates) > probesPerTick {
		off := int(tick * probesPerTick % uint64(len(candidates)))
		rot := append(append([]string(nil), candidates[off:]...), candidates[:off]...)
		candidates = rot[:probesPerTick]
	}
	for _, addr := range candidates {
		s.probeRoot(addr, true)
	}
}

// probeMessage builds the root probe announcing us.
func (s *Server) probeMessage() *wire.Message {
	return s.stampEpoch(&wire.Message{
		Kind:      wire.KindRootProbe,
		From:      s.cfg.ID,
		Addr:      s.cfg.Addr,
		RootProbe: &wire.RootProbe{RootID: s.cfg.ID, RootAddr: s.cfg.Addr},
	})
}

// probeRoot asks addr which root it follows. When the reply names a
// foreign root that beats us, the merge is recorded for the next tick;
// when it names one we beat, that root is probed directly (chase, one
// level deep) so the loser learns about us and folds itself in — its own
// handler records the pending merge.
func (s *Server) probeRoot(addr string, chase bool) {
	if addr == "" || addr == s.cfg.Addr {
		return
	}
	s.mx.probes.Inc()
	rep, err := s.tr.Call(addr, s.probeMessage())
	if err != nil || rep == nil || wire.RemoteError(rep) != nil || rep.RootProbe == nil {
		return // unreachable: nothing to learn
	}
	s.observeEpoch(rep.Epoch)
	other := rep.RootProbe
	s.mu.Lock()
	s.rememberLocked(rep.From, rep.Addr)
	s.rememberLocked(other.RootID, other.RootAddr)
	stillIdleRoot := s.parentAddr == "" && s.recovery == nil
	if stillIdleRoot && other.RootID != s.cfg.ID &&
		otherWins(rep.Epoch, other.RootID, s.epoch.Load(), s.cfg.ID) &&
		s.pendingMergeAddr == "" {
		s.pendingMergeAddr = other.RootAddr
	}
	s.mu.Unlock()
	if !stillIdleRoot || other.RootID == s.cfg.ID {
		return
	}
	if chase && other.RootAddr != addr &&
		!otherWins(rep.Epoch, other.RootID, s.epoch.Load(), s.cfg.ID) {
		s.probeRoot(other.RootAddr, false)
	}
}

// executeMerge folds this (losing) root's tree under the winning root at
// addr: re-verify the decision with a fresh probe — the winner may have
// merged elsewhere, died, or been overtaken since the decision was
// recorded — then join it. The join is epoch-stamped, so the winner fences
// it like any relationship message and the loser adopts the winner's epoch
// from the reply.
func (s *Server) executeMerge(addr string) {
	s.mu.Lock()
	idle := s.recovery == nil && s.parentAddr == "" && s.started
	s.mu.Unlock()
	if !idle {
		return
	}

	rep, err := s.tr.Call(addr, s.probeMessage())
	if err != nil || rep == nil || wire.RemoteError(rep) != nil || rep.RootProbe == nil {
		return
	}
	s.observeEpoch(rep.Epoch)
	other := rep.RootProbe
	if other.RootID == s.cfg.ID ||
		!otherWins(rep.Epoch, other.RootID, s.epoch.Load(), s.cfg.ID) {
		return // stale decision: we win now (or the split already healed)
	}
	if err := s.Join(other.RootAddr); err != nil {
		return // winner unreachable or full everywhere; a later tick retries
	}
	s.mx.merges.Inc()
}

// --- Recovery (parent loss) ---

// executeRecovery advances the recovery in flight, if any, in the periodic
// round now: once its backoff has run out it makes one attempt (tryRecovery).
// A successful attempt ends the recovery. A failed one counts a retry and
// waits min(attempt, 4) rounds before the next — enough for a briefly-slow
// ancestor to answer, without turning a long outage into many rounds between
// attempts. The recovery never gives up, and no goroutine or timer drives it:
// the server's own rounds do, so a stepped federation recovers by stepping.
func (s *Server) executeRecovery(now uint64) {
	s.mu.Lock()
	p := s.recovery
	s.mu.Unlock()
	if p == nil || now < p.due {
		return
	}
	if s.tryRecovery(p) {
		s.mu.Lock()
		s.recovery = nil
		s.mu.Unlock()
		return
	}
	p.attempt++
	p.due = now + uint64(min(p.attempt, 4))
	s.mx.orphanRetries.Inc()
}

// tryRecovery makes one recovery attempt and reports whether the server has
// a parent again or is the root. It never gives up into a silent accidental
// root (the dangling-orphan bug): each attempt retries the surviving
// ancestors nearest-first, then — when the dead parent was the root, or the
// whole ancestor chain stayed unreachable for recoveryEscalateRounds attempts
// — runs the paper's §III-A election (smallest sibling ID wins; losers join
// the winner, falling back to any smaller-ID sibling so a chain of claims
// converges without join cycles). Only after the election path is exhausted
// for recoveryClaimRounds attempts does the server claim the root role
// itself; a wrong claim is detected and folded back by the split-brain merge
// protocol.
func (s *Server) tryRecovery(p *rejoinPlan) bool {
	// Surviving ancestors, nearest (grandparent) first — the true root is
	// among them, and rejoining it never splits the tree.
	for _, addr := range p.ancestors {
		if s.Join(addr) == nil {
			return true
		}
	}
	if !p.parentWasRoot && p.attempt < recoveryEscalateRounds {
		return false // give the ancestor chain time before electing
	}
	// Election (paper §III-A): smallest ID among the ex-siblings including
	// us.
	if len(p.smaller) == 0 {
		// We are the election winner (or have no siblings at all): claim
		// the root role; the ex-siblings will join us.
		s.becomeRoot()
		return true
	}
	for _, sib := range p.smaller {
		if s.Join(sib.Addr) == nil {
			return true
		}
	}
	if p.attempt >= recoveryClaimRounds {
		// Winner and every smaller sibling stayed unreachable through the
		// whole backoff schedule: claim the root role rather than dangle. If
		// any of them is alive behind a partition, the merge protocol
		// reunifies the trees when it heals.
		s.becomeRoot()
		return true
	}
	return false
}

// becomeRoot assumes the root role after an election or an exhausted
// recovery: the server roots its own subtree and starts answering (and
// sending) split-brain probes as a root. The epoch was already bumped
// when the recovery began, so anything still loyal to the dead parent's
// regime is fenced.
func (s *Server) becomeRoot() {
	s.mu.Lock()
	s.parentID = ""
	s.parentAddr = ""
	s.parentMisses = 0
	s.rootPath = []string{s.cfg.ID}
	s.rootPathAddrs = []string{s.cfg.Addr}
	s.publishSnapshotLocked()
	s.mu.Unlock()
	s.mx.elections.Inc()
}

// MembershipInfo is a snapshot of one server's membership-protocol state,
// for harnesses and tests (the same values are exported as
// roads_membership_* series).
type MembershipInfo struct {
	// Epoch is the current membership epoch.
	Epoch uint64
	// Fenced counts relationship messages rejected for carrying an epoch
	// lower than the recorded one.
	Fenced uint64
	// Elections counts times this server assumed the root role through
	// recovery (election win or exhausted-recovery claim).
	Elections uint64
	// Merges counts split-brain merges this server executed as the
	// losing root.
	Merges uint64
	// Probes counts root probes sent.
	Probes uint64
	// OrphanRetries counts failed recovery attempts, each retried a few
	// periodic rounds later.
	OrphanRetries uint64
	// EpochRegressions counts attempts to move a recorded relationship
	// epoch backward that passed the fences — the invariant is that this
	// stays zero.
	EpochRegressions uint64
}

// Membership returns the server's membership-protocol snapshot.
func (s *Server) Membership() MembershipInfo {
	return MembershipInfo{
		Epoch:            s.epoch.Load(),
		Fenced:           s.mx.fenced.Load(),
		Elections:        s.mx.elections.Load(),
		Merges:           s.mx.merges.Load(),
		Probes:           s.mx.probes.Load(),
		OrphanRetries:    s.mx.orphanRetries.Load(),
		EpochRegressions: s.mx.epochRegressions.Load(),
	}
}

// handleRootProbe answers a split-brain probe with the root this server
// currently follows. When this server is itself a live idle root and the
// prober beats it, the merge is recorded for its next membership tick —
// handlers never make outgoing calls (synchronous-transport deadlock
// rule), so the tick executes the join.
func (s *Server) handleRootProbe(msg *wire.Message) *wire.Message {
	if msg.RootProbe == nil {
		return wire.ErrorMessage(s.cfg.ID, fmt.Errorf("live: root probe without payload"))
	}
	s.mu.Lock()
	s.rememberLocked(msg.RootProbe.RootID, msg.RootProbe.RootAddr)
	rootID, rootAddr := s.cfg.ID, s.cfg.Addr
	if len(s.rootPath) > 0 && len(s.rootPathAddrs) > 0 {
		rootID, rootAddr = s.rootPath[0], s.rootPathAddrs[0]
	}
	if s.parentAddr == "" && s.recovery == nil && s.pendingMergeAddr == "" &&
		msg.RootProbe.RootID != s.cfg.ID &&
		otherWins(msg.Epoch, msg.RootProbe.RootID, s.epoch.Load(), s.cfg.ID) {
		s.pendingMergeAddr = msg.RootProbe.RootAddr
	}
	s.mu.Unlock()
	return s.stampEpoch(&wire.Message{
		Kind:      wire.KindRootProbeReply,
		From:      s.cfg.ID,
		Addr:      s.cfg.Addr,
		RootProbe: &wire.RootProbe{RootID: rootID, RootAddr: rootAddr},
	})
}
