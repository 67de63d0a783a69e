package live

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roads/internal/obs"
	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/summary"
	"roads/internal/transport"
	"roads/internal/wire"
)

// Config configures one live server.
type Config struct {
	ID   string
	Addr string
	// Schema is the federation-wide record schema.
	Schema *record.Schema
	// Summary is the one geometry this server's summaries are built in: its
	// owners export in it. Summaries that arrive in another geometry are
	// merged as they are (Summary.Merge resamples them).
	Summary summary.Config
	// MaxChildren caps the hierarchy degree.
	MaxChildren int
	// AggregateEvery is the one maintenance period (the paper's t_s): every
	// period a server runs a periodic round — it refreshes its summaries,
	// reports to its parent (the exchange that is also the liveness signal in
	// both directions), pushes replicas to its children and ages out soft
	// state. Soft state counts these rounds, not time: a child is dead after
	// heartbeatMiss rounds without a report, a replica after replicaRounds
	// unrenewed ones, a recovery waits rounds between its attempts, and every
	// mergeProbeTicks-th round probes for split brains. Only the loop reads
	// it: its timer and the cap on the gap between early rounds (half a
	// period). Small values make tests fast; production would use minutes.
	AggregateEvery time.Duration
	// MergeSeeds are addresses this server probes for foreign roots while
	// it is a root itself (split-brain detection), in addition to the
	// ancestry it remembers from before a partition. Typically the
	// cluster's well-known seed servers.
	MergeSeeds []string
	// Metrics is the obs registry the server's named series register into
	// (roadsd passes one shared registry per process and serves it at
	// /metrics). Nil gives the server a private registry: series are
	// label-free, so two servers sharing a registry would collide on
	// names — and tests and simulations run many servers per process.
	Metrics *obs.Registry
}

// DefaultConfig returns test-friendly defaults for the given identity.
func DefaultConfig(id, addr string, schema *record.Schema) Config {
	scfg := summary.DefaultConfig()
	scfg.Buckets = 200
	return Config{
		ID:             id,
		Addr:           addr,
		Schema:         schema,
		Summary:        scfg,
		MaxChildren:    8,
		AggregateEvery: 50 * time.Millisecond,
	}
}

// heartbeatMiss is how many periodic rounds without a successful report
// exchange mark a peer dead: a parent counts its own rounds since the child's
// last report, a child its failed reports in a row.
const heartbeatMiss = 4

// replicaRounds is how many of its holder's periodic rounds an overlay replica
// outlives its last renewal (a full entry, a matching tag-only entry or a
// matching digest on a report ack): four failure windows, so a holder whose
// parent died detects it, rejoins and is restated by its new parent well
// before the replicas it holds lapse.
const replicaRounds = 4 * heartbeatMiss

// DefaultAntiEntropyEvery was the cadence of the periodic full-state round.
// No server behaviour depends on it any more: every report ack confirms the
// whole replica set by digest, so there is no round left to schedule. The constant
// keeps its name and value because the canonical benchmark (bench/) sizes its
// idle window in multiples of it.
const DefaultAntiEntropyEvery = 16

// CacheInfo was the observable state of the server-side query result cache.
// There is no such cache any more — a server retains nothing per query, and
// the one cache of query answers is the client's (Client.CacheResults). The
// type and the method keep their names, and the method returns the zero
// value, because the canonical benchmark (bench/) reads these four counters.
type CacheInfo struct{ Hits, Misses, Evictions, Invalidations uint64 }

// CacheInfo returns the zero value; see the type.
func (s *Server) CacheInfo() CacheInfo { return CacheInfo{} }

// AdaptiveInfo was the state of a server's adaptive summary-resolution
// planner. There is no planner any more — a server builds its summaries in
// the one Config.Summary geometry — so no replan ever happens. The type and
// the method keep their names, and the method returns the zero value,
// because the canonical benchmark (bench/) reads Replans.
type AdaptiveInfo struct{ Replans uint64 }

// AdaptiveInfo returns the zero value; see the type.
func (s *Server) AdaptiveInfo() AdaptiveInfo { return AdaptiveInfo{} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ID == "" || c.Addr == "" {
		return fmt.Errorf("live: ID and Addr are required")
	}
	if c.Schema == nil {
		return fmt.Errorf("live: Schema is required")
	}
	if err := c.Summary.Validate(); err != nil {
		return err
	}
	if c.MaxChildren <= 0 {
		return fmt.Errorf("live: MaxChildren must be positive")
	}
	if c.AggregateEvery <= 0 {
		return fmt.Errorf("live: AggregateEvery must be positive")
	}
	return nil
}

// childState tracks one child branch.
type childState struct {
	id, addr    string
	branch      *summary.Summary
	depth       int
	descendants int
	// seen is the parent's periodic round (Server.rounds) of the child's last
	// report or join; pruneDeadChildren counts from it.
	seen uint64
	// kids are the child's own children, piggybacked on its summary
	// reports; they become failover Alternates on redirects to the child.
	kids []wire.RedirectInfo
	// version is the branch-summary content version the child stamped on
	// its last full report. It versions the sibling pushes built from this
	// branch and gates childEpoch: a full report carrying the same version
	// left the merged branch unchanged.
	version uint64
	// push is what this child last acknowledged of the replica set this
	// server refreshes at it. Reset when the child rejoins.
	push pushState
	// epoch is the highest membership epoch this child stamped on a
	// relationship message; lower-epoch reports and re-joins from it are
	// fenced. Reset to the join's epoch when it rejoins.
	epoch uint64
	// urgent is the Urgent bit of the report that brought branch.
	urgent bool
}

// pushState is the parent's record of the replica set one child holds via
// it. acked maps origin ID → the tag the child confirmed in the last list
// batch it acknowledged (the origins it asked for in full left out); the
// map is replaced on every such ack and never written afterwards, so a
// snapshot may keep reading it without the lock. sum is acked folded: while
// the set to send folds to it, no batch goes out and the report ack states
// it. needList is set when the child's report says it missed that digest —
// what it holds is not what acked says — and forces one list batch, whose
// ack rebuilds acked from the child's answer.
type pushState struct {
	acked    map[string]uint64
	sum      setDigest
	needList bool
}

// replicaState is one overlay replica.
type replicaState struct {
	originID, originAddr string
	// sum is what queries match and coverage counts: the origin's branch
	// for a sibling-class replica, its local data for an ancestor.
	sum      *summary.Summary
	ancestor bool
	// level is the origin's distance in hierarchy levels (1 = own
	// sibling or parent); scoped queries filter on it.
	level int
	// renewed is the holder's periodic round (Server.rounds) of the last
	// renewal; a replica replicaRounds rounds past it ages out (soft state),
	// so a crashed origin stops attracting redirects.
	renewed uint64
	// fallbacks are the origin's children, carried on the push; they
	// become failover Alternates on redirects to the origin.
	fallbacks []wire.RedirectInfo
	// version is sum's content version carried on the push; forwarding
	// this replica propagates the same version one level down.
	version uint64
	// meta is replicaMeta of ancestor, level, originAddr and fallbacks, none
	// of which changes while this replicaState lives.
	meta uint64
	// listed is Server.listSeq of the last list batch that named this
	// origin, so a batch can tell the replicas it named from the rest
	// without building a set.
	listed uint64
	// via is the ID of the server whose batch last stated or confirmed
	// this replica — its feeder. A feeder's list batch that leaves the
	// origin out clears via: nobody renews the replica any more and it
	// ages out. The digest a feeder's report ack states covers exactly the
	// replicas held via it.
	via string
	// urgent is the Urgent bit of the entry that brought sum; forwarding the
	// replica passes it on.
	urgent bool
}

// tag hashes the replica as held, the way its feeder hashes the entry it
// would send (replicaTag). A tag-only entry or a stated digest renews the
// replica only while the two agree.
func (r *replicaState) tag() uint64 {
	return replicaTag(r.meta, r.version)
}

// Server is one live ROADS server.
type Server struct {
	cfg Config
	tr  transport.Transport

	mu         sync.Mutex
	owners     []*policy.Owner
	parentID   string
	parentAddr string
	// parentMisses counts consecutive failed or refused reports to the
	// parent; at heartbeatMiss the parent is given up (noteParentMiss).
	parentMisses int
	// tx is the structural mutation currently in flight (recovery, merge);
	// structural mutations are single-flight, see membership.go. recovery
	// is the plan of the recovery in flight (tx == txRecovery), which the
	// periodic rounds advance (executeRecovery).
	tx            txKind
	recovery      *rejoinPlan
	rootPath      []string
	rootPathAddrs []string
	siblingsOfMe  []wire.RedirectInfo // from report acks; root election
	children      map[string]*childState
	replicas      map[string]*replicaState
	listSeq       uint64 // list batches applied; see replicaState.listed
	localSummary  *summary.Summary
	branchSummary *summary.Summary

	// parentEpoch mirrors childState.epoch for the upward edge: the
	// highest epoch the parent stamped (replies from a lower one are stale
	// and fenced). Reset whenever the parent changes.
	parentEpoch uint64
	// knownServers is the ancestry memory (id → addr of servers seen on
	// our root path, sibling set, or probes) that seeds split-brain
	// probing: after a partition cuts the tree, the pre-partition ancestry
	// survives here. Bounded at knownServerCap.
	knownServers map[string]string
	// pendingMergeAddr is the address of a foreign winning root recorded
	// by a probe (sent or received); the next probe round (membershipTick)
	// executes the merge — handlers never make outgoing calls.
	pendingMergeAddr string

	// childEpoch counts child-branch mutations (branch content set,
	// changed, or child removed); refreshSummaries skips the branch
	// re-merge while it matches lastChildEpoch. Guarded by s.mu.
	childEpoch     uint64
	lastChildEpoch uint64

	// Parent-side delta state (guarded by s.mu), reset whenever the
	// parent changes: parentHaveVersion is the branch version the parent
	// last confirmed holding (reports while it matches go version-only);
	// parentNeedFull forces the next report full after the parent
	// rejected a version-only one; parentKids is kidsHash of the children
	// the parent last acked (0: none); parentNeedList asks it for a list on
	// the next report, the replicas held via it having missed its digest.
	parentHaveVersion uint64
	parentNeedFull    bool
	parentKids        uint64
	parentNeedList    bool

	// refreshMu serializes refreshSummaries: the incremental-refresh
	// caches below are its private state, and tests drive refreshes
	// concurrently with the aggregation loop.
	refreshMu sync.Mutex
	// merged are the owner exports the local summary was last built from, in
	// owner order; an owner returns the same export pointer until its records,
	// views or the requested geometry change, and the local rebuild is skipped
	// while every pointer matches. mergeFailed forces the next rebuild (and so
	// a recount) after an owner failed. Guarded by refreshMu.
	merged      []*summary.Summary
	mergeFailed bool
	haveBranch  bool
	// rounds counts the periodic rounds, the server's one clock: child
	// liveness, replica ageing and split-brain probing
	// count it, and RefreshInfo reports it. Early rounds do not count.
	rounds atomic.Uint64

	// Early rounds (aggregationLoop). wake asks the loop for one; it is
	// buffered, so a request made while one is pending is absorbed by it.
	// writes counts the write signals of the attached owners; seenWrites is
	// the count the last refresh saw, guarded by refreshMu. earlyBusyNs
	// accumulates what the early rounds charged toward their gaps (round;
	// RefreshInfo, roads_early_round_seconds_total).
	wake        chan struct{}
	writes      atomic.Uint64
	seenWrites  uint64
	earlyBusyNs atomic.Int64

	// Urgency, guarded by s.mu: content that carries a record write (or a
	// join) travels in early rounds, anything else at the period. localUrgent
	// marks the published local summary, childUrgent a child branch taken in
	// since the last branch rebuild, and branchUrgent a branch the parent has
	// not confirmed holding. childState.urgent and replicaState.urgent mark
	// the rest.
	localUrgent, childUrgent, branchUrgent bool

	// epoch is the membership epoch: starts at 1, bumped when a recovery
	// begins, raised to any higher epoch observed on the wire, and never
	// decreased — so the federation converges to the maximum and anything
	// stamped from before the latest recovery is recognizably stale. An
	// atomic so the stamping paths read it lock-free; 0 never appears (a
	// zero on the wire means a client sent the message, not a server).
	epoch atomic.Uint64

	// snap is the immutable routing snapshot the lock-free read paths
	// (handleQuery, handleStatus, the public accessors) evaluate against.
	// Never nil after NewServer; write paths republish it via
	// publishSnapshotLocked while holding s.mu.
	snap atomic.Pointer[routingSnapshot]

	// mx holds the operational counters (monotone since startup) as named
	// obs series. The counters are atomics, not mutex-guarded fields: the
	// query hot path bumps them without touching s.mu, and a /metrics
	// scrape reads them without blocking a query.
	mx *serverMetrics
	// summaryFailing tracks the summary-refresh error state so the OK →
	// failing and failing → recovered transitions each log exactly once
	// instead of once per tick.
	summaryFailing atomic.Bool
	// lastRefresh is the unix-nano time of the last successful summary
	// refresh (0 before the first); roads_summary_age_seconds derives
	// from it.
	lastRefresh atomic.Int64
	// refreshBusyNs accumulates wall time spent inside refreshSummaries —
	// the refresh-CPU number RefreshInfo reports against skip rates.
	refreshBusyNs atomic.Int64
	startTime     time.Time

	closer  io.Closer
	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
}

// NewServer creates a server (not yet listening).
func NewServer(cfg Config, tr transport.Transport) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:          cfg,
		tr:           tr,
		children:     make(map[string]*childState),
		replicas:     make(map[string]*replicaState),
		knownServers: make(map[string]string),
		wake:         make(chan struct{}, 1),
		stop:         make(chan struct{}),
		startTime:    time.Now(),
	}
	s.epoch.Store(1)
	// Publish the empty snapshot so the lock-free paths never see nil —
	// the metric gauges registered next read it too.
	s.mu.Lock()
	s.publishSnapshotLocked()
	s.mu.Unlock()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.mx = newServerMetrics(s, reg)
	return s, nil
}

// ID returns the server's identity.
func (s *Server) ID() string { return s.cfg.ID }

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.cfg.Addr }

// AttachOwner attaches a resource owner locally. The server keeps no copy
// of the owner's records or summary: every refresh asks the owner for its
// export, and every query for its matches. The attachment and each write
// count as urgent content: they leave in an early round.
func (s *Server) AttachOwner(o *policy.Owner) error {
	o.OnChange(s.noteWrite)
	s.mu.Lock()
	s.owners = append(s.owners, o)
	s.publishSnapshotLocked()
	s.mu.Unlock()
	s.noteWrite()
	return nil
}

// noteWrite takes an attached owner's write signal: the next refresh counts
// the local content urgent, and an early round is asked for.
func (s *Server) noteWrite() {
	s.writes.Add(1)
	s.requestEarly()
}

// requestEarly asks the aggregation loop for an early round.
func (s *Server) requestEarly() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Start begins listening and runs the maintenance loop. The server starts
// as a root of its own one-node hierarchy; Join attaches it elsewhere.
func (s *Server) Start() error {
	if err := s.listen(); err != nil {
		return err
	}
	s.run()
	return nil
}

// listen takes the server's address and builds its first summaries, and
// starts no goroutine: until run starts the loop, rounds run only when
// driven (Cluster.Step), and a request for an early round waits in wake.
func (s *Server) listen() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("live: server %s already started", s.cfg.ID)
	}
	s.started = true
	s.rootPath = []string{s.cfg.ID}
	s.rootPathAddrs = []string{s.cfg.Addr}
	s.publishSnapshotLocked()
	s.mu.Unlock()

	closer, err := s.tr.Listen(s.cfg.Addr, s.handle)
	if err != nil {
		return err
	}
	s.closer = closer
	s.refreshSummaries()
	return nil
}

// run starts the maintenance loop of a listening server.
func (s *Server) run() {
	s.wg.Add(1)
	go s.aggregationLoop()
}

// stopped reports whether Kill or Stop has shut the server down.
func (s *Server) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// Kill shuts the server down abruptly — no Leave messages, simulating a
// crash. Peers must discover the death through missed reports and
// soft-state expiry. Intended for failure-injection tests and chaos demos.
func (s *Server) Kill() { s.shutdown(false) }

// Stop leaves the hierarchy gracefully and shuts down.
func (s *Server) Stop() { s.shutdown(true) }

// shutdown runs both teardown paths. started is flipped while s.mu is
// still held, so of any number of concurrent Kill/Stop callers exactly one
// reaches close(s.stop) — checking under the lock but closing after
// releasing it let a Kill and a Stop race into a double close.
func (s *Server) shutdown(graceful bool) {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	parentAddr := s.parentAddr
	childAddrs := make([]string, 0, len(s.children))
	for _, c := range s.children {
		childAddrs = append(childAddrs, c.addr)
	}
	s.mu.Unlock()

	if graceful {
		leave := &wire.Message{Kind: wire.KindLeave, From: s.cfg.ID, Addr: s.cfg.Addr}
		if parentAddr != "" {
			_, _ = s.tr.Call(parentAddr, leave)
		}
		for _, addr := range childAddrs {
			_, _ = s.tr.Call(addr, leave)
		}
	}

	close(s.stop)
	s.wg.Wait()
	if s.closer != nil {
		_ = s.closer.Close()
	}
}

// ErrJoinRefused reports a Join whose every discovered candidate refused the
// join or was unreachable; distinguishable with errors.Is.
var ErrJoinRefused = errors.New("no server accepted the join")

// Join attaches the server under the hierarchy reachable at seedAddr,
// descending per the paper: query the contact, follow the least-depth
// child branch until someone accepts, backtracking into other branches if
// a descent dead-ends (server gone or all refusing). Every address is
// called at most once, so the descent ends after as many calls as it
// discovers servers, however deep the tree or however stale child lists
// point back at each other.
func (s *Server) Join(seedAddr string) error {
	tried := make(map[string]bool)
	frontier := []string{seedAddr}
	var lastErr error
	refused, unreachable := 0, 0
	for len(frontier) > 0 {
		addr := frontier[0]
		frontier = frontier[1:]
		if tried[addr] || addr == s.cfg.Addr {
			continue
		}
		tried[addr] = true
		rep, err := s.tr.Call(addr, s.stampEpoch(&wire.Message{
			Kind: wire.KindJoin,
			From: s.cfg.ID,
			Addr: s.cfg.Addr,
			Join: &wire.Join{ID: s.cfg.ID, Addr: s.cfg.Addr},
		}))
		if err != nil {
			lastErr = err // dead server: backtrack to others
			unreachable++
			continue
		}
		if err := wire.RemoteError(rep); err != nil {
			lastErr = err // refusing server (e.g. loop avoidance): backtrack
			refused++
			continue
		}
		jr := rep.JoinReply
		if jr == nil {
			lastErr = fmt.Errorf("live: join got %v reply", rep.Kind)
			continue
		}
		if jr.Accepted {
			s.observeEpoch(rep.Epoch)
			s.mu.Lock()
			s.parentID = jr.ParentID
			s.parentAddr = jr.ParentAddr
			s.parentMisses = 0
			// A new (or re-joined) parent holds none of our versions, and
			// the epoch relationship restarts at the accept's stamp.
			s.parentHaveVersion, s.parentNeedFull = 0, false
			s.parentKids, s.parentNeedList = 0, false
			s.parentEpoch = rep.Epoch
			// The branch is news to the new parent: it passes it on in an
			// early round.
			s.branchUrgent = true
			s.rememberLocked(jr.ParentID, jr.ParentAddr)
			s.publishSnapshotLocked()
			s.mu.Unlock()
			// Prime the parent's view and our root path immediately.
			s.reportToParent()
			return nil
		}
		// Descend least-depth first, then fewest descendants (the
		// paper's rule); prepending keeps the search depth-first so
		// backtracking visits the current branch before its siblings.
		kids := jr.Children
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].Depth != kids[j].Depth {
				return kids[i].Depth < kids[j].Depth
			}
			if kids[i].Descendants != kids[j].Descendants {
				return kids[i].Descendants < kids[j].Descendants
			}
			return kids[i].ID < kids[j].ID
		})
		next := make([]string, 0, len(kids))
		for _, k := range kids {
			if !tried[k.Addr] {
				next = append(next, k.Addr)
			}
		}
		frontier = append(next, frontier...)
	}
	// Frontier drained: every discovered server was tried and none
	// accepted.
	if lastErr != nil {
		return fmt.Errorf("live: %w (%d refused, %d unreachable): last error: %v",
			ErrJoinRefused, refused, unreachable, lastErr)
	}
	return fmt.Errorf("live: %w: every discovered server redirected elsewhere", ErrJoinRefused)
}

// IsRoot reports whether the server currently has no parent.
func (s *Server) IsRoot() bool {
	return s.snap.Load().parentAddr == ""
}

// ParentID returns the current parent (empty at the root).
func (s *Server) ParentID() string {
	return s.snap.Load().parentID
}

// NumChildren returns the current child count.
func (s *Server) NumChildren() int {
	return len(s.snap.Load().children)
}

// BranchRecords returns how many records the branch summary covers — the
// convergence signal tests and examples poll.
func (s *Server) BranchRecords() uint64 {
	if b := s.snap.Load().branchSummary; b != nil {
		return b.Records
	}
	return 0
}

// NumReplicas returns how many overlay replicas the server holds.
func (s *Server) NumReplicas() int {
	return s.snap.Load().numReplicas
}

// CoveredRecords returns how many records this server can currently route
// queries to: its own branch, plus each non-ancestor replica's branch,
// plus each ancestor's locally attached data — only the replicas it routes
// on, not a leftover whose origin is now its child. Because those sets
// partition the hierarchy, the value equals the federation's total record
// count exactly when the overlay has fully converged.
func (s *Server) CoveredRecords() uint64 {
	return s.snap.Load().covered
}

// RootPath returns the server's current root path (IDs, root first).
func (s *Server) RootPath() []string {
	return append([]string(nil), s.snap.Load().rootPath...)
}
