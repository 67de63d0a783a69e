package live

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/summary"
	"roads/internal/transport"
)

// Cluster is a convenience harness that spins up n live servers on one
// transport, joins them into a hierarchy, and waits for aggregation and
// replication to converge. Tests, examples, the figures and the canonical
// benchmark (bench/) all build on it. A stepped cluster (NewCluster) runs no
// loop: Step and Settle drive its rounds, and Run starts the loops.
type Cluster struct {
	Servers []*Server
	Tr      transport.Transport
	Schema  *record.Schema

	// tick is the maintenance period NewCluster resolved, kept for the
	// convergence heuristics (WaitConverged's overshoot grace).
	tick time.Duration
}

// clusterParallelism is the width of the worker pool that starts, joins and
// stops a cluster's servers. Wide enough that a thousand-server cluster
// builds in a few join waves instead of one server at a time, narrow enough
// not to commandeer the machine.
const clusterParallelism = 8

// ClusterConfig configures StartCluster.
type ClusterConfig struct {
	N           int
	Schema      *record.Schema
	Summary     summary.Config
	MaxChildren int
	// AddrFor maps server index to a listen address. Defaults to
	// "srvNNN" (in-process) when nil.
	AddrFor func(i int) string
	// JoinVia maps server index i (i > 0) to the index of the server whose
	// address seeds i's join descent — the joiner may still be redirected
	// into that server's subtree per the join policy. Nil seeds every join
	// at server 0 (the historical behaviour). Explicit placements let
	// harnesses build exact deep or wide topologies: point each server at
	// its intended parent and size MaxChildren so the parent has capacity.
	JoinVia func(i int) int
	// Tick overrides the maintenance period (default 25ms).
	Tick time.Duration
	// MergeSeeds are the split-brain probe seed addresses handed to every
	// server (Config.MergeSeeds); harnesses typically pass server 0's
	// address so severed subtrees always have one well-known root to
	// rediscover.
	MergeSeeds []string
}

// runPool runs fn(i) for every i in [0,n) on at most clusterParallelism
// goroutines.
func runPool(n int, fn func(int)) {
	par := min(clusterParallelism, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// StartCluster builds the cluster as NewCluster does but starts each
// server's loop as soon as it listens, before the joins: the joins' early
// rounds then run while the cluster builds, not in one burst after it.
// NewCluster followed by Run converged 12–23 % later on the canonical
// benchmark's TCP workloads (10 pairs on a 2-vCPU host); likely, the burst
// makes every round slow, the gap after each is a multiple of its duration,
// and the owners' first writes wait it out.
func StartCluster(tr transport.Transport, cfg ClusterConfig) (*Cluster, error) {
	return newCluster(tr, cfg, true)
}

// NewCluster creates the servers, has them listen and joins 1..n-1 into the
// hierarchy, and starts no loop. Listens run on a bounded worker pool, and
// joins run in waves of the same width: every server whose join seed
// (JoinVia, default server 0) is already attached joins concurrently, so a
// deep explicit placement costs one wave per level and the default flat seed
// costs a single wave — not one serial join per server.
func NewCluster(tr transport.Transport, cfg ClusterConfig) (*Cluster, error) {
	return newCluster(tr, cfg, false)
}

func newCluster(tr transport.Transport, cfg ClusterConfig, run bool) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("live: cluster needs at least one server")
	}
	if cfg.Schema == nil {
		return nil, fmt.Errorf("live: cluster needs a schema")
	}
	addrFor := cfg.AddrFor
	if addrFor == nil {
		addrFor = func(i int) string { return fmt.Sprintf("srv%03d", i) }
	}
	tick := cfg.Tick
	if tick == 0 {
		tick = 25 * time.Millisecond
	}
	cl := &Cluster{
		Tr:      tr,
		Schema:  cfg.Schema,
		Servers: make([]*Server, cfg.N),
		tick:    tick,
	}
	joinVia := cfg.JoinVia
	if joinVia == nil {
		joinVia = func(int) int { return 0 }
	}
	errs := make([]error, cfg.N)
	runPool(cfg.N, func(i int) {
		scfg := DefaultConfig(fmt.Sprintf("srv%03d", i), addrFor(i), cfg.Schema)
		if cfg.Summary.Buckets > 0 {
			scfg.Summary = cfg.Summary
		}
		if cfg.MaxChildren > 0 {
			scfg.MaxChildren = cfg.MaxChildren
		}
		scfg.AggregateEvery = tick
		scfg.MergeSeeds = cfg.MergeSeeds
		srv, err := NewServer(scfg, tr)
		if err != nil {
			errs[i] = err
			return
		}
		if err := srv.listen(); err != nil {
			errs[i] = err
			return
		}
		if run {
			srv.run()
		}
		cl.Servers[i] = srv
	})
	for _, err := range errs {
		if err != nil {
			cl.Stop()
			return nil, err
		}
	}

	// Join waves: a server may join once its seed is attached. With the
	// default seed everything joins in wave one; explicit JoinVia
	// placements join level by level.
	attached := make([]bool, cfg.N)
	attached[0] = true
	pending := make([]int, 0, cfg.N-1)
	for i := 1; i < cfg.N; i++ {
		pending = append(pending, i)
	}
	for len(pending) > 0 {
		wave := make([]int, 0, len(pending))
		rest := pending[:0]
		for _, i := range pending {
			via := joinVia(i)
			if via < 0 || via >= cfg.N || via == i {
				cl.Stop()
				return nil, fmt.Errorf("live: cluster JoinVia(%d) = %d is not another server index", i, via)
			}
			if attached[via] {
				wave = append(wave, i)
			} else {
				rest = append(rest, i)
			}
		}
		if len(wave) == 0 {
			cl.Stop()
			return nil, fmt.Errorf("live: cluster JoinVia placement never attaches servers %v", rest)
		}
		waveErrs := make([]error, len(wave))
		runPool(len(wave), func(w int) {
			i := wave[w]
			waveErrs[w] = cl.Servers[i].Join(cl.Servers[joinVia(i)].Addr())
		})
		for w, err := range waveErrs {
			if err != nil {
				cl.Stop()
				return nil, fmt.Errorf("live: joining server %d: %w", wave[w], err)
			}
			attached[wave[w]] = true
		}
		pending = rest
	}
	return cl, nil
}

// Run starts every server's loop; a running cluster is not stepped.
func (cl *Cluster) Run() {
	for _, srv := range cl.Servers {
		srv.run()
	}
}

// settleSteps bounds Settle: a write crosses the tree in one step's early
// rounds, a join's replica set in a step per level.
const settleSteps = 64

// Step runs one round of the federation from the caller's goroutine: the
// queued early rounds (drainEarly), then a periodic round on every running
// server in index order, each joining its pushes before it returns. A killed
// or stopped server is skipped, as its loop would be gone. Everything soft
// counts these rounds, so stepping alone
// detects a dead child, ages out its replicas and probes for split brains.
// It reports whether any server's routing content (fpBase, covered count or
// branch version) moved.
func (cl *Cluster) Step() bool { return len(cl.step()) > 0 }

// drainEarly runs the queued early rounds until none is left, children first
// (reverse index order, as a server joins after its seed), so that a parent
// takes in all its children's branches before it reports and pushes once.
// No gap separates them: a loop's gap after an early round (earlyGap) only
// bounds a running server's duty share.
func (cl *Cluster) drainEarly() {
	for queued := true; queued; {
		queued = false
		for i := len(cl.Servers) - 1; i >= 0; i-- {
			s := cl.Servers[i]
			if s.stopped() {
				continue
			}
			select {
			case <-s.wake:
				s.round(true)
				queued = true
			default:
			}
		}
	}
}

// step is Step, returning the IDs of the servers whose content moved.
func (cl *Cluster) step() []string {
	type content struct{ fp, covered, version uint64 }
	read := func(s *Server) content {
		snap := s.snap.Load()
		c := content{fp: snap.fpBase, covered: snap.covered}
		if snap.branchSummary != nil {
			c.version = snap.branchSummary.Version
		}
		return c
	}
	before := make([]content, len(cl.Servers))
	for i, s := range cl.Servers {
		before[i] = read(s)
	}
	cl.drainEarly()
	for _, s := range cl.Servers {
		if !s.stopped() {
			s.round(false)
		}
	}
	var moved []string
	for i, s := range cl.Servers {
		if read(s) != before[i] {
			moved = append(moved, s.ID())
		}
	}
	return moved
}

// Settle steps until a step moves nothing, and fails when settleSteps steps
// all moved something.
func (cl *Cluster) Settle() error {
	var moved []string
	for i := 0; i < settleSteps; i++ {
		if moved = cl.step(); len(moved) == 0 {
			return nil
		}
	}
	return fmt.Errorf("live: cluster still moving after %d steps: %s", settleSteps, lagDetail(moved))
}

// AttachOwner attaches an owner at server index i.
func (cl *Cluster) AttachOwner(i int, o *policy.Owner) error {
	if i < 0 || i >= len(cl.Servers) {
		return fmt.Errorf("live: server index %d out of range", i)
	}
	return cl.Servers[i].AttachOwner(o)
}

// coverageLag classifies every server against the convergence target:
// servers covering fewer records than wantRecords land in under, servers
// covering more land in over, each rendered as "id=got(±diff)".
func (cl *Cluster) coverageLag(wantRecords uint64) (under, over []string) {
	for _, srv := range cl.Servers {
		got := srv.CoveredRecords()
		switch {
		case got < wantRecords:
			under = append(under, fmt.Sprintf("%s=%d(-%d)", srv.ID(), got, wantRecords-got))
		case got > wantRecords:
			over = append(over, fmt.Sprintf("%s=%d(+%d)", srv.ID(), got, got-wantRecords))
		}
	}
	return under, over
}

// lagDetail renders a lag list compactly (first few servers plus a count).
func lagDetail(lag []string) string {
	const keep = 8
	if len(lag) <= keep {
		return strings.Join(lag, ", ")
	}
	return fmt.Sprintf("%s, … (%d servers total)", strings.Join(lag[:keep], ", "), len(lag))
}

// overshootGrace is how long WaitConverged lets a pure coverage overshoot
// stand before declaring it structural. A transient overshoot — a stale
// replica still double-counting a branch that moved or died — heals within
// heartbeatMiss rounds to drop a dead child plus replicaRounds to age out
// what nobody renews any more, so the grace is twice that many periods plus
// slack for loaded or race-instrumented runs, whose rounds run late.
func (cl *Cluster) overshootGrace() time.Duration {
	return 2*(heartbeatMiss+replicaRounds)*cl.tick + time.Second
}

// WaitConverged blocks until every server can route queries to exactly
// wantRecords records — its own branch plus its overlay replicas cover the
// whole federation — or the timeout expires.
//
// Undershoot (servers still missing records) is the normal transient state
// while aggregation and replication propagate, and is waited out. Coverage
// *overshoot* — every server at or above the target with at least one
// counting more — means some branch is double-counted (typically a stale
// replica after churn, or one subtree adopted under two parents). A stale
// replica ages out within replicaRounds rounds; an overshoot that outlives
// that grace can never self-heal, so it is reported immediately as a
// distinct failure with per-server detail instead of burning the rest of
// the timeout.
func (cl *Cluster) WaitConverged(wantRecords uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	grace := cl.overshootGrace()
	var overshootSince time.Time
	for {
		under, over := cl.coverageLag(wantRecords)
		hasRoot := cl.Root() != nil
		if hasRoot && len(under) == 0 && len(over) == 0 {
			return nil
		}
		now := time.Now()
		if hasRoot && len(under) == 0 && len(over) > 0 {
			if overshootSince.IsZero() {
				overshootSince = now
			}
			if now.Sub(overshootSince) >= grace {
				return fmt.Errorf("live: cluster overshot convergence on %d records for %v "+
					"(stale replica double-counting cannot explain an overshoot outliving the replica lifetime); over: %s",
					wantRecords, now.Sub(overshootSince).Round(time.Millisecond), lagDetail(over))
			}
		} else {
			overshootSince = time.Time{}
		}
		if !now.Before(deadline) {
			detail := make([]string, 0, 2)
			if len(under) > 0 {
				detail = append(detail, "under: "+lagDetail(under))
			}
			if len(over) > 0 {
				detail = append(detail, "over: "+lagDetail(over))
			}
			if !hasRoot {
				detail = append(detail, "no root")
			}
			return fmt.Errorf("live: cluster did not converge on %d records; %s",
				wantRecords, strings.Join(detail, "; "))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Root returns the current root server (nil if none claims to be root).
func (cl *Cluster) Root() *Server {
	for _, srv := range cl.Servers {
		if srv.IsRoot() {
			return srv
		}
	}
	return nil
}

// Stop shuts all servers down, fanning the graceful Leave rounds out on
// the cluster's worker pool — a thousand-server teardown costs a few
// parallel waves, not a thousand serial Leave fan-outs.
func (cl *Cluster) Stop() {
	runPool(len(cl.Servers), func(i int) {
		if srv := cl.Servers[i]; srv != nil {
			srv.Stop()
		}
	})
}
