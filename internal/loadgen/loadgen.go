package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"roads/internal/live"
	"roads/internal/obs"
	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/stats"
	"roads/internal/summary"
	"roads/internal/transport"
	"roads/internal/wire"
	"roads/internal/workload"
)

// Churn schedules the disturbances injected while queries run. Zero
// intervals disable the respective disturbance.
type Churn struct {
	// RecordEvery is the interval between owner record-swap events. Each
	// event picks RecordOwners owners (default 1) and replaces
	// RecordFraction of each one's records (default 0.2) with fresh
	// bootstrap-resampled records, bumping the owner generation so the
	// change propagates through summary re-export. The record total stays
	// constant, so convergence targets remain meaningful.
	RecordEvery    time.Duration
	RecordOwners   int
	RecordFraction float64
	// WriteEvery is the interval between write-churn events: sustained
	// per-owner Add/Remove traffic, as opposed to RecordEvery's wholesale
	// record swaps. Each event picks WriteOwners owners (default 1),
	// removes WriteFraction of each one's records by ID (default 0.05)
	// and adds the same number of fresh records, so the owner's store
	// mutates through its first-class Remove/Add paths — exercising the
	// incremental per-shard summary maintenance — while the record total
	// stays constant.
	WriteEvery    time.Duration
	WriteOwners   int
	WriteFraction float64
	// KillEvery is the interval between server crashes. Each event
	// crash-kills (no Leave) one random non-root alive server; after
	// ReviveAfter (default 2s) the server is rebuilt with the same
	// ID/address, its owner re-attached, and rejoined through the root.
	KillEvery   time.Duration
	ReviveAfter time.Duration
	// PartitionEvery is the interval between network partitions. Each
	// event severs one whole subtree — the placement node whose subtree
	// size is closest to PartitionFraction (default 0.3) of the federation
	// — from the rest of the tree in both directions, then heals it after
	// HealAfter (default 2s). Partitions run one at a time. The severed
	// side elects its own root (membership epochs fence the stale parent
	// edges) and the split-brain merge protocol folds the trees back
	// together after the heal; the run reports the measured split-brain
	// exposure and post-heal re-convergence time.
	PartitionEvery    time.Duration
	PartitionFraction float64
	HealAfter         time.Duration
}

func (c Churn) enabled() bool {
	return c.RecordEvery > 0 || c.WriteEvery > 0 || c.KillEvery > 0 || c.PartitionEvery > 0
}

// Config sizes a load run. Zero values take the documented defaults.
type Config struct {
	// Servers is the federation size (required).
	Servers int
	// FanOut caps children per server (default 8); MinDepth, when
	// positive, forces the hierarchy at least that deep via a spine (see
	// Placement).
	FanOut   int
	MinDepth int
	// OwnerEvery attaches a resource owner at every k-th server (default
	// 1: every server hosts records). RecordsPerOwner (default 50) and
	// AttrsPerDist (default 2, i.e. 8 numeric attributes) shape the
	// workload per the paper's §V generator.
	OwnerEvery      int
	RecordsPerOwner int
	AttrsPerDist    int
	// SummaryBuckets sizes the per-attribute histograms (default 64 —
	// the paper's 1000 is impractical times a thousand servers).
	SummaryBuckets int
	// QueryDims and QueryRange shape queries (defaults 3 dimensions of
	// range length workload.DefaultQueryRange).
	QueryDims  int
	QueryRange float64
	// QuerySkew, when positive, is the fraction of queries made "hot"
	// (workload.GenQuerySkewed): a narrow range — QueryRange/4 — on the
	// first Window-family attribute, plus an Eq predicate on c0 when the
	// workload has categorical attributes. Narrow ranges against coarse
	// histogram buckets concentrate false-positive descents on one
	// attribute, the signal adaptive summary resolution feeds on.
	QuerySkew float64
	// CategoricalAttrs appends that many categorical attributes to the
	// workload (vocabulary CategoricalVocab, default 16; dotted paths of
	// CategoricalDepth segments when that is > 1). SummaryBloom summarizes
	// them with Bloom filters instead of exact value sets; CondenseAbove,
	// when positive, collapses value sets larger than that into
	// dotted-prefix wildcards.
	CategoricalAttrs int
	CategoricalVocab int
	CategoricalDepth int
	SummaryBloom     bool
	CondenseAbove    int
	// DisableAdaptive turns feedback-driven summary resolution off on
	// every server (live.Config.DisableAdaptiveSummaries) — the static
	// baseline arm of the false-positive benchmark. SummaryByteBudget and
	// ReplanEvery pass through to the matching live.Config fields.
	DisableAdaptive   bool
	SummaryByteBudget int
	ReplanEvery       int
	// Queries is how many resolves to issue (default 500), spread over
	// Clients concurrent clients (default 4), each bounded by
	// QueryTimeout (default 10s). MinDrive, when positive, keeps the
	// drive phase alive at least that long: clients that exhaust the
	// query list wrap around and keep issuing it (every issue counts in
	// the results). Churn schedules — partitions in particular, whose
	// cut+heal cycles span seconds — need a drive phase long enough to
	// cover them no matter how fast queries resolve.
	Queries      int
	Clients      int
	QueryTimeout time.Duration
	MinDrive     time.Duration
	// ConvergeTimeout bounds the post-build wait for full coverage
	// (default 2m). Tick is the servers' maintenance period
	// (default 50ms). Parallelism bounds the cluster build worker pool
	// (default: live's own default).
	ConvergeTimeout time.Duration
	Tick            time.Duration
	Parallelism     int
	// RepeatFraction, when positive, makes each drive client re-issue an
	// already-issued query with that probability instead of advancing to
	// a fresh one — the repeat-query workload the clients' caches
	// (ClientCache) are built to serve.
	RepeatFraction float64
	// ClientCache enables the drive clients' fingerprint-validated
	// record caches (live.Client.CacheResults); ClientPriority is the
	// wire priority class they claim (wire.PriorityHigh under overload
	// runs, so the admission layer protects them from the hot tenant).
	ClientCache    bool
	ClientPriority uint8
	// Untraced disables per-query tracing, which adds a trace payload to
	// every hop's reply; latency-measuring runs set it. FP-descent
	// accounting, which rides on traces, reports zero then.
	Untraced bool
	// HotClients, when positive, adds that many extra low-priority
	// clients sharing one requester identity ("hot-tenant") that hammer a
	// small hot query set for the whole drive phase — the overload the
	// admission layer sheds to coarse answers. Their resolves are tallied
	// separately (HotQueries, HotCoarse, HotFailures, HotLatencyP99) and
	// never enter the main latency/coverage stats.
	HotClients int
	// AdmissionRate and AdmissionBurst configure every server's admission
	// layer. AdmissionRate zero leaves admission off.
	AdmissionRate  float64
	AdmissionBurst int
	// Seed makes workload, placement and schedule deterministic
	// (default 1).
	Seed int64
	// Churn is the mid-run disturbance schedule (zero: steady state).
	Churn Churn
	// Metrics receives operational counters when set (see
	// RegisterMetrics); nil uses a private throwaway registry.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.FanOut == 0 {
		c.FanOut = 8
	}
	if c.OwnerEvery == 0 {
		c.OwnerEvery = 1
	}
	if c.RecordsPerOwner == 0 {
		c.RecordsPerOwner = 50
	}
	if c.AttrsPerDist == 0 {
		c.AttrsPerDist = 2
	}
	if c.SummaryBuckets == 0 {
		c.SummaryBuckets = 64
	}
	if c.QueryDims == 0 {
		c.QueryDims = 3
	}
	if c.QueryRange == 0 {
		c.QueryRange = workload.DefaultQueryRange
	}
	if c.Queries == 0 {
		c.Queries = 500
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 10 * time.Second
	}
	if c.ConvergeTimeout == 0 {
		c.ConvergeTimeout = 2 * time.Minute
	}
	if c.Tick == 0 {
		c.Tick = 50 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Churn.RecordOwners == 0 {
		c.Churn.RecordOwners = 1
	}
	if c.Churn.RecordFraction == 0 {
		c.Churn.RecordFraction = 0.2
	}
	if c.Churn.WriteOwners == 0 {
		c.Churn.WriteOwners = 1
	}
	if c.Churn.WriteFraction == 0 {
		c.Churn.WriteFraction = 0.05
	}
	if c.Churn.ReviveAfter == 0 {
		c.Churn.ReviveAfter = 2 * time.Second
	}
	if c.Churn.PartitionFraction == 0 {
		c.Churn.PartitionFraction = 0.3
	}
	if c.Churn.HealAfter == 0 {
		c.Churn.HealAfter = 2 * time.Second
	}
	return c
}

// Result is what one load run measured.
type Result struct {
	Servers int `json:"servers"`
	FanOut  int `json:"fan_out"`
	Depth   int `json:"depth"`
	Owners  int `json:"owners"`
	Records int `json:"records"`

	BuildSeconds    float64 `json:"build_seconds"`
	ConvergeSeconds float64 `json:"converge_seconds"`
	DriveSeconds    float64 `json:"drive_seconds"`

	Queries  int `json:"queries"`
	Failures int `json:"failures"`

	LatencyMean time.Duration `json:"latency_mean_ns"`
	LatencyP50  time.Duration `json:"latency_p50_ns"`
	LatencyP95  time.Duration `json:"latency_p95_ns"`
	LatencyP99  time.Duration `json:"latency_p99_ns"`

	// CoverageMean/Min summarize per-query discovered-region coverage
	// (1.0 = every advertised region answered).
	CoverageMean float64 `json:"coverage_mean"`
	CoverageMin  float64 `json:"coverage_min"`

	// RedirectHops counts answered redirect descents across all queries;
	// FPDescents the subset that yielded neither records nor further
	// redirects; FPDescentRate their ratio. FPDescentsByDepth breaks the
	// false positives down by tree depth (index d = descents whose
	// redirect chain was d hops long; index 0 unused) — deep entries are
	// the expensive ones, each a full wasted walk down the hierarchy.
	RedirectHops      int     `json:"redirect_hops"`
	FPDescents        int     `json:"fp_descents"`
	FPDescentRate     float64 `json:"fp_descent_rate"`
	FPDescentsByDepth []int   `json:"fp_descents_by_depth,omitempty"`

	// SummaryReplans sums the servers' adaptive-resolution geometry
	// changes; ServerFPDescents the false-positive descents the servers
	// themselves detected (counted even with adaptation disabled);
	// PlanDeviationSum the summed |resolution level| across alive servers
	// at drive end (zero = everyone still runs the static base config).
	SummaryReplans   uint64 `json:"summary_replans"`
	ServerFPDescents uint64 `json:"server_fp_descents"`
	PlanDeviationSum int64  `json:"plan_deviation_sum"`

	// BytesPerNodePerSec is transport bytes moved during the drive phase
	// divided by server count and drive seconds.
	BytesPerNodePerSec float64 `json:"bytes_per_node_per_sec"`

	RecordChurnEvents int `json:"record_churn_events"`
	RecordsReplaced   int `json:"records_replaced"`
	Kills             int `json:"kills"`
	Revives           int `json:"revives"`

	// Write-churn results (all zero without Churn.WriteEvery):
	// RecordsWritten counts records removed plus records added by the
	// Add/Remove churn (equal halves — totals stay constant).
	WriteChurnEvents int `json:"write_churn_events"`
	RecordsWritten   int `json:"records_written"`

	// Refresh-pipeline economics sampled across alive servers at drive
	// end: how many refresh ticks ran federation-wide, what fraction
	// reused every cached summary, and the wall time refreshes consumed.
	// OwnerShardRebuilds / OwnerPartialMerges are the owner stores'
	// partial-summary counters — writes land on owners, so that is where
	// the sharded-store maintenance shows up.
	RefreshTicks       uint64  `json:"refresh_ticks"`
	RefreshSkipped     uint64  `json:"refresh_skipped"`
	RefreshSkipRate    float64 `json:"refresh_skip_rate"`
	RefreshBusySeconds float64 `json:"refresh_busy_seconds"`
	OwnerShardRebuilds uint64  `json:"owner_shard_rebuilds"`
	OwnerPartialMerges uint64  `json:"owner_partial_merges"`

	// Partition-churn results (all zero without Churn.PartitionEvery).
	// SplitBrainSeconds is the sampled wall time during which more than one
	// alive server claimed the root role; HealSeconds how long after the
	// final heal the federation took to return to one root at full
	// coverage. FinalRoots and FinalCoverage snapshot the end state
	// (FinalCoverage = min alive coverage / federation records; 1.0 means
	// every alive server routes to everything). EpochRegressions sums
	// roads_membership_epoch_regressions_total across alive servers — the
	// membership-fencing invariant is that it stays zero — and
	// MembershipMerges the split-brain merges executed.
	Partitions        int     `json:"partitions"`
	PartitionsHealed  int     `json:"partitions_healed"`
	SplitBrainSeconds float64 `json:"split_brain_seconds"`
	HealSeconds       float64 `json:"heal_seconds"`
	FinalRoots        int     `json:"final_roots"`
	FinalCoverage     float64 `json:"final_coverage"`
	EpochRegressions  int     `json:"epoch_regressions"`
	MembershipMerges  int     `json:"membership_merges"`

	// Client-cache and admission results (all zero unless the run enables
	// the cache/admission paths). Server-side counters are summed across
	// alive servers at drive end. ClientCacheHits counts main-client
	// resolves served off the client cache via a NotModified revalidation;
	// CoarseAnswers the main-client resolves shed to coarse summary-only
	// answers (stays zero while main clients run PriorityHigh). The Hot*
	// fields tally the hot tenant's traffic separately.
	ClientCacheHits   int           `json:"client_cache_hits"`
	CoarseAnswers     int           `json:"coarse_answers"`
	AdmissionAdmitted uint64        `json:"admission_admitted"`
	AdmissionShed     uint64        `json:"admission_shed"`
	HotQueries        int           `json:"hot_queries"`
	HotCoarse         int           `json:"hot_coarse"`
	HotFailures       int           `json:"hot_failures"`
	HotLatencyP99     time.Duration `json:"hot_latency_p99_ns"`
}

// Run executes one load run: build the hierarchy, attach owners, wait for
// convergence, drive queries (with churn, if scheduled), tear down, and
// report.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("loadgen: Config.Servers must be positive")
	}
	parents, err := Placement(cfg.Servers, cfg.FanOut, cfg.MinDepth)
	if err != nil {
		return nil, err
	}
	m := cfg.Metrics
	if m == nil {
		m = RegisterMetrics(obs.NewRegistry())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Workload: one record set per owner server.
	ownerIdx := make([]int, 0, cfg.Servers/cfg.OwnerEvery+1)
	for i := 0; i < cfg.Servers; i += cfg.OwnerEvery {
		ownerIdx = append(ownerIdx, i)
	}
	w, err := workload.Generate(workload.Config{
		Nodes:            len(ownerIdx),
		RecordsPerNode:   cfg.RecordsPerOwner,
		AttrsPerDist:     cfg.AttrsPerDist,
		CategoricalAttrs: cfg.CategoricalAttrs,
		CategoricalVocab: cfg.CategoricalVocab,
		CategoricalDepth: cfg.CategoricalDepth,
	}, rng)
	if err != nil {
		return nil, err
	}

	sumCfg := summary.DefaultConfig()
	sumCfg.Buckets = cfg.SummaryBuckets
	if cfg.SummaryBloom {
		sumCfg.Categorical = summary.UseBloom
	}
	sumCfg.CondenseAbove = cfg.CondenseAbove

	addrOf := func(i int) string { return fmt.Sprintf("srv%03d", i) }

	// The in-process transport carries everything; partition churn wraps it
	// in the fault injector so whole address sets can be severed mid-run.
	// The Chan handle stays visible for byte accounting either way. Dropped
	// calls black-hole briefly relative to the tick so severed reports
	// fail fast instead of serializing behind multi-second holes.
	ch := transport.NewChan()
	var tr transport.Transport = ch
	var faulty *transport.Faulty
	ccfg := live.ClusterConfig{
		N:              cfg.Servers,
		Schema:         w.Schema,
		Summary:        sumCfg,
		MaxChildren:    cfg.FanOut,
		JoinVia:        func(i int) int { return parents[i] },
		Parallelism:    cfg.Parallelism,
		Tick:           cfg.Tick,
		AdmissionRate:  cfg.AdmissionRate,
		AdmissionBurst: cfg.AdmissionBurst,

		DisableAdaptiveSummaries: cfg.DisableAdaptive,
		SummaryByteBudget:        cfg.SummaryByteBudget,
		ReplanEvery:              cfg.ReplanEvery,
	}
	if cfg.Churn.PartitionEvery > 0 {
		faulty = transport.NewFaulty(ch, cfg.Seed+307)
		faulty.MaxBlackhole = cfg.Tick
		tr = faulty
		// Server 0 never dies and always sits on the majority side (a
		// severed subtree never contains the placement root), so it is the
		// one well-known address a severed root can probe to find its way
		// back after the heal.
		ccfg.MergeSeeds = []string{addrOf(0)}
	}
	buildStart := time.Now()
	cl, err := live.StartCluster(tr, ccfg)
	if err != nil {
		return nil, err
	}
	defer cl.Stop()
	buildSecs := time.Since(buildStart).Seconds()

	owners := make(map[int]*policy.Owner, len(ownerIdx))
	for j, idx := range ownerIdx {
		o := policy.NewOwner(fmt.Sprintf("owner%04d", idx), w.Schema, nil)
		o.SetRecords(w.PerNode[j])
		if err := cl.AttachOwner(idx, o); err != nil {
			return nil, err
		}
		owners[idx] = o
	}
	total := uint64(w.TotalRecords())
	convStart := time.Now()
	if err := cl.WaitConverged(total, cfg.ConvergeTimeout); err != nil {
		return nil, err
	}
	convSecs := time.Since(convStart).Seconds()

	queries, err := w.GenQueriesSkewed(cfg.Queries, cfg.QueryDims, cfg.QueryRange, cfg.QuerySkew, rng)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Servers: cfg.Servers,
		FanOut:  cfg.FanOut,
		Depth:   Depth(parents),
		Owners:  len(ownerIdx),
		Records: int(total),

		BuildSeconds:    buildSecs,
		ConvergeSeconds: convSecs,
		CoverageMin:     1,
	}

	// Liveness bookkeeping shared by entry-point picking and churn:
	// aliveMu guards both the alive mask and cl.Servers slots (revive
	// swaps in a fresh *Server).
	var aliveMu sync.Mutex
	alive := make([]bool, cfg.Servers)
	for i := range alive {
		alive[i] = true
	}
	pickAlive := func(r *rand.Rand) int {
		aliveMu.Lock()
		defer aliveMu.Unlock()
		for try := 0; try < 8; try++ {
			if i := r.Intn(cfg.Servers); alive[i] {
				return i
			}
		}
		off := r.Intn(cfg.Servers)
		for d := 0; d < cfg.Servers; d++ {
			if i := (off + d) % cfg.Servers; alive[i] {
				return i
			}
		}
		return 0 // unreachable: server 0 is never killed
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var churnWg sync.WaitGroup
	var churnSeq atomic.Int64
	var recordEvents, recordsReplaced, kills, revives atomic.Int64
	var writeEvents, recordsWritten atomic.Int64
	var partitions, partitionsHealed atomic.Int64
	var splitBrainNs atomic.Int64

	if cfg.Churn.RecordEvery > 0 {
		churnWg.Add(1)
		crng := rand.New(rand.NewSource(cfg.Seed + 101))
		go func() {
			defer churnWg.Done()
			tick := time.NewTicker(cfg.Churn.RecordEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				for j := 0; j < cfg.Churn.RecordOwners; j++ {
					o := owners[ownerIdx[crng.Intn(len(ownerIdx))]]
					cur := o.Records()
					n := len(cur)
					if n == 0 {
						continue
					}
					k := int(cfg.Churn.RecordFraction * float64(n))
					if k < 1 {
						k = 1
					}
					next := make([]*record.Record, n)
					copy(next, cur)
					for r := 0; r < k; r++ {
						nr := cur[crng.Intn(n)].Clone()
						nr.ID = fmt.Sprintf("churn%06d", churnSeq.Add(1))
						next[crng.Intn(n)] = nr
					}
					o.SetRecords(next)
					recordsReplaced.Add(int64(k))
				}
				recordEvents.Add(1)
				m.RecordChurn.Inc()
			}
		}()
	}
	if cfg.Churn.WriteEvery > 0 {
		churnWg.Add(1)
		wrng := rand.New(rand.NewSource(cfg.Seed + 401))
		go func() {
			defer churnWg.Done()
			tick := time.NewTicker(cfg.Churn.WriteEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				for j := 0; j < cfg.Churn.WriteOwners; j++ {
					o := owners[ownerIdx[wrng.Intn(len(ownerIdx))]]
					cur := o.Records()
					n := len(cur)
					if n == 0 {
						continue
					}
					k := int(cfg.Churn.WriteFraction * float64(n))
					if k < 1 {
						k = 1
					}
					ids := make([]string, 0, k)
					for r := 0; r < k; r++ {
						ids = append(ids, cur[wrng.Intn(n)].ID)
					}
					removed := o.RemoveRecords(ids...)
					if removed == 0 {
						continue
					}
					// Add exactly as many fresh records as were removed so
					// the federation total — and with it every convergence
					// target — stays constant.
					fresh := make([]*record.Record, removed)
					for i := range fresh {
						nr := cur[wrng.Intn(n)].Clone()
						nr.ID = fmt.Sprintf("write%06d", churnSeq.Add(1))
						fresh[i] = nr
					}
					o.AddRecords(fresh...)
					recordsWritten.Add(int64(2 * removed))
				}
				writeEvents.Add(1)
				m.WriteChurn.Inc()
			}
		}()
	}
	if cfg.Churn.KillEvery > 0 {
		churnWg.Add(1)
		krng := rand.New(rand.NewSource(cfg.Seed + 211))
		go func() {
			defer churnWg.Done()
			tick := time.NewTicker(cfg.Churn.KillEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				// Pick a random alive victim, sparing the root (killing
				// it forces an election; that failure mode has its own
				// chaos tests and would swamp every other measurement).
				aliveMu.Lock()
				victim := -1
				for try := 0; try < 16; try++ {
					i := 1 + krng.Intn(cfg.Servers-1)
					if alive[i] && !cl.Servers[i].IsRoot() {
						victim = i
						break
					}
				}
				var srv *live.Server
				if victim >= 0 {
					alive[victim] = false
					srv = cl.Servers[victim]
				}
				aliveMu.Unlock()
				if victim < 0 {
					continue
				}
				srv.Kill()
				kills.Add(1)
				m.Kills.Inc()
				churnWg.Add(1)
				go func(i int) {
					defer churnWg.Done()
					select {
					case <-ctx.Done():
						return
					case <-time.After(cfg.Churn.ReviveAfter):
					}
					srv, err := reviveServer(cl, tr, cfg, sumCfg, w, owners[i], i, addrOf(i))
					if err != nil {
						return // stays dead; coverage shows it
					}
					aliveMu.Lock()
					cl.Servers[i] = srv
					alive[i] = true
					aliveMu.Unlock()
					revives.Add(1)
					m.Revives.Inc()
				}(victim)
			}
		}()
	}
	if faulty != nil && cfg.Servers > 2 {
		// Subtree sizes from the placement: parents[i] < i, so a reverse
		// pass accumulates every child into its parent before the parent
		// itself is visited.
		subSize := make([]int, cfg.Servers)
		for i := cfg.Servers - 1; i > 0; i-- {
			subSize[i]++
			subSize[parents[i]] += subSize[i]
		}
		subSize[0]++
		inSubtree := func(j, v int) bool {
			for j >= 0 {
				if j == v {
					return true
				}
				j = parents[j]
			}
			return false
		}
		// pickCut chooses the subtree to sever: any non-root node whose
		// subtree size lands within ±50% of the target fraction, picked at
		// random; if the placement offers none (very flat or very skewed
		// trees), the closest-sized subtree wins.
		target := int(cfg.Churn.PartitionFraction * float64(cfg.Servers))
		if target < 1 {
			target = 1
		}
		pickCut := func(r *rand.Rand) int {
			lo, hi := target/2, target+target/2
			if lo < 1 {
				lo = 1
			}
			cands := make([]int, 0, cfg.Servers)
			for i := 1; i < cfg.Servers; i++ {
				if subSize[i] >= lo && subSize[i] <= hi {
					cands = append(cands, i)
				}
			}
			if len(cands) > 0 {
				return cands[r.Intn(len(cands))]
			}
			best, bestDiff := 1, cfg.Servers
			for i := 1; i < cfg.Servers; i++ {
				diff := subSize[i] - target
				if diff < 0 {
					diff = -diff
				}
				if diff < bestDiff {
					best, bestDiff = i, diff
				}
			}
			return best
		}
		churnWg.Add(1)
		prng := rand.New(rand.NewSource(cfg.Seed + 307))
		go func() {
			defer churnWg.Done()
			tick := time.NewTicker(cfg.Churn.PartitionEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				v := pickCut(prng)
				sideA := make([]string, 0, subSize[v])
				sideB := make([]string, 0, cfg.Servers-subSize[v])
				for j := 0; j < cfg.Servers; j++ {
					if inSubtree(j, v) {
						sideA = append(sideA, addrOf(j))
					} else {
						sideB = append(sideB, addrOf(j))
					}
				}
				faulty.SetRules(transport.PartitionSets(sideA, sideB)...)
				partitions.Add(1)
				m.Partitions.Inc()
				// Heal after HealAfter — or immediately at drive end, so
				// the post-drive re-convergence wait never starts fenced
				// off behind a live partition.
				select {
				case <-ctx.Done():
				case <-time.After(cfg.Churn.HealAfter):
				}
				faulty.ClearRules()
				partitionsHealed.Add(1)
				m.PartitionsHealed.Inc()
			}
		}()
		// Split-brain sampler: accumulate wall time during which more than
		// one alive server claims the root role.
		churnWg.Add(1)
		go func() {
			defer churnWg.Done()
			tick := time.NewTicker(25 * time.Millisecond)
			defer tick.Stop()
			last := time.Now()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				now := time.Now()
				roots := 0
				aliveMu.Lock()
				for i, srv := range cl.Servers {
					if alive[i] && srv.IsRoot() {
						roots++
					}
				}
				aliveMu.Unlock()
				if roots > 1 {
					splitBrainNs.Add(int64(now.Sub(last)))
				}
				last = now
			}
		}()
	}

	// Drive phase: Clients workers share one query index.
	var (
		qIdx      atomic.Int64
		resMu     sync.Mutex
		durs      = make([]time.Duration, 0, len(queries))
		covSum    float64
		covMin    = 1.0
		failures  int
		fpHops    int
		fpByDepth []int
		redirs    int
		cliHits   int
		coarse    int
		hotDurs   []time.Duration
		hotCoarse int
		hotFailed int
		hotIssued atomic.Int64
	)
	bytesStart := ch.BytesMoved()
	driveStart := time.Now()
	var issued atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli := live.NewClient(tr, fmt.Sprintf("loadgen-%d", c))
			cli.Trace = !cfg.Untraced
			cli.Priority = cfg.ClientPriority
			cli.CacheResults = cfg.ClientCache
			wrng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919 + 17))
			// A caching client sticks to one entry server (the client
			// cache keys on the entry address, like a real client that
			// keeps talking to its nearby server); it re-picks only after
			// a failure in case its server died.
			sticky := -1
			for {
				k := qIdx.Add(1) - 1
				if k >= int64(len(queries)) {
					if cfg.MinDrive <= 0 || time.Since(driveStart) >= cfg.MinDrive {
						return
					}
					k %= int64(len(queries)) // wrap: keep driving until MinDrive
				}
				if cfg.RepeatFraction > 0 && k > 0 && wrng.Float64() < cfg.RepeatFraction {
					// Re-issue an already-issued query: the repeat-query
					// workload the client cache serves. The ticket is still
					// consumed, so the total issue count is unchanged.
					k = int64(wrng.Intn(int(min64(k, int64(len(queries))))))
				}
				issued.Add(1)
				var entry string
				if cfg.ClientCache {
					if sticky < 0 {
						sticky = pickAlive(wrng)
					}
					entry = addrOf(sticky)
				} else {
					entry = addrOf(pickAlive(wrng))
				}
				qctx, qcancel := context.WithTimeout(ctx, cfg.QueryTimeout)
				_, qs, err := cli.ResolveContext(qctx, entry, queries[k])
				qcancel()
				if err != nil {
					sticky = -1
				}
				m.Queries.Inc()
				m.Latency.Observe(qs.Elapsed)
				var fp, rd int
				var fpDepths []int
				for _, h := range qs.Hops {
					if h.Kind == "redirect" && h.Err == "" {
						rd++
						if h.Records == 0 && h.Redirects == 0 {
							fp++
							// The redirect chain length is the tree depth
							// at which the false positive bottomed out.
							d := len(h.Path)
							fpDepths = append(fpDepths, d)
							m.FPDepth.Observe(time.Duration(d))
						}
					}
				}
				if fp > 0 {
					m.FPDescents.Add(uint64(fp))
				}
				if qs.CacheHit {
					m.ClientCacheHits.Inc()
				}
				resMu.Lock()
				redirs += rd
				fpHops += fp
				for _, d := range fpDepths {
					for len(fpByDepth) <= d {
						fpByDepth = append(fpByDepth, 0)
					}
					fpByDepth[d]++
				}
				switch {
				case err != nil:
					failures++
					m.Failures.Inc()
				case qs.Coarse > 0:
					// A shed answer is a success on the wire but carries no
					// records; keep it out of the latency/coverage stats so
					// they keep describing full resolves.
					coarse++
					m.CoarseAnswers.Inc()
				default:
					if qs.CacheHit {
						cliHits++
					}
					durs = append(durs, qs.Elapsed)
					covSum += qs.Coverage
					if qs.Coverage < covMin {
						covMin = qs.Coverage
					}
				}
				resMu.Unlock()
			}
		}(c)
	}

	// Hot tenant: extra clients sharing one requester identity hammer a
	// small hot query set at low priority until the main drive completes.
	// With admission enabled they burn one shared token bucket per entry
	// server and get shed to coarse answers; their numbers stay out of the
	// main stats.
	hotCtx, hotCancel := context.WithCancel(ctx)
	var hotWg sync.WaitGroup
	for h := 0; h < cfg.HotClients; h++ {
		hotWg.Add(1)
		go func(h int) {
			defer hotWg.Done()
			cli := live.NewClient(tr, "hot-tenant")
			cli.Priority = wire.PriorityLow
			cli.CacheResults = cfg.ClientCache
			hrng := rand.New(rand.NewSource(cfg.Seed + int64(h)*104729 + 31))
			hotSet := len(queries)
			if hotSet > 4 {
				hotSet = 4
			}
			for {
				select {
				case <-hotCtx.Done():
					return
				default:
				}
				entry := addrOf(pickAlive(hrng))
				qctx, qcancel := context.WithTimeout(hotCtx, cfg.QueryTimeout)
				_, qs, err := cli.ResolveContext(qctx, entry, queries[hrng.Intn(hotSet)])
				qcancel()
				if err != nil && hotCtx.Err() != nil {
					return // cut off by the end of the drive, not a sample
				}
				hotIssued.Add(1)
				m.HotQueries.Inc()
				resMu.Lock()
				switch {
				case err != nil:
					hotFailed++
				case qs.Coarse > 0:
					hotCoarse++
					m.CoarseAnswers.Inc()
				default:
					hotDurs = append(hotDurs, qs.Elapsed)
				}
				resMu.Unlock()
				time.Sleep(time.Millisecond) // keep the hammer off 100% CPU
			}
		}(h)
	}
	wg.Wait()
	hotCancel()
	hotWg.Wait()
	driveSecs := time.Since(driveStart).Seconds()
	bytesMoved := ch.BytesMoved() - bytesStart
	cancel()
	churnWg.Wait()

	// Final federation state across alive servers: root count and coverage
	// (allExact means every alive server routes to exactly the federation
	// total — converged with no double counting).
	finalState := func() (roots int, minCov uint64, allExact bool) {
		allExact = true
		minCov = ^uint64(0)
		aliveMu.Lock()
		defer aliveMu.Unlock()
		for i, srv := range cl.Servers {
			if !alive[i] {
				continue
			}
			if srv.IsRoot() {
				roots++
			}
			cov := srv.CoveredRecords()
			if cov < minCov {
				minCov = cov
			}
			if cov != total {
				allExact = false
			}
		}
		if minCov == ^uint64(0) {
			minCov = 0
		}
		return
	}
	if faulty != nil {
		// Heal anything still severed (a partition cut short by drive end
		// already cleared its rules, but be unconditional) and wait for
		// the membership protocol to merge back to one root at full
		// coverage. Failures here are reported as the final-state fields,
		// not an error: the measurement is the point.
		faulty.ClearRules()
		healStart := time.Now()
		deadline := healStart.Add(cfg.ConvergeTimeout)
		for {
			roots, _, allExact := finalState()
			if (roots == 1 && allExact) || time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		res.HealSeconds = time.Since(healStart).Seconds()
	}
	finalRoots, minCov, _ := finalState()
	res.FinalRoots = finalRoots
	if total > 0 {
		res.FinalCoverage = float64(minCov) / float64(total)
	}
	var regress, mMerges uint64
	aliveMu.Lock()
	for i, srv := range cl.Servers {
		if alive[i] {
			mi := srv.Membership()
			regress += mi.EpochRegressions
			mMerges += mi.Merges
			ri := srv.RefreshInfo()
			res.RefreshTicks += ri.Ticks
			res.RefreshSkipped += ri.Skipped
			res.RefreshBusySeconds += ri.BusySeconds
			ai := srv.AdmissionInfo()
			res.AdmissionAdmitted += ai.Admitted
			res.AdmissionShed += ai.Shed
			di := srv.AdaptiveInfo()
			res.SummaryReplans += di.Replans
			res.ServerFPDescents += di.FPDescents
			res.PlanDeviationSum += di.PlanDeviation
		}
	}
	aliveMu.Unlock()
	res.EpochRegressions = int(regress)
	res.MembershipMerges = int(mMerges)
	if res.RefreshTicks > 0 {
		res.RefreshSkipRate = float64(res.RefreshSkipped) / float64(res.RefreshTicks)
	}
	for _, o := range owners {
		os := o.StoreStats()
		res.OwnerShardRebuilds += os.ShardRebuilds
		res.OwnerPartialMerges += os.PartialMerges
	}

	res.DriveSeconds = driveSecs
	res.Queries = int(issued.Load())
	res.Failures = failures
	if len(durs) > 0 {
		res.LatencyMean = stats.MeanDuration(durs)
		res.LatencyP50 = stats.PercentileDuration(durs, 0.50)
		res.LatencyP95 = stats.PercentileDuration(durs, 0.95)
		res.LatencyP99 = stats.PercentileDuration(durs, 0.99)
		res.CoverageMean = covSum / float64(len(durs))
		res.CoverageMin = covMin
	}
	res.RedirectHops = redirs
	res.FPDescents = fpHops
	res.FPDescentsByDepth = fpByDepth
	if redirs > 0 {
		res.FPDescentRate = float64(fpHops) / float64(redirs)
	}
	if driveSecs > 0 {
		res.BytesPerNodePerSec = float64(bytesMoved) / float64(cfg.Servers) / driveSecs
	}
	res.RecordChurnEvents = int(recordEvents.Load())
	res.RecordsReplaced = int(recordsReplaced.Load())
	res.WriteChurnEvents = int(writeEvents.Load())
	res.RecordsWritten = int(recordsWritten.Load())
	res.Kills = int(kills.Load())
	res.Revives = int(revives.Load())
	res.Partitions = int(partitions.Load())
	res.PartitionsHealed = int(partitionsHealed.Load())
	res.SplitBrainSeconds = time.Duration(splitBrainNs.Load()).Seconds()
	res.ClientCacheHits = cliHits
	res.CoarseAnswers = coarse
	res.HotQueries = int(hotIssued.Load())
	res.HotCoarse = hotCoarse
	res.HotFailures = hotFailed
	if len(hotDurs) > 0 {
		res.HotLatencyP99 = stats.PercentileDuration(hotDurs, 0.99)
	}
	return res, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// reviveServer rebuilds a killed server with its old identity, re-attaches
// its owner (if any), and rejoins through the root seed, mirroring the
// per-server configuration StartCluster applied. The caller swaps the
// returned *Server into cl.Servers (under its liveness lock) so teardown
// and later kills see it.
func reviveServer(cl *live.Cluster, tr transport.Transport, cfg Config, sumCfg summary.Config, w *workload.Workload, o *policy.Owner, i int, addr string) (*live.Server, error) {
	scfg := live.DefaultConfig(fmt.Sprintf("srv%03d", i), addr, w.Schema)
	scfg.Summary = sumCfg
	scfg.MaxChildren = cfg.FanOut
	scfg.AggregateEvery = cfg.Tick
	scfg.AdmissionRate = cfg.AdmissionRate
	scfg.AdmissionBurst = cfg.AdmissionBurst
	scfg.DisableAdaptiveSummaries = cfg.DisableAdaptive
	scfg.SummaryByteBudget = cfg.SummaryByteBudget
	scfg.ReplanEvery = cfg.ReplanEvery
	srv, err := live.NewServer(scfg, tr)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	if o != nil {
		if err := srv.AttachOwner(o); err != nil {
			srv.Stop()
			return nil, err
		}
	}
	// The old parent may itself be down; seed at server 0 (never killed)
	// and let the join descend. A few retries ride out windows where
	// ancestors are mid-recovery.
	var jerr error
	for attempt := 0; attempt < 5; attempt++ {
		if jerr = srv.Join(cl.Servers[0].Addr()); jerr == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if jerr != nil {
		srv.Stop()
		return nil, jerr
	}
	return srv, nil
}
