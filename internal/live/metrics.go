package live

import (
	"time"

	"roads/internal/obs"
)

// serverMetrics is the server's named-series view of its operational
// counters. The counters are the same atomics the handlers bump — the
// registry only adds names, help strings and gauge closures on top — so
// instrumentation costs the hot path nothing beyond the atomic adds it
// already paid for Status.
//
// When Config.Metrics is nil each server registers into a private registry
// (many servers share a process in tests and simulations, and series are
// label-free, so sharing one registry would collide); roadsd passes one
// shared registry per process and serves it at /metrics.
type serverMetrics struct {
	reg *obs.Registry

	queries         *obs.Counter
	shed            *obs.Counter
	redirects       *obs.Counter
	summaryReports  *obs.Counter
	replicaPushes   *obs.Counter
	summaryErrors   *obs.Counter
	parentFailovers *obs.Counter
	childrenPruned  *obs.Counter
	evalLatency     *obs.Histogram

	// Change-driven dissemination counters.
	rebuildsSkipped   *obs.Counter
	reportsSuppressed *obs.Counter
	pushDelta         *obs.Counter
	pushFull          *obs.Counter
	earlyRounds       *obs.Counter

	// Membership-epoch counters (see membership.go).
	fenced           *obs.Counter
	elections        *obs.Counter
	merges           *obs.Counter
	probes           *obs.Counter
	orphanRetries    *obs.Counter
	epochRegressions *obs.Counter

	// Fingerprint revalidations confirmed (see handleQuery).
	notModified *obs.Counter

	// Empty contacts (see noteFPDescent).
	fpDescents *obs.Counter
}

// newServerMetrics registers the server's series on reg (which must not
// already hold roads_* server series). Gauges are closures over the routing
// snapshot, so scrapes read the same lock-free state queries route by.
func newServerMetrics(s *Server, reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		reg: reg,
		queries: reg.Counter("roads_queries_total",
			"Queries evaluated to completion (not shed)."),
		shed: reg.Counter("roads_queries_shed_total",
			"Queries abandoned mid-evaluation because their deadline budget ran out."),
		redirects: reg.Counter("roads_redirects_total",
			"Redirect targets issued across all query replies."),
		summaryReports: reg.Counter("roads_summary_reports_total",
			"Child branch-summary reports ingested."),
		replicaPushes: reg.Counter("roads_replica_pushes_total",
			"Overlay replicas ingested (each push inside a batch counts once)."),
		summaryErrors: reg.Counter("roads_summary_errors_total",
			"Summary refresh failures (previous summaries stay published)."),
		parentFailovers: reg.Counter("roads_parent_failovers_total",
			"Parent-failure recoveries started (rejoin via ancestors or root election)."),
		childrenPruned: reg.Counter("roads_children_pruned_total",
			"Children dropped for not reporting in 16 of this server's periodic rounds, the window a replica lives unrenewed (their subtrees rejoin via their root paths)."),
		evalLatency: reg.Histogram("roads_query_eval_seconds",
			"Query evaluation latency on this server (canonical obs bucket ladder).",
			obs.DefaultLatencyBounds()),
		rebuildsSkipped: reg.Counter("roads_summary_rebuilds_skipped_total",
			"Refresh ticks that reused every cached summary because neither an owner nor a child branch changed."),
		reportsSuppressed: reg.Counter("roads_report_suppressed_total",
			"Version-only reports sent in place of full branch summaries (the parent confirmed holding the current version)."),
		pushDelta: reg.Counter("roads_replica_push_delta_total",
			"Replica entries confirmed without their summaries: tag-only entries of list batches, and every entry a report ack's digest stands for."),
		pushFull: reg.Counter("roads_replica_push_full_total",
			"Replica entries sent with their summaries (new origin, changed tag, or the child asked for the origin in full)."),
		earlyRounds: reg.Counter("roads_early_rounds_total",
			"Content-only aggregation rounds run between periods because an attached owner wrote, a child branch came in at a new version, a full replica entry changed a replica passed on to children, or a join was accepted (after each, the next waits nine times what it charged, at most half a period)."),
		fenced: reg.Counter("roads_membership_fenced_total",
			"Relationship messages rejected (or replies discarded) for carrying a membership epoch lower than the recorded one."),
		elections: reg.Counter("roads_membership_elections_total",
			"Times this server assumed the root role through recovery (election win or exhausted-recovery claim)."),
		merges: reg.Counter("roads_membership_merges_total",
			"Split-brain merges executed as the losing root (this server's whole tree joined the winner as a subtree)."),
		probes: reg.Counter("roads_membership_probes_total",
			"Split-brain root probes sent to merge seeds and remembered ancestry."),
		orphanRetries: reg.Counter("roads_orphan_retries_total",
			"Failed recovery attempts, each retried a few periodic rounds later — the orphan keeps retrying instead of dangling as an accidental root."),
		epochRegressions: reg.Counter("roads_membership_epoch_regressions_total",
			"Accepted relationship messages that would move a recorded membership epoch backward; the fencing invariant is that this stays zero."),
		notModified: reg.Counter("roads_cache_not_modified_total",
			"Queries answered NotModified because the requester's cached fingerprint still matched — zero evaluation, zero descent."),
		fpDescents: reg.Counter("roads_fp_descents_total",
			"False-positive descents absorbed: redirected (non-start) queries that found no records and no further redirects here — the summary a peer routed on matched spuriously."),
	}
	reg.SecondsCounterFunc("roads_early_round_seconds_total",
		"Time the early rounds charged toward the gap after them: each round's wall time less the wait for the slower children after the first push answer. Nine times its mean per round is the gap; it grows by at most about a tenth of the time elapsed while each round charges under a twentieth of a period.",
		func() time.Duration { return time.Duration(s.earlyBusyNs.Load()) })
	reg.GaugeFunc("roads_children",
		"Current child count.", func() float64 {
			return float64(len(s.snap.Load().children))
		})
	reg.GaugeFunc("roads_replicas",
		"Overlay replicas currently held.", func() float64 {
			return float64(s.snap.Load().numReplicas)
		})
	reg.GaugeFunc("roads_owners",
		"Resource owners attached locally.", func() float64 {
			return float64(len(s.snap.Load().owners))
		})
	reg.GaugeFunc("roads_local_records",
		"Records the local summary covers.", func() float64 {
			if l := s.snap.Load().localSummary; l != nil {
				return float64(l.Records)
			}
			return 0
		})
	reg.GaugeFunc("roads_branch_records",
		"Records the branch summary covers (self + descendants).", func() float64 {
			if b := s.snap.Load().branchSummary; b != nil {
				return float64(b.Records)
			}
			return 0
		})
	reg.GaugeFunc("roads_covered_records",
		"Records reachable via branch + overlay replicas; equals the federation total at full convergence.",
		func() float64 {
			return float64(s.snap.Load().covered)
		})
	reg.GaugeFunc("roads_is_root",
		"1 when the server currently has no parent.", func() float64 {
			if s.snap.Load().parentAddr == "" {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("roads_summary_age_seconds",
		"Seconds since the last successful summary refresh (0 before the first).",
		func() float64 {
			ns := s.lastRefresh.Load()
			if ns == 0 {
				return 0
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
	reg.GaugeFunc("roads_summary_bloom_fill",
		"Worst (highest) fill ratio across the branch summary's Bloom filters; 0 when no attribute is Bloom-summarized.",
		func() float64 {
			worst := 0.0
			if b := s.snap.Load().branchSummary; b != nil {
				for _, bl := range b.Blooms {
					if bl != nil {
						if f := bl.FillRatio(); f > worst {
							worst = f
						}
					}
				}
			}
			return worst
		})
	reg.GaugeFunc("roads_summary_bloom_fpr",
		"Worst (highest) estimated false-positive rate across the branch summary's Bloom filters (fill ratio raised to the hash count).",
		func() float64 {
			worst := 0.0
			if b := s.snap.Load().branchSummary; b != nil {
				for _, bl := range b.Blooms {
					if bl != nil {
						if p := bl.FalsePositiveRate(); p > worst {
							worst = p
						}
					}
				}
			}
			return worst
		})
	reg.GaugeFunc("roads_membership_epoch",
		"Current membership epoch (bumped when a recovery begins; converges to the federation maximum).", func() float64 {
			return float64(s.epoch.Load())
		})
	reg.GaugeFunc("roads_uptime_seconds",
		"Seconds since NewServer constructed this server.", func() float64 {
			return time.Since(s.startTime).Seconds()
		})
	return m
}
