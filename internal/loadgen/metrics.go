package loadgen

import (
	"time"

	"roads/internal/obs"
)

// Metrics are the operational counters the load harness maintains while
// driving a federation. Register them once per registry with
// RegisterMetrics and hand the result to Config.Metrics; every name below
// is documented in OPERATIONS.md (enforced by cmd/docscheck).
type Metrics struct {
	// Queries counts resolves issued; Failures the subset that returned
	// an error (timeout included).
	Queries  *obs.Counter
	Failures *obs.Counter
	// FPDescents counts answered redirect hops that contributed nothing —
	// no records, no further redirects — i.e. descents a sharper summary
	// would have pruned (the paper's false-positive forwarding cost).
	// FPDepth is the distribution of tree depths (redirect-chain lengths)
	// at which those false positives bottomed out: deep observations are
	// the expensive ones.
	FPDescents *obs.Counter
	FPDepth    *obs.Histogram
	// RecordChurn counts owner record-swap events; WriteChurn the
	// add/remove write events; Kills and Revives the server crash /
	// rejoin events the churn schedule injected.
	RecordChurn *obs.Counter
	WriteChurn  *obs.Counter
	Kills       *obs.Counter
	Revives     *obs.Counter
	// Partitions counts network partitions injected by the churn schedule;
	// PartitionsHealed the subset already healed (rules cleared).
	Partitions       *obs.Counter
	PartitionsHealed *obs.Counter
	// ClientCacheHits counts resolves served off a client's record cache
	// via a NotModified revalidation; CoarseAnswers resolves shed by
	// admission to coarse summary-only answers (main and hot clients
	// combined); HotQueries the hot tenant's resolves.
	ClientCacheHits *obs.Counter
	CoarseAnswers   *obs.Counter
	HotQueries      *obs.Counter
	// Latency is the end-to-end resolve latency distribution.
	Latency *obs.Histogram
}

// RegisterMetrics registers the harness metrics on reg and returns the
// handles. Call it once per registry — obs registries reject duplicate
// names.
func RegisterMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Queries:    reg.Counter("roads_loadgen_queries_total", "Queries the load harness has issued."),
		Failures:   reg.Counter("roads_loadgen_query_failures_total", "Load-harness queries that returned an error (timeouts included)."),
		FPDescents: reg.Counter("roads_loadgen_fp_descents_total", "Answered redirect hops that yielded neither records nor further redirects (false-positive descents)."),
		FPDepth: reg.Histogram("roads_loadgen_fp_depth",
			"Tree depth (redirect-chain length) at which false-positive descents bottomed out; unit is hops, not time.",
			[]time.Duration{1, 2, 3, 4, 5, 6, 8, 12}),
		RecordChurn: reg.Counter("roads_loadgen_record_churn_total", "Owner record-swap events injected by the churn schedule."),
		WriteChurn:  reg.Counter("roads_loadgen_write_churn_total", "Owner add/remove write-churn events injected by the churn schedule."),
		Kills:       reg.Counter("roads_loadgen_kills_total", "Servers crash-killed by the churn schedule."),
		Revives:     reg.Counter("roads_loadgen_revives_total", "Killed servers successfully restarted and rejoined."),
		Partitions:  reg.Counter("roads_loadgen_partitions_total", "Network partitions injected by the churn schedule."),
		PartitionsHealed: reg.Counter("roads_loadgen_partitions_healed_total",
			"Injected network partitions healed (fault rules cleared)."),
		ClientCacheHits: reg.Counter("roads_loadgen_client_cache_hits_total",
			"Resolves served off a client record cache via a NotModified revalidation."),
		CoarseAnswers: reg.Counter("roads_loadgen_coarse_answers_total",
			"Resolves shed by admission to coarse summary-only answers (main and hot clients combined)."),
		HotQueries: reg.Counter("roads_loadgen_hot_queries_total",
			"Resolves issued by the hot-tenant clients (Config.HotClients)."),
		Latency: reg.Histogram("roads_loadgen_query_seconds", "End-to-end query resolve latency.", obs.DefaultLatencyBounds()),
	}
}
