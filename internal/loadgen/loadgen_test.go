package loadgen

import (
	"fmt"
	"testing"
	"time"

	"roads/internal/live"
	"roads/internal/obs"
	"roads/internal/record"
	"roads/internal/transport"
)

func TestPlacementCompleteTree(t *testing.T) {
	parents, err := Placement(10, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{-1, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	for i, p := range parents {
		if p != want[i] {
			t.Fatalf("parents[%d] = %d, want %d (full: %v)", i, p, want[i], parents)
		}
	}
	if d := Depth(parents); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
}

func TestPlacementChain(t *testing.T) {
	parents, err := Placement(5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if parents[i] != i-1 {
			t.Fatalf("fanOut=1 must chain: parents[%d] = %d", i, parents[i])
		}
	}
	if d := Depth(parents); d != 4 {
		t.Fatalf("chain depth = %d, want 4", d)
	}
}

func TestPlacementMinDepthSpine(t *testing.T) {
	const n, fanOut, minDepth = 40, 3, 6
	parents, err := Placement(n, fanOut, minDepth)
	if err != nil {
		t.Fatal(err)
	}
	// The spine forces the depth floor.
	if d := Depth(parents); d < minDepth {
		t.Fatalf("depth = %d, want >= %d", d, minDepth)
	}
	for i := 1; i <= minDepth; i++ {
		if parents[i] != i-1 {
			t.Fatalf("spine broken at %d: parent %d", i, parents[i])
		}
	}
	// Capacity respected everywhere.
	kids := make([]int, n)
	for i := 1; i < n; i++ {
		if parents[i] < 0 || parents[i] >= i {
			t.Fatalf("parents[%d] = %d must be an earlier server", i, parents[i])
		}
		kids[parents[i]]++
	}
	for i, k := range kids {
		if k > fanOut {
			t.Fatalf("server %d has %d children, cap %d", i, k, fanOut)
		}
	}
}

func TestPlacementRejectsBadShapes(t *testing.T) {
	if _, err := Placement(0, 2, 0); err == nil {
		t.Fatal("n=0 must be rejected")
	}
	if _, err := Placement(5, 0, 0); err == nil {
		t.Fatal("fanOut=0 must be rejected")
	}
	if _, err := Placement(5, 2, 5); err == nil {
		t.Fatal("minDepth > n-1 must be rejected")
	}
}

// TestClusterJoinViaPlacement verifies the JoinVia wave construction
// yields exactly the intended topology: every server attaches at the
// parent its placement names (the parent always has capacity, so the join
// policy accepts at the seed).
func TestClusterJoinViaPlacement(t *testing.T) {
	const n, fanOut = 13, 3
	parents, err := Placement(n, fanOut, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewChan()
	cl, err := live.StartCluster(tr, live.ClusterConfig{
		N:           n,
		Schema:      record.DefaultSchema(2),
		MaxChildren: fanOut,
		JoinVia:     func(i int) int { return parents[i] },
		Tick:        time.Minute, // structure only; keep the loops quiet
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	for i := 1; i < n; i++ {
		want := fmt.Sprintf("srv%03d", parents[i])
		if got := cl.Servers[i].ParentID(); got != want {
			t.Fatalf("server %d attached under %q, placement says %q", i, got, want)
		}
	}
}

// TestLoadgenSmoke is the tier-1 scale exercise: a ~200-server hierarchy
// driven with a few hundred traced queries while both churn modes run.
// It asserts the harness completes and the measurements are sane, not
// specific numbers — the run is timing-dependent by design.
func TestLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke test skipped in -short mode")
	}
	m := RegisterMetrics(obs.NewRegistry())
	res, err := Run(Config{
		Servers:         200,
		FanOut:          4,
		MinDepth:        5,
		OwnerEvery:      4,
		RecordsPerOwner: 20,
		SummaryBuckets:  32,
		Queries:         200,
		Clients:         4,
		// The 200 queries alone finish before the first churn event; a
		// second of driving sees six record events and a kill and revive.
		MinDrive:        time.Second,
		Tick:            50 * time.Millisecond,
		ConvergeTimeout: 2 * time.Minute,
		Seed:            7,
		Churn: Churn{
			RecordEvery: 150 * time.Millisecond,
			KillEvery:   500 * time.Millisecond,
			ReviveAfter: 400 * time.Millisecond,
		},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries < 200 {
		t.Fatalf("queries = %d, want at least the 200 asked for", res.Queries)
	}
	if res.Depth < 5 {
		t.Fatalf("depth = %d, want >= 5", res.Depth)
	}
	if res.Records != 50*20 {
		t.Fatalf("records = %d, want 1000", res.Records)
	}
	if res.Failures > res.Queries/2 {
		t.Fatalf("too many failures under churn: %d of %d", res.Failures, res.Queries)
	}
	ok := res.Queries - res.Failures
	if ok > 0 {
		if res.LatencyP50 <= 0 || res.LatencyP99 < res.LatencyP50 {
			t.Fatalf("implausible latency percentiles: p50=%v p99=%v", res.LatencyP50, res.LatencyP99)
		}
		if res.CoverageMean <= 0 || res.CoverageMean > 1.0001 {
			t.Fatalf("coverage mean out of range: %g", res.CoverageMean)
		}
	}
	if res.BytesPerNodePerSec <= 0 {
		t.Fatalf("bytes/node/s must be positive, got %g", res.BytesPerNodePerSec)
	}
	if res.FPDescentRate < 0 || res.FPDescentRate > 1 {
		t.Fatalf("fp descent rate out of range: %g", res.FPDescentRate)
	}
	if res.RecordChurnEvents == 0 {
		t.Fatal("record churn never fired during the drive phase")
	}
	// The registry must have seen the run.
	if got := m.Queries.Load(); got != uint64(res.Queries) {
		t.Fatalf("metrics registry counted %d queries, want %d", got, res.Queries)
	}
	if m.Kills.Load() != uint64(res.Kills) || m.RecordChurn.Load() != uint64(res.RecordChurnEvents) {
		t.Fatalf("metrics/result churn mismatch: kills %d/%d, record events %d/%d",
			m.Kills.Load(), res.Kills, m.RecordChurn.Load(), res.RecordChurnEvents)
	}
}

// TestLoadgenWriteChurn is the write-heavy scale exercise: a 300-server
// hierarchy whose owners sustain add/remove record churn throughout the
// drive while queries resolve against it. It asserts the sharded-store
// economics surface in the harness report — write events land, refresh
// ticks are counted with a sane skip rate, and owner stores answer the
// resulting summary exports by merging shard partials rather than full
// rebuilds.
func TestLoadgenWriteChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("scale write-churn test skipped in -short mode")
	}
	m := RegisterMetrics(obs.NewRegistry())
	res, err := Run(Config{
		Servers:         300,
		FanOut:          4,
		MinDepth:        5,
		OwnerEvery:      4,
		RecordsPerOwner: 40,
		SummaryBuckets:  32,
		Queries:         writeQueries,
		Clients:         4,
		MinDrive:        writeMinDrive,
		Tick:            50 * time.Millisecond,
		ConvergeTimeout: 2 * time.Minute,
		Seed:            23,
		Churn: Churn{
			WriteEvery:    100 * time.Millisecond,
			WriteOwners:   2,
			WriteFraction: 0.1,
		},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteChurnEvents == 0 {
		t.Fatal("write churn never fired during the drive phase")
	}
	if res.RecordsWritten == 0 {
		t.Fatal("write churn fired but moved no records")
	}
	// Every write event removes k records and adds k fresh ones, so the
	// federation total is invariant under write churn.
	if res.Records != 75*40 {
		t.Fatalf("records = %d, want 3000", res.Records)
	}
	if res.RefreshTicks == 0 {
		t.Fatal("no refresh ticks observed across the federation")
	}
	if res.RefreshSkipRate < 0 || res.RefreshSkipRate > 1 {
		t.Fatalf("refresh skip rate out of range: %g", res.RefreshSkipRate)
	}
	// Most of the 300 servers host no owner and see no branch changes
	// between writes, so some ticks must have reused cached summaries.
	if res.RefreshSkipped == 0 {
		t.Fatal("no refresh tick skipped a rebuild; change-driven refresh looks broken")
	}
	if res.RefreshBusySeconds <= 0 {
		t.Fatalf("refresh busy seconds must be positive, got %g", res.RefreshBusySeconds)
	}
	// Owner exports under churn merge shard partials instead of rebuilding
	// from records; the merge counter proves the incremental path ran.
	if res.OwnerPartialMerges == 0 {
		t.Fatal("owner stores never merged shard partials; exports fell back to full rebuilds")
	}
	if got := m.WriteChurn.Load(); got != uint64(res.WriteChurnEvents) {
		t.Fatalf("metrics/result write-churn mismatch: %d/%d", got, res.WriteChurnEvents)
	}
	t.Logf("write events=%d records moved=%d shard rebuilds=%d partial merges=%d skip rate=%.4f busy=%.2fs",
		res.WriteChurnEvents, res.RecordsWritten, res.OwnerShardRebuilds,
		res.OwnerPartialMerges, res.RefreshSkipRate, res.RefreshBusySeconds)
}

// TestLoadgenPartitionChurn is the membership-protocol acceptance run: a
// 200-server hierarchy repeatedly loses a ~30% subtree to a full network
// partition mid-drive and heals it. The severed side elects its own root
// under a bumped membership epoch; the split-brain merge protocol must
// fold the trees back after each heal, ending at exactly one root with
// full coverage and zero epoch regressions (the fencing invariant).
func TestLoadgenPartitionChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("scale partition test skipped in -short mode")
	}
	m := RegisterMetrics(obs.NewRegistry())
	res, err := Run(Config{
		Servers:         200,
		FanOut:          4,
		MinDepth:        5,
		OwnerEvery:      4,
		RecordsPerOwner: 20,
		SummaryBuckets:  32,
		Queries:         partitionQueries,
		Clients:         4,
		QueryTimeout:    time.Second,
		MinDrive:        partitionMinDrive,
		Tick:            partitionTick,
		ConvergeTimeout: 2 * time.Minute,
		Seed:            11,
		Churn: Churn{
			PartitionEvery:    800 * time.Millisecond,
			PartitionFraction: 0.3,
			HealAfter:         4 * time.Second,
		},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions < 2 {
		t.Fatalf("only %d partitions injected; the drive must cover at least two", res.Partitions)
	}
	if res.PartitionsHealed != res.Partitions {
		t.Fatalf("healed %d of %d partitions", res.PartitionsHealed, res.Partitions)
	}
	if res.FinalRoots != 1 {
		t.Fatalf("federation ended with %d roots, want exactly 1", res.FinalRoots)
	}
	if res.FinalCoverage < 0.999 {
		t.Fatalf("post-heal coverage %.4f, want >= 0.999", res.FinalCoverage)
	}
	if res.EpochRegressions != 0 {
		t.Fatalf("epoch fencing invariant violated: %d regressions", res.EpochRegressions)
	}
	if got := m.Partitions.Load(); got != uint64(res.Partitions) {
		t.Fatalf("metrics/result partition mismatch: %d/%d", got, res.Partitions)
	}
	t.Logf("partitions=%d split-brain=%.2fs heal=%.2fs merges=%d",
		res.Partitions, res.SplitBrainSeconds, res.HealSeconds, res.MembershipMerges)
}

// TestLoadgenHotTenantCacheMode exercises the PR 9 overload mode end to
// end at small scale: caching clients replay a repeat-heavy workload at
// high priority while a low-priority hot tenant hammers a tiny query set
// through rate-limited servers. The run must surface client cache hits,
// shed the hot tenant to coarse answers rather than errors, and keep the
// high-priority traffic fully answered.
func TestLoadgenHotTenantCacheMode(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke test skipped in -short mode")
	}
	m := RegisterMetrics(obs.NewRegistry())
	res, err := Run(Config{
		Servers:         60,
		FanOut:          4,
		OwnerEvery:      3,
		RecordsPerOwner: 20,
		SummaryBuckets:  32,
		Queries:         150,
		Clients:         3,
		Tick:            50 * time.Millisecond,
		ConvergeTimeout: 2 * time.Minute,
		Seed:            11,
		RepeatFraction:  0.6,
		ClientCache:     true,
		ClientPriority:  2, // wire.PriorityHigh
		Untraced:        true,
		HotClients:      3,
		AdmissionRate:   2,
		AdmissionBurst:  4,
		Metrics:         m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures > 0 {
		t.Fatalf("%d high-priority queries failed; admission must never error protected traffic", res.Failures)
	}
	if res.CoarseAnswers != 0 {
		t.Fatalf("%d high-priority queries were shed to coarse answers", res.CoarseAnswers)
	}
	if res.ClientCacheHits == 0 {
		t.Fatal("repeat-heavy workload with caching clients produced no client cache hits")
	}
	if res.HotQueries == 0 {
		t.Fatal("hot tenant never issued a query")
	}
	if res.HotCoarse == 0 {
		t.Fatal("rate-limited hot tenant was never shed to a coarse answer")
	}
	if res.HotFailures > 0 {
		t.Fatalf("hot tenant saw %d errors; overload must shed to coarse answers, not errors", res.HotFailures)
	}
	if res.AdmissionShed == 0 {
		t.Fatal("servers recorded no admission sheds despite hot-tenant overload")
	}
	if got := m.HotQueries.Load(); got != uint64(res.HotQueries) {
		t.Fatalf("metrics/result hot-query mismatch: %d/%d", got, res.HotQueries)
	}
	t.Logf("client-hits=%d hot=%d coarse=%d shed=%d p99=%v hot-p99=%v",
		res.ClientCacheHits, res.HotQueries,
		res.HotCoarse, res.AdmissionShed, res.LatencyP99, res.HotLatencyP99)
}
