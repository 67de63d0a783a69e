package live

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/transport"
)

// quietTick is a tick long enough that the maintenance loops never
// fire during a structure-only test.
const quietTick = time.Minute

// TestJoinDeeperThanLegacyHopCap is the regression test for the
// hard-coded 256-hop join cap: in a 280-deep chain (MaxChildren=1,
// explicit chain placement) a fresh server seeded at the root must
// descend through every chained server before finding capacity at the
// bottom — 280 hops, which the old fixed cap rejected with "no server
// accepted the join".
func TestJoinDeeperThanLegacyHopCap(t *testing.T) {
	const n = 280 // > the legacy 256-hop cap
	tr := transport.NewChan()
	cl, err := StartCluster(tr, ClusterConfig{
		N:           n,
		Schema:      record.DefaultSchema(2),
		MaxChildren: 1,
		JoinVia:     func(i int) int { return i - 1 }, // exact chain
		Tick:        quietTick,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	// First prove the topology genuinely needs more than the legacy cap:
	// a joiner pinned to exactly 256 hops (the old hard-coded limit) must
	// run out of budget mid-descent.
	lcfg := DefaultConfig("legacy-joiner", "legacy-joiner", cl.Schema)
	lcfg.MaxChildren = 1
	lcfg.AggregateEvery = quietTick
	lcfg.JoinMaxHops = 256
	legacy, err := NewServer(lcfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := legacy.Start(); err != nil {
		t.Fatal(err)
	}
	defer legacy.Stop()
	if err := legacy.Join(cl.Servers[0].Addr()); !errors.Is(err, ErrJoinHopsExhausted) {
		t.Fatalf("a 256-hop budget must exhaust in a %d-deep chain, got: %v", n, err)
	}

	scfg := DefaultConfig("deep-joiner", "deep-joiner", cl.Schema)
	scfg.MaxChildren = 1
	scfg.AggregateEvery = quietTick
	srv, err := NewServer(scfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if err := srv.Join(cl.Servers[0].Addr()); err != nil {
		t.Fatalf("join through a %d-deep chain must succeed, got: %v", n, err)
	}
	if got, want := srv.ParentID(), fmt.Sprintf("srv%03d", n-1); got != want {
		t.Fatalf("joiner attached under %q, want the chain tail %q", got, want)
	}
}

// TestJoinExplicitHopCapExhaustion pins the distinct error for a
// too-small explicit budget: the descent runs out of hops with servers
// still queued, which is ErrJoinHopsExhausted — not ErrJoinRefused.
func TestJoinExplicitHopCapExhaustion(t *testing.T) {
	const n = 12
	tr := transport.NewChan()
	cl, err := StartCluster(tr, ClusterConfig{
		N:           n,
		Schema:      record.DefaultSchema(2),
		MaxChildren: 1,
		JoinVia:     func(i int) int { return i - 1 },
		Tick:        quietTick,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	scfg := DefaultConfig("capped-joiner", "capped-joiner", cl.Schema)
	scfg.MaxChildren = 1
	scfg.AggregateEvery = quietTick
	scfg.JoinMaxHops = 4
	srv, err := NewServer(scfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	err = srv.Join(cl.Servers[0].Addr())
	if !errors.Is(err, ErrJoinHopsExhausted) {
		t.Fatalf("want ErrJoinHopsExhausted from a 4-hop budget in a %d-chain, got: %v", n, err)
	}
	if errors.Is(err, ErrJoinRefused) {
		t.Fatalf("hop exhaustion must not also read as refusal: %v", err)
	}
}

// TestJoinAllRefusedDistinctError pins the other side of the taxonomy: a
// descent whose frontier drains with every candidate refusing reports
// ErrJoinRefused. The root joining under its own descendant trips loop
// avoidance at every server it can reach.
func TestJoinAllRefusedDistinctError(t *testing.T) {
	tr := transport.NewChan()
	cl, err := StartCluster(tr, ClusterConfig{
		N:           3,
		Schema:      record.DefaultSchema(2),
		MaxChildren: 1,
		JoinVia:     func(i int) int { return i - 1 },
		Tick:        25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	// Wait until the tail knows the root is its ancestor (root paths ride
	// on report acks); before that the refusal wouldn't trigger.
	tail := cl.Servers[2]
	rootID := cl.Servers[0].ID()
	deadline := time.Now().Add(10 * time.Second)
	for {
		path := tail.RootPath()
		if len(path) > 0 && path[0] == rootID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tail never learned its root path: %v", path)
		}
		time.Sleep(10 * time.Millisecond)
	}

	err = cl.Servers[0].Join(tail.Addr())
	if !errors.Is(err, ErrJoinRefused) {
		t.Fatalf("want ErrJoinRefused when every candidate trips loop avoidance, got: %v", err)
	}
	if errors.Is(err, ErrJoinHopsExhausted) {
		t.Fatalf("refusal must not also read as hop exhaustion: %v", err)
	}
}

// TestWaitConvergedReportsOvershoot verifies overshoot is a distinct,
// fast-failing convergence verdict: when every server covers more than
// the target for longer than the replica TTL, WaitConverged must return
// an overshoot error with per-server detail well before the timeout
// (undershoot, by contrast, waits out the full timeout).
func TestWaitConvergedReportsOvershoot(t *testing.T) {
	tr := transport.NewChan()
	cl, err := StartCluster(tr, ClusterConfig{
		N:               3,
		Schema:          record.DefaultSchema(2),
		Tick:            25 * time.Millisecond,
		ReplicaTTLFloor: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	owner := policy.NewOwner("ov-owner", cl.Schema, nil)
	recs := make([]*record.Record, 10)
	for i := range recs {
		r := record.New(cl.Schema, fmt.Sprintf("r%d", i), "ov-owner")
		r.SetNum(0, float64(i)/10)
		recs[i] = r
	}
	owner.SetRecords(recs)
	if err := cl.AttachOwner(1, owner); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitConverged(10, 90*time.Second); err != nil {
		t.Fatal(err)
	}

	// Ask for fewer records than the federation holds: every server now
	// "overshoots" and can never heal, so the distinct verdict must come
	// back after the grace period, far inside the timeout.
	start := time.Now()
	err = cl.WaitConverged(5, 90*time.Second)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("overshoot must not report convergence")
	}
	if !strings.Contains(err.Error(), "overshot") {
		t.Fatalf("want a distinct overshoot verdict, got: %v", err)
	}
	if !strings.Contains(err.Error(), "+5") {
		t.Fatalf("overshoot error must carry per-server detail, got: %v", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("overshoot verdict took %v; must fail fast, not burn the timeout", elapsed)
	}

	// Undershoot stays a timeout-bounded wait with its own phrasing.
	err = cl.WaitConverged(99, 500*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("undershoot must time out as non-convergence, got: %v", err)
	}
	if !strings.Contains(err.Error(), "under:") {
		t.Fatalf("undershoot error must carry per-server detail, got: %v", err)
	}
}
