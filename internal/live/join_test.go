package live

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
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

// TestJoinCallsEachServerOnce: a descent ends because it calls every address
// at most once, however the replies point at each other. Twenty-four servers
// each refuse the join and name all the others as children; Join calls every
// one of them exactly once and then reports ErrJoinRefused.
func TestJoinCallsEachServerOnce(t *testing.T) {
	const n = 24
	tr := transport.NewChan()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("refuser%02d", i)
	}
	calls := make([]atomic.Int32, n)
	for i, addr := range addrs {
		var kids []wire.ChildInfo
		for _, other := range addrs {
			if other != addr {
				kids = append(kids, wire.ChildInfo{ID: other, Addr: other, Depth: 1})
			}
		}
		closer, err := tr.Listen(addr, func(msg *wire.Message) *wire.Message {
			if msg.Kind != wire.KindJoin {
				return wire.ErrorMessage(addr, fmt.Errorf("unexpected %v", msg.Kind))
			}
			calls[i].Add(1)
			return &wire.Message{Kind: wire.KindJoinReply, From: addr, Addr: addr,
				JoinReply: &wire.JoinReply{Children: kids}}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
	}
	srv, err := NewServer(DefaultConfig("joiner", "joiner", record.DefaultSchema(2)), tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Join(addrs[0]); !errors.Is(err, ErrJoinRefused) {
		t.Fatalf("want ErrJoinRefused once every server has refused, got: %v", err)
	}
	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Errorf("%s was called %d times, want exactly once", addrs[i], got)
		}
	}
}

// TestJoinAllRefusedDistinctError pins the other side of the taxonomy: a
// descent whose frontier drains with every candidate refusing reports
// ErrJoinRefused. The root joining under its own descendant trips loop
// avoidance at every server it can reach.
func TestJoinAllRefusedDistinctError(t *testing.T) {
	tr := transport.NewChan()
	cl, err := NewCluster(tr, ClusterConfig{
		N:           3,
		Schema:      record.DefaultSchema(2),
		MaxChildren: 1,
		JoinVia:     func(i int) int { return i - 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	// The tail must know the root is its ancestor (root paths ride on
	// report acks); before that the refusal wouldn't trigger.
	if err := cl.Settle(); err != nil {
		t.Fatal(err)
	}
	tail := cl.Servers[2]
	if path := tail.RootPath(); len(path) == 0 || path[0] != cl.Servers[0].ID() {
		t.Fatalf("tail never learned its root path: %v", path)
	}

	err = cl.Servers[0].Join(tail.Addr())
	if !errors.Is(err, ErrJoinRefused) {
		t.Fatalf("want ErrJoinRefused when every candidate trips loop avoidance, got: %v", err)
	}
}

// TestWaitConvergedReportsOvershoot verifies overshoot is a distinct,
// fast-failing convergence verdict: when every server covers more than
// the target for longer than stale replicas take to age out, WaitConverged must return
// an overshoot error with per-server detail well before the timeout
// (undershoot, by contrast, waits out the full timeout).
func TestWaitConvergedReportsOvershoot(t *testing.T) {
	tr := transport.NewChan()
	cl, err := StartCluster(tr, ClusterConfig{
		N:      3,
		Schema: record.DefaultSchema(2),
		Tick:   25 * time.Millisecond,
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
