package live

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
	"roads/internal/workload"
)

// benchStar builds a root with `children` direct children over the
// in-process transport, each child holding records, and reports every
// child branch up so the root's replica pushes carry real summaries.
// Background loops are parked; the benchmark drives pushReplicas itself.
func benchStar(b *testing.B, children, recsPer int) (*Server, *transport.Chan) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	w := workload.MustGenerate(workload.Config{Nodes: children + 1, RecordsPerNode: recsPer, AttrsPerDist: 2}, rng)
	tr := transport.NewChan()
	mk := func(i int) *Server {
		cfg := DefaultConfig(fmt.Sprintf("n%02d", i), fmt.Sprintf("addr%02d", i), w.Schema)
		cfg.MaxChildren = children
		cfg.AggregateEvery = time.Hour
		cfg.HeartbeatEvery = time.Hour
		srv, err := NewServer(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Stop)
		o := policy.NewOwner(fmt.Sprintf("owner%d", i), w.Schema, nil)
		o.SetRecords(w.PerNode[i])
		if err := srv.AttachOwner(o); err != nil {
			b.Fatal(err)
		}
		return srv
	}
	root := mk(0)
	for i := 1; i <= children; i++ {
		c := mk(i)
		if err := c.Join(root.Addr()); err != nil {
			b.Fatal(err)
		}
		c.refreshSummaries()
		c.reportToParent()
	}
	root.refreshSummaries()
	if got := root.NumChildren(); got != children {
		b.Fatalf("root has %d children; want %d (star shape required)", got, children)
	}
	return root, tr
}

// BenchmarkPushReplicas measures one replica-propagation round from a
// root to 16 children in the versioned steady state: one KindReplicaBatch
// per child, entries version-only wherever the child acked the current
// version. rpcs/op and wirebytes/op come from the transport's own counters.
// The sub-benchmark keeps the name BENCH_pr14 archives it under, but
// those runs pinned it to the full-push pipeline that no longer exists, so
// the archived numbers stop being comparable here (see EXPERIMENTS.md).
func BenchmarkPushReplicas(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		root, tr := benchStar(b, 16, 8)
		root.pushReplicas() // warm up: children take and ack the full state once
		start := tr.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root.pushReplicas()
		}
		b.StopTimer()
		st := tr.Stats()
		b.ReportMetric(float64(st.Calls-start.Calls)/float64(b.N), "rpcs/op")
		b.ReportMetric(float64(st.BytesSent-start.BytesSent+st.BytesRecv-start.BytesRecv)/float64(b.N), "wirebytes/op")
	})
}

// BenchmarkHandleQuery measures the query hot path on a root holding 16
// child branches and 8 overlay replicas — every query matches all of
// them, so the handler does the full local-search + redirect-matching
// walk against the lock-free routing snapshot; parallel runs a querier per
// core. The sub-benchmarks keep the names BENCH_pr3–pr8 archive them
// under; the mutex baseline arm ended with the locking query path (see
// EXPERIMENTS.md).
func BenchmarkHandleQuery(b *testing.B) {
	b.Run("snapshot", func(b *testing.B) {
		root, _ := benchStar(b, 16, 8)
		// Give the root the replica load a mid-hierarchy server carries:
		// 8 sibling branches pushed from a pretend parent.
		pushes := make([]*wire.ReplicaPush, 8)
		for i := range pushes {
			pushes[i] = &wire.ReplicaPush{
				OriginID:   fmt.Sprintf("sib%d", i),
				OriginAddr: fmt.Sprintf("addr-sib%d", i),
				Branch:     wire.FromSummary(root.snap.Load().localSummary),
				Level:      1,
			}
		}
		batch := &wire.Message{Kind: wire.KindReplicaBatch, From: "P", Addr: "addr-P",
			Batch: &wire.ReplicaBatch{Pushes: pushes}}
		if err := wire.RemoteError(root.handle(batch)); err != nil {
			b.Fatal(err)
		}
		q := query.New("bench-q", query.NewRange("a0", 0, 1))
		msg := &wire.Message{Kind: wire.KindQuery, From: "t", Query: wire.FromQuery(q, true)}
		rep := root.handle(msg)
		if err := wire.RemoteError(rep); err != nil {
			b.Fatal(err)
		}
		if got := len(rep.QueryRep.Redirects); got != 16+8 {
			b.Fatalf("warmup query produced %d redirects, want 24", got)
		}
		b.Run("serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root.handle(msg)
			}
		})
		b.Run("parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					root.handle(msg)
				}
			})
		})
	})
}

// benchMidTier builds the three-level chain P ← M ← c1..c8 with parked
// loops, every server holding recsPer records, and drives enough warmup
// rounds that version acknowledgement has fully converged: M
// suppresses its reports to P and ships version-only entries to the
// children. Returns M (the server whose tick the benchmark measures), M's
// owner and record set (for churn injection), and the transport.
func benchMidTier(b *testing.B, recsPer int) (*Server, *policy.Owner, []*record.Record, *transport.Chan) {
	b.Helper()
	const children = 8
	rng := rand.New(rand.NewSource(41))
	w := workload.MustGenerate(workload.Config{Nodes: children + 2, RecordsPerNode: recsPer, AttrsPerDist: 2}, rng)
	tr := transport.NewChan()
	mk := func(i int) (*Server, *policy.Owner) {
		cfg := DefaultConfig(fmt.Sprintf("n%02d", i), fmt.Sprintf("addr%02d", i), w.Schema)
		cfg.MaxChildren = children
		cfg.AggregateEvery = time.Hour
		cfg.HeartbeatEvery = time.Hour
		// A longer-than-default anti-entropy cadence so the steady-state
		// numbers are dominated by delta rounds; the periodic full round is
		// still included in the measurement (1 tick in 64).
		cfg.AntiEntropyEvery = 64
		srv, err := NewServer(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Stop)
		o := policy.NewOwner(fmt.Sprintf("owner%d", i), w.Schema, nil)
		o.SetRecords(w.PerNode[i])
		if err := srv.AttachOwner(o); err != nil {
			b.Fatal(err)
		}
		return srv, o
	}
	parent, _ := mk(0)
	mid, own := mk(1)
	if err := mid.Join(parent.Addr()); err != nil {
		b.Fatal(err)
	}
	all := []*Server{mid, parent}
	for i := 2; i < children+2; i++ {
		c, _ := mk(i)
		if err := c.Join(mid.Addr()); err != nil {
			b.Fatal(err)
		}
		all = append([]*Server{c}, all...)
	}
	for round := 0; round < 6; round++ {
		driveRound(all...)
	}
	if got := mid.NumChildren(); got != children {
		b.Fatalf("mid-tier server has %d children; want %d", got, children)
	}
	if mid.mx.reportsSuppressed.Load() == 0 {
		b.Fatal("warmup never reached steady-state suppression")
	}
	return mid, own, w.PerNode[1], tr
}

// BenchmarkAggregationTick measures one full aggregation tick (refresh,
// report, push, both prunes) on a mid-tier server with a parent and 8
// children, across churn rates: churn0 mutates nothing between ticks (the
// steady state the change-driven pipeline targets), churn1 rewrites 1% of
// the server's own records before every tick, churn100 rewrites all of
// them. The 1-in-64 anti-entropy full rounds are included. rpcs/op and
// wirebytes/op come from the transport's own counters. The sub-benchmarks
// keep the names BENCH_pr5–pr8 archive them under; the full-rebuild
// baseline arm ended with that pipeline (see EXPERIMENTS.md).
func BenchmarkAggregationTick(b *testing.B) {
	for _, churn := range []struct {
		name string
		frac float64
	}{
		{"churn0", 0},
		{"churn1", 0.01},
		{"churn100", 1},
	} {
		b.Run("delta/"+churn.name, func(b *testing.B) {
			mid, own, recs, tr := benchMidTier(b, 100)
			rng := rand.New(rand.NewSource(7))
			start := tr.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if churn.frac > 0 {
					b.StopTimer()
					k := int(churn.frac * float64(len(recs)))
					if k < 1 {
						k = 1
					}
					for j := 0; j < k; j++ {
						recs[rng.Intn(len(recs))].SetNum(0, rng.Float64())
					}
					own.SetRecords(recs)
					b.StartTimer()
				}
				mid.refreshSummaries()
				mid.reportToParent()
				mid.pushReplicas()
				mid.pruneDeadChildren()
				mid.pruneStaleReplicas()
			}
			b.StopTimer()
			st := tr.Stats()
			b.ReportMetric(float64(st.Calls-start.Calls)/float64(b.N), "rpcs/op")
			b.ReportMetric(float64(st.BytesSent-start.BytesSent+st.BytesRecv-start.BytesRecv)/float64(b.N), "wirebytes/op")
		})
	}
}

// benchKey keeps BenchmarkCacheKey's result alive.
var benchKey string

// BenchmarkCacheKey builds the result-cache key of the canonical broad
// query shape (three range predicates, given out of canonical order), which
// every cacheable query pays once per contacted server.
func BenchmarkCacheKey(b *testing.B) {
	preds := []query.Predicate{
		query.NewRange("a7", 0.25012, 0.50012),
		query.NewRange("a2", 0.1, 0.9),
		query.NewRange("a11", 0.33, 0.66),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchKey = cacheKey("bench-client-0", -1, i%2 == 0, preds)
	}
}
