package live

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
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
		srv, err := NewServer(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.listen(); err != nil {
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

// BenchmarkPushReplicas measures one replica-propagation round from a root
// to 16 children. In batched, the steady state, no child's set moved, so the
// round folds the set, finds every child's digest unchanged and sends nothing
// (the digest rides on the children's report acks). The sub-benchmark keeps
// the name its archived runs used, but those pinned it to the full-push
// pipeline that no longer exists, so the archived numbers are not comparable
// with it (EXPERIMENTS.md, "Archived baselines"). In moved, the root's local
// summary changes before every round (outside the timer), so every child
// takes a batch, over a Chan whose calls take pushRTT: the round's wall time
// is about one round trip, the children being called at once, where calling
// them one after another would take sixteen. rpcs/op and wirebytes/op come
// from the transport's own counters.
func BenchmarkPushReplicas(b *testing.B) {
	report := func(b *testing.B, tr *transport.Chan, start transport.Stats) {
		st := tr.Stats()
		b.ReportMetric(float64(st.Calls-start.Calls)/float64(b.N), "rpcs/op")
		b.ReportMetric(float64(st.BytesSent-start.BytesSent+st.BytesRecv-start.BytesRecv)/float64(b.N), "wirebytes/op")
	}
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
		report(b, tr, start)
	})
	b.Run("moved", func(b *testing.B) {
		const pushRTT = time.Millisecond
		root, tr := benchStar(b, 16, 8)
		root.pushReplicas()
		// No call is in flight, and every later one starts after this write.
		tr.Latency = func(string, string) time.Duration { return pushRTT / 2 }
		o := ownerOf(root)
		moved := o.Records()[0].Clone()
		moved.ID = "moved"
		start := tr.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if i%2 == 0 {
				o.AddRecords(moved)
			} else {
				o.RemoveRecords(moved.ID)
			}
			root.refreshSummaries()
			b.StartTimer()
			root.pushReplicas()
		}
		b.StopTimer()
		report(b, tr, start)
		b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(pushRTT), "rtts/op")
	})
}

// BenchmarkHandleQuery measures the query hot path on a root holding 16
// child branches and 8 overlay replicas — every query matches all of
// them, so the handler does the full local-search + redirect-matching
// walk against the lock-free routing snapshot; parallel runs a querier per
// core. The sub-benchmarks keep the names their archived runs used; the
// mutex baseline arm ended with the locking query path (EXPERIMENTS.md,
// "Archived baselines").
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
				Summary:    wire.FromSummary(root.snap.Load().localSummary),
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
// rounds that acknowledgement has fully converged: M suppresses its
// reports to P and sends its children no batch. Returns M (the server whose
// tick the benchmark measures), M's owner and record set (for churn
// injection), the others (children first, then P: the order to step them
// in), and the transport.
func benchMidTier(b *testing.B, recsPer int) (*Server, *policy.Owner, []*record.Record, []*Server, *transport.Chan) {
	b.Helper()
	const children = 8
	rng := rand.New(rand.NewSource(41))
	w := workload.MustGenerate(workload.Config{Nodes: children + 2, RecordsPerNode: recsPer, AttrsPerDist: 2}, rng)
	tr := transport.NewChan()
	mk := func(i int) (*Server, *policy.Owner) {
		cfg := DefaultConfig(fmt.Sprintf("n%02d", i), fmt.Sprintf("addr%02d", i), w.Schema)
		cfg.MaxChildren = children
		cfg.AggregateEvery = time.Hour
		srv, err := NewServer(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.listen(); err != nil {
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
	others := []*Server{parent}
	for i := 2; i < children+2; i++ {
		c, _ := mk(i)
		if err := c.Join(mid.Addr()); err != nil {
			b.Fatal(err)
		}
		others = append([]*Server{c}, others...)
	}
	for round := 0; round < 6; round++ {
		driveRound(others[:children]...)
		driveRound(mid, parent)
	}
	if got := mid.NumChildren(); got != children {
		b.Fatalf("mid-tier server has %d children; want %d", got, children)
	}
	if mid.mx.reportsSuppressed.Load() == 0 {
		b.Fatal("warmup never reached steady-state suppression")
	}
	return mid, own, w.PerNode[1], others, tr
}

// BenchmarkAggregationTick measures one periodic round (refresh, report,
// push, both prunes) on a mid-tier server with a parent and 8
// children, across churn rates: churn0 mutates nothing between ticks (the
// steady state the change-driven pipeline targets), churn1 rewrites 1% of
// the server's own records before every tick, churn100 rewrites all of
// them. The children report before every tick and the parent runs its round
// after it, both outside the timer, so the server keeps its 8 children (the
// benchmark fails when it does not). rpcs/op and wirebytes/op count the
// measured server's own calls. The sub-benchmarks keep the names their
// archived runs used; the full-rebuild baseline arm ended with that pipeline
// (EXPERIMENTS.md, "Archived baselines").
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
			mid, own, recs, others, tr := benchMidTier(b, 100)
			children, parent := others[:len(others)-1], others[len(others)-1]
			rng := rand.New(rand.NewSource(7))
			var calls, bytes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if churn.frac > 0 {
					k := int(churn.frac * float64(len(recs)))
					if k < 1 {
						k = 1
					}
					for j := 0; j < k; j++ {
						recs[rng.Intn(len(recs))].SetNum(0, rng.Float64())
					}
					own.SetRecords(recs)
				}
				driveRound(children...)
				st0 := tr.Stats()
				b.StartTimer()
				mid.round(false)
				b.StopTimer()
				st := tr.Stats()
				calls += st.Calls - st0.Calls
				bytes += st.BytesSent - st0.BytesSent + st.BytesRecv - st0.BytesRecv
				parent.round(false)
				b.StartTimer()
			}
			b.StopTimer()
			if got := mid.NumChildren(); got != len(children) {
				b.Fatalf("the measured server ended with %d children; want %d", got, len(children))
			}
			b.ReportMetric(float64(calls)/float64(b.N), "rpcs/op")
			b.ReportMetric(float64(bytes)/float64(b.N), "wirebytes/op")
		})
	}
}

// benchKey keeps BenchmarkCacheKey's result alive.
var benchKey string

// BenchmarkCacheKey builds the client cache key of the canonical broad
// query shape (three range predicates, given out of canonical order), which
// a caching client pays once per resolve.
func BenchmarkCacheKey(b *testing.B) {
	preds := []query.Predicate{
		query.NewRange("a7", 0.25012, 0.50012),
		query.NewRange("a2", 0.1, 0.9),
		query.NewRange("a11", 0.33, 0.66),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf [256]byte
		benchKey = string(appendCacheKey(buf[:0], "bench-client-0", -1, preds))
	}
}

// kindSizer sizes every message that crosses it, request and reply, as the
// TCP transport frames it (payload plus the 16-byte header), keyed by what
// the message is — so a window's maintenance bytes can be split by kind.
type kindSizer struct {
	transport.Transport
	mu    sync.Mutex
	on    bool
	count map[string]int
	bytes map[string]int
}

// maintKind names a maintenance message by kind and form; "" for the rest.
func maintKind(m *wire.Message, reply bool) string {
	switch {
	case m.Batch != nil:
		for _, p := range m.Batch.Pushes {
			if p != nil && p.Summary != nil {
				return "batch, list with full entries"
			}
		}
		return "batch, list of tags"
	case m.Report != nil && m.Report.Summary != nil:
		return "report, full"
	case m.Report != nil:
		return "report, version-only"
	case m.Kind == wire.KindAck && reply:
		return "ack"
	}
	return ""
}

func (k *kindSizer) note(m *wire.Message, reply bool) {
	name := maintKind(m, reply)
	if name == "" {
		return
	}
	data, err := wire.Encode(m)
	if err != nil {
		return
	}
	k.mu.Lock()
	if k.on {
		k.count[name]++
		k.bytes[name] += len(data) + 16
	}
	k.mu.Unlock()
}

func (k *kindSizer) Call(addr string, req *wire.Message) (*wire.Message, error) {
	k.note(req, false)
	rep, err := k.Transport.Call(addr, req)
	if err == nil {
		k.note(rep, true)
	}
	return rep, err
}

// BenchmarkMaintenanceBytesByKind prices maintenance in two arms. idle
// rebuilds the canonical benchmark's TCP federation (64 servers on loopback,
// fan-out 4, tick 100 ms, 50 records and 64-bucket summaries of 8 attributes
// per server), lets it converge, and sizes every maintenance message of a
// 3.2 s window in which nothing changes, by kind. Each metric is that kind's
// kB per node per second, counted at the sender and at the receiver like the
// benchmark's maint_kb_per_node_s; their sum is what that metric reports.
// EXPERIMENTS.md ("Maintenance bytes by message kind") archives the table.
// Ports 20000–20063 must be free. write adds one record at a leaf of the same
// federation, parked on Chan, and drives rounds until the write has settled:
// summaries/write counts the summaries put on the wire and bytes/write the
// encoded size of the reports and batches that carried them.
func BenchmarkMaintenanceBytesByKind(b *testing.B) {
	b.Run("idle", benchIdleMaintenance)
	b.Run("write", func(b *testing.B) {
		tr := &countingTransport{Chan: transport.NewChan()}
		cl, _ := parkedFederation(b, tr, nil)
		leaf := cl.Servers[len(cl.Servers)-1]
		tr.reset()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			writeAndSettle(b, cl, leaf, fmt.Sprintf("write-%d", i))
		}
		b.StopTimer()
		summaries, _, _ := tr.counts()
		b.ReportMetric(float64(summaries)/float64(b.N), "summaries/write")
		b.ReportMetric(float64(tr.summaryBytes)/float64(b.N), "bytes/write")
	})
}

func benchIdleMaintenance(b *testing.B) {
	const (
		servers = 64
		fanOut  = 4
		tick    = 100 * time.Millisecond
		window  = 3200 * time.Millisecond
	)
	w := workload.MustGenerate(workload.Config{Nodes: servers, RecordsPerNode: 50, AttrsPerDist: 2},
		rand.New(rand.NewSource(2008)))
	scfg := summary.DefaultConfig()
	scfg.Buckets = 64
	tcp := transport.NewTCP()
	defer tcp.Close()
	sizer := &kindSizer{Transport: tcp, count: map[string]int{}, bytes: map[string]int{}}
	cl, err := StartCluster(sizer, ClusterConfig{
		N: servers, Schema: w.Schema, Summary: scfg, MaxChildren: fanOut, Tick: tick,
		AddrFor: func(i int) string { return fmt.Sprintf("127.0.0.1:%d", 20000+i) },
		JoinVia: func(i int) int { return (i - 1) / fanOut },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	for i := 0; i < servers; i++ {
		o := policy.NewOwner(fmt.Sprintf("owner%d", i), w.Schema, nil)
		o.SetRecords(w.PerNode[i])
		if err := cl.AttachOwner(i, o); err != nil {
			b.Fatal(err)
		}
	}
	if err := cl.WaitConverged(uint64(w.TotalRecords()), time.Minute); err != nil {
		b.Fatal(err)
	}
	time.Sleep(2 * time.Second) // the canonical benchmark's warm-up

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sizer.mu.Lock()
		sizer.on = true
		sizer.mu.Unlock()
		time.Sleep(window)
		sizer.mu.Lock()
		sizer.on = false
		sizer.mu.Unlock()
	}
	b.StopTimer()

	perNodeSecond := func(bytes int) float64 {
		return 2 * float64(bytes) / 1000 / servers / (float64(b.N) * window.Seconds())
	}
	names := make([]string, 0, len(sizer.count))
	for name := range sizer.count {
		names = append(names, name)
	}
	sort.Strings(names)
	total := 0
	for _, name := range names {
		n, bytes := sizer.count[name], sizer.bytes[name]
		total += bytes
		b.Logf("%-32s %6d messages  mean %7.0f B  %7.3f kB/node/s", name, n/b.N, float64(bytes)/float64(n), perNodeSecond(bytes))
		b.ReportMetric(perNodeSecond(bytes), strings.NewReplacer(" ", "_", ",", "").Replace(name)+"_kB/node/s")
	}
	b.ReportMetric(perNodeSecond(total), "total_kB/node/s")
}

// contactTally sorts the non-start query contacts a client makes through it
// by what they returned: nothing at all (empty), or redirects but no
// records (relay).
type contactTally struct {
	transport.Transport
	empty, relay atomic.Int64
}

func (c *contactTally) CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error) {
	rep, err := c.Transport.CallContext(ctx, addr, req)
	if err == nil && req.Kind == wire.KindQuery && !req.Query.Start && rep.QueryRep != nil && len(rep.QueryRep.Records) == 0 {
		if len(rep.QueryRep.Redirects) == 0 {
			c.empty.Add(1)
		} else {
			c.relay.Add(1)
		}
	}
	return rep, err
}

// BenchmarkResolve measures one fresh broad resolve against the canonical
// benchmark's 64-server federation, built once per transport and at rest
// (parkedFederation), so an iteration is the client's fan-out, the contacts'
// round trips and the handlers, and nothing else. The background arms pass
// the context library callers and the benchmark pass, one that cannot be
// cancelled; the deadline arms pass one with a deadline far away, as
// roadsctl -deadline does, which on Chan still costs a goroutine and a
// channel per contact (the only way to abandon an in-process handler) and on
// TCP lets the context end the wait in place of the transport's timer. Of
// contacts/op, empty_contacts/op returned nothing and relay_contacts/op only
// redirects: the contacts a perfect router would spare. The tcp arms need
// ports 20100–20163.
func BenchmarkResolve(b *testing.B) {
	transports := []struct {
		name    string
		tr      func() transport.Transport
		addrFor func(int) string
	}{
		{"chan", func() transport.Transport { return transport.NewChan() }, nil},
		{"tcp", func() transport.Transport { return transport.NewTCP() },
			func(i int) string { return fmt.Sprintf("127.0.0.1:%d", 20100+i) }},
	}
	for _, tc := range transports {
		b.Run(tc.name, func(b *testing.B) {
			tr := tc.tr()
			if c, ok := tr.(interface{ Close() error }); ok {
				b.Cleanup(func() { _ = c.Close() }) // after the federation's Stop
			}
			cl, queries := parkedFederation(b, tr, tc.addrFor)
			tally := &contactTally{Transport: tr}
			client := NewClient(tally, "bench")
			next := 0
			for _, mode := range []string{"background", "deadline"} {
				b.Run(mode, func(b *testing.B) {
					contacts := 0
					tally.empty.Store(0)
					tally.relay.Store(0)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ctx, cancel := context.Background(), context.CancelFunc(func() {})
						if mode == "deadline" {
							ctx, cancel = context.WithTimeout(ctx, time.Minute)
						}
						_, stats, err := client.ResolveContext(ctx, cl.Servers[next%len(cl.Servers)].Addr(), queries[next%len(queries)])
						cancel()
						if err != nil || stats.Failed > 0 {
							b.Fatalf("resolve: %v, %+v", err, stats)
						}
						next++
						contacts += stats.Contacted
					}
					b.StopTimer()
					b.ReportMetric(float64(contacts)/float64(b.N), "contacts/op")
					b.ReportMetric(float64(tally.empty.Load())/float64(b.N), "empty_contacts/op")
					b.ReportMetric(float64(tally.relay.Load())/float64(b.N), "relay_contacts/op")
				})
			}
		})
	}
}

// freeLoopbackAddrs returns n loopback addresses whose ports were free a
// moment ago: it holds n listeners on port 0 at once, so no two coincide,
// and closes them before returning.
func freeLoopbackAddrs(tb testing.TB, n int) []string {
	tb.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// summaryTally counts the summaries the calls through it carry: a report's
// branch and every full replica entry.
type summaryTally struct {
	transport.Transport
	n atomic.Int64
}

func (st *summaryTally) Call(addr string, req *wire.Message) (*wire.Message, error) {
	if req.Report != nil && req.Report.Summary != nil {
		st.n.Add(1)
	}
	if req.Batch != nil {
		for _, p := range req.Batch.Pushes {
			if p.Summary != nil {
				st.n.Add(1)
			}
		}
	}
	return st.Transport.Call(addr, req)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkEarlyCascade prices one write's early cascade on the canonical
// benchmark's federation (parkedFederation: 64 servers, fan-out 4). An
// iteration adds a record at a random owner and removes it again; after each
// write it runs only the early rounds the write queued, children first, as
// Cluster.Step does (drainEarly), and checks that every server's
// CoveredRecords counts the write. Per write it reports the maintenance
// calls, the summaries they carried, the frame bytes of requests and
// replies, the early rounds and the process CPU time (rusage, user plus
// system). This is the cost the gap after an early round is a multiple of.
// The tcp arm listens on free loopback ports.
func BenchmarkEarlyCascade(b *testing.B) {
	type statser interface{ Stats() transport.Stats }
	arms := []struct {
		name string
		tr   func(b *testing.B) (transport.Transport, func(int) string)
		// bytes reads the frame bytes of requests and replies: Chan
		// counts a request sent and its reply received, TCP counts every
		// frame written, in both roles.
		bytes func(transport.Stats) uint64
	}{
		{"chan", func(*testing.B) (transport.Transport, func(int) string) { return transport.NewChan(), nil },
			func(st transport.Stats) uint64 { return st.BytesSent + st.BytesRecv }},
		{"tcp", func(b *testing.B) (transport.Transport, func(int) string) {
			tcp := transport.NewTCP()
			b.Cleanup(func() { _ = tcp.Close() }) // after the federation's Stop
			addrs := freeLoopbackAddrs(b, 64)
			return tcp, func(i int) string { return addrs[i] }
		}, func(st transport.Stats) uint64 { return st.BytesSent }},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			base, addrFor := arm.tr(b)
			tally := &summaryTally{Transport: base}
			cl, _ := parkedFederation(b, tally, addrFor)
			total := cl.Servers[0].BranchRecords()
			settled := func(want uint64) {
				cl.drainEarly()
				if under, over := cl.coverageLag(want); len(under)+len(over) > 0 {
					b.Fatalf("the early rounds left servers short of %d records; under: %s; over: %s",
						want, lagDetail(under), lagDetail(over))
				}
			}
			rounds := func() (n uint64) {
				for _, r := range earlyRounds(cl) {
					n += r
				}
				return n
			}
			rng := rand.New(rand.NewSource(34))
			tally.n.Store(0)
			st0, rounds0, cpu0 := base.(statser).Stats(), rounds(), cpuTime(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := ownerOf(cl.Servers[rng.Intn(len(cl.Servers))])
				r := o.Records()[0].Clone()
				r.ID = fmt.Sprintf("cascade-%d", i)
				o.AddRecords(r)
				settled(total + 1)
				o.RemoveRecords(r.ID)
				settled(total)
			}
			b.StopTimer()
			st, writes := base.(statser).Stats(), float64(2*b.N)
			b.ReportMetric(float64(st.Calls-st0.Calls)/writes, "calls/write")
			b.ReportMetric(float64(tally.n.Load())/writes, "summaries/write")
			b.ReportMetric(float64(arm.bytes(st)-arm.bytes(st0))/writes, "bytes/write")
			b.ReportMetric(float64(rounds()-rounds0)/writes, "early_rounds/write")
			b.ReportMetric(float64((cpuTime(b)-cpu0).Microseconds())/writes, "cpu_us/write")
		})
	}
}
