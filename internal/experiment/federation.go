package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"roads/internal/coords"
	"roads/internal/live"
	"roads/internal/loadgen"
	"roads/internal/netsim"
	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
	"roads/internal/transport"
	"roads/internal/wire"
	"roads/internal/workload"
)

// processingDelay is the latency model's per-hop evaluation time.
const processingDelay = 2 * time.Millisecond

// kinds sizes the per-kind byte counters.
const kinds = int(wire.KindRootProbeReply) + 1

// meter wraps a federation's transport and counts the encoded bytes of
// every call by the request's message kind, request and reply together.
// Query calls are counted as an untraced resolve makes them: the trace
// fields the harness asks for are left out, and so are the records a reply
// returns — query overhead is forwarding, not retrieval. The record bytes
// are kept per server instead, for Fig. 11's transfer time.
type meter struct {
	transport.Transport
	bytes [kinds]atomic.Int64

	mu       sync.Mutex
	returned map[string]int // record bytes per server address since takeReturned
	// down are the servers whose query calls fail as a crashed server's
	// would, while their maintenance still runs (see churnRun).
	down map[string]bool
}

func newMeter(tr transport.Transport) *meter {
	return &meter{Transport: tr, returned: make(map[string]int)}
}

// Call implements transport.Transport.
func (m *meter) Call(addr string, req *wire.Message) (*wire.Message, error) {
	return m.CallContext(context.Background(), addr, req)
}

// CallContext implements transport.Transport.
func (m *meter) CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error) {
	counted := req
	switch {
	case req.Kind == wire.KindQuery && m.isDown(addr):
		return nil, fmt.Errorf("experiment: %s crashed", addr)
	case req.Kind == wire.KindQuery && req.Query != nil:
		q := *req.Query
		q.Trace, q.TraceID, q.Path = false, "", nil
		r := *req
		r.Query = &q
		counted = &r
	}
	m.bytes[req.Kind].Add(encodedSize(counted))
	rep, err := m.Transport.CallContext(ctx, addr, req)
	if err != nil {
		return rep, err
	}
	if rep.QueryRep == nil {
		m.bytes[req.Kind].Add(encodedSize(rep))
		return rep, nil
	}
	qr := *rep.QueryRep
	qr.Trace = nil
	r := *rep
	r.QueryRep = &qr
	full := encodedSize(&r)
	qr.Records = nil
	forwarding := encodedSize(&r)
	m.bytes[req.Kind].Add(forwarding)
	if full > forwarding {
		m.mu.Lock()
		m.returned[addr] += int(full - forwarding)
		m.mu.Unlock()
	}
	return rep, nil
}

// encodedSize is the length of msg on the wire.
func encodedSize(msg *wire.Message) int64 {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	buf, err := wire.AppendEncode((*bp)[:0], msg)
	if err != nil {
		return 0 // the transport fails the call on the same error
	}
	*bp = buf
	return int64(len(buf))
}

// maintenance is the bytes of the two maintenance exchanges so far: summary
// reports and replica batches, requests and acks.
func (m *meter) maintenance() int64 {
	return m.bytes[wire.KindSummaryReport].Load() + m.bytes[wire.KindReplicaBatch].Load()
}

// setDown makes every later query call to the addresses fail.
func (m *meter) setDown(addrs map[string]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down = addrs
}

func (m *meter) isDown(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down[addr]
}

// takeReturned returns the record bytes each server returned since the last
// call, and starts counting afresh.
func (m *meter) takeReturned() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.returned
	m.returned = make(map[string]int)
	return out
}

// federation is one data point's ROADS deployment: live servers on the
// in-process transport, placed as an exact tree and stepped, each with one
// summary-mode owner attached once the empty tree had settled.
type federation struct {
	cl     *live.Cluster
	m      *meter
	client *live.Client
	// sim is the wide-area model: host latencies and transfer time.
	sim *netsim.Sim
	// addrs are the server addresses by index, host the reverse: a server's
	// index is its host in the latency space and its workload node. A
	// server's address is also its ID.
	addrs []string
	host  map[string]int
	root  string
	depth int // servers on the longest root path
	// updateBytes are the maintenance bytes from owner attach until the
	// federation has settled; idleBytes those of one step at rest, a
	// periodic round on every server.
	updateBytes int64
	idleBytes   int64
}

// buildROADS builds a stepped federation over the workload and settles it:
// every server routes to every record, and a round on every server moves
// nothing any more. Its loops do not run: every run of a seed reads the
// same federation.
func buildROADS(w *workload.Workload, space *coords.Space, cfg pointConfig) (*federation, error) {
	parents, err := loadgen.Placement(cfg.nodes, cfg.degree, 0)
	if err != nil {
		return nil, err
	}
	m := newMeter(transport.NewChan())
	cl, err := live.NewCluster(m, live.ClusterConfig{
		N:           cfg.nodes,
		Schema:      w.Schema,
		Summary:     summary.Config{Buckets: cfg.buckets, Min: 0, Max: 1, Categorical: summary.UseValueSet},
		MaxChildren: cfg.degree,
		JoinVia:     func(i int) int { return parents[i] },
	})
	if err != nil {
		return nil, err
	}
	f := &federation{cl: cl, m: m, sim: netsim.New(space), host: make(map[string]int, cfg.nodes)}
	for i, srv := range cl.Servers {
		f.addrs = append(f.addrs, srv.Addr())
		f.host[srv.Addr()] = i
	}
	f.root = f.addrs[0]
	f.client = live.NewClient(m, "experiment")
	f.client.Trace = true
	f.client.Retries = -1 // a crashed server stays crashed
	if err := cl.Settle(); err != nil {
		f.stop()
		return nil, err
	}
	before := m.maintenance()
	for i := range cl.Servers {
		o := policy.NewOwner(fmt.Sprintf("owner%d", i), w.Schema, nil)
		o.SetRecords(w.PerNode[i])
		if err := cl.AttachOwner(i, o); err != nil {
			f.stop()
			return nil, err
		}
	}
	// A settled federation covers every record or never will: no wait.
	if err := cl.Settle(); err != nil {
		f.stop()
		return nil, err
	}
	if err := cl.WaitConverged(uint64(w.TotalRecords()), 0); err != nil {
		f.stop()
		return nil, err
	}
	f.updateBytes = m.maintenance() - before
	for _, srv := range cl.Servers {
		f.depth = max(f.depth, len(srv.RootPath()))
	}
	before = m.maintenance()
	cl.Step()
	f.idleBytes = m.maintenance() - before
	return f, nil
}

// stop crashes every server — no Leave round, nothing is left to measure —
// and collects the federation, so the next point's build does not stack its
// summaries on this one's.
func (f *federation) stop() {
	for _, srv := range f.cl.Servers {
		srv.Kill()
	}
	f.cl.Servers = nil
	runtime.GC()
}

// resolution is one traced resolve read through the latency model.
type resolution struct {
	records []*record.Record
	hops    []live.HopTrace
	// latency is the model's query latency; bytes the query overhead.
	latency time.Duration
	bytes   int64
	// contacted counts the servers that answered; root whether the root was
	// one of them.
	contacted int
	root      bool
}

// resolve runs q from entry with the client at host client and applies the
// latency model to the redirect tree the resolve followed: the entry is
// reached at lat(client, entry) — zero when the client sits at the entry —
// and a server named in a reply at
//
//	arrival(via) + processingDelay + lat(via, client) + lat(client, server).
//
// The query's latency is the latest arrival.
func (f *federation) resolve(q *query.Query, entry string, client int) (resolution, error) {
	before := f.m.bytes[wire.KindQuery].Load()
	recs, st, err := f.client.Resolve(entry, q)
	if err != nil {
		return resolution{}, err
	}
	res := resolution{records: recs, hops: st.Hops, contacted: st.Contacted,
		bytes: f.m.bytes[wire.KindQuery].Load() - before}
	arrival := make(map[string]time.Duration, len(st.Hops))
	for _, h := range st.Hops {
		at := f.sim.LatencyBetween(client, f.host[h.Addr])
		if h.Via != "" {
			at += arrival[h.Via] + processingDelay + f.sim.LatencyBetween(f.host[h.Via], client)
		}
		arrival[h.Addr] = at
		res.latency = max(res.latency, at)
		if h.Addr == f.root && h.Err == "" {
			res.root = true
		}
	}
	return res, nil
}
