package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roads/internal/obs"
	"roads/internal/transport"
	"roads/internal/wire"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the probe's epoch. Root is the id of the Resolve that caused a call
// (0 for server-to-server maintenance calls and for handler spans, which
// the wire separates from their caller's context and are reconciled with
// call spans by kind, in aggregate).
type span struct {
	Start, End int64
	Root       uint32
	Kind       wire.Kind
	Handler    bool
	Err        bool
}

// captureKinds are the message kinds whose first captureMax encodings the
// probe keeps for the wire-layer timings, with the name each goes by in the
// wire.* metrics.
var captureKinds = map[wire.Kind]string{
	wire.KindQuery:        "query",
	wire.KindQueryReply:   "reply",
	wire.KindReplicaBatch: "batch",
}

const captureMax = 256

// probe is the benchmark-owned transport wrapper of the traced run. It
// records a span around every CallContext and around every handler
// registered through Listen, and forwards Stats/RegisterMetrics to the
// transport it wraps, the way transport.Faulty does. Spans stay in a
// preallocated array until the run ends.
type probe struct {
	inner transport.Transport
	epoch time.Time
	// on gates recording: the traced run alternates traced and untraced
	// slices so tracing overhead is measured inside one run.
	on atomic.Bool

	spans   []span
	next    atomic.Int64
	dropped atomic.Int64

	capMu    sync.Mutex
	captured map[wire.Kind][][]byte
}

func newProbe(inner transport.Transport, capacity int) *probe {
	return &probe{
		inner:    inner,
		epoch:    time.Now(),
		spans:    make([]span, capacity),
		captured: map[wire.Kind][][]byte{},
	}
}

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

func (p *probe) record(s span) {
	i := p.next.Add(1) - 1
	if int(i) >= len(p.spans) {
		p.dropped.Add(1)
		return
	}
	p.spans[i] = s
}

// recorded returns the spans written so far. Call after the run.
func (p *probe) recorded() []span {
	n := int(p.next.Load())
	if n > len(p.spans) {
		n = len(p.spans)
	}
	return p.spans[:n]
}

// capture keeps the encoded form of the first captureMax messages of each
// interesting kind. Encoding at capture time means the probe never holds a
// message the system might still be using.
func (p *probe) capture(m *wire.Message) {
	if m == nil || captureKinds[m.Kind] == "" {
		return
	}
	p.capMu.Lock()
	defer p.capMu.Unlock()
	if len(p.captured[m.Kind]) >= captureMax {
		return
	}
	data, err := wire.Encode(m)
	if err != nil {
		return // the transport reports the same error to the caller
	}
	p.captured[m.Kind] = append(p.captured[m.Kind], data)
}

type rootKey struct{}

// withRoot returns ctx carrying a Resolve's root span id; live.Client
// derives every per-contact context from it, which is what links a
// resolve's call spans to its root.
func withRoot(ctx context.Context, id uint32) context.Context {
	return context.WithValue(ctx, rootKey{}, id)
}

func rootOf(ctx context.Context) uint32 {
	id, _ := ctx.Value(rootKey{}).(uint32)
	return id
}

// Listen implements transport.Transport, timing the handler.
func (p *probe) Listen(addr string, h transport.Handler) (io.Closer, error) {
	return p.inner.Listen(addr, func(m *wire.Message) *wire.Message {
		if !p.on.Load() {
			return h(m)
		}
		kind := m.Kind
		start := p.now()
		rep := h(m)
		p.record(span{Start: start, End: p.now(), Kind: kind, Handler: true})
		return rep
	})
}

// Call implements transport.Transport.
func (p *probe) Call(addr string, req *wire.Message) (*wire.Message, error) {
	return p.CallContext(context.Background(), addr, req)
}

// CallContext implements transport.Transport, timing the call. A call is
// recorded when it belongs to a traced resolve (whatever the gate says by
// the time it runs, so a resolve's spans are all there or all absent) or
// when it is a maintenance call made while the gate is on.
func (p *probe) CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error) {
	root := rootOf(ctx)
	if root == 0 && !p.on.Load() {
		return p.inner.CallContext(ctx, addr, req)
	}
	kind := req.Kind
	p.capture(req)
	start := p.now()
	rep, err := p.inner.CallContext(ctx, addr, req)
	p.record(span{Start: start, End: p.now(), Root: root, Kind: kind, Err: err != nil})
	p.capture(rep)
	return rep, err
}

// Stats implements transport.Statser by forwarding.
func (p *probe) Stats() transport.Stats {
	if s, ok := p.inner.(transport.Statser); ok {
		return s.Stats()
	}
	return transport.Stats{}
}

// RegisterMetrics implements transport.MetricsRegisterer by forwarding.
func (p *probe) RegisterMetrics(reg *obs.Registry) {
	if m, ok := p.inner.(transport.MetricsRegisterer); ok {
		m.RegisterMetrics(reg)
	}
}

// kindTimes are the durations (µs) of one kind's call and handler spans.
type kindTimes struct {
	call, handler       []float64
	callSum, handlerSum float64
}

// byKind splits spans into per-kind call and handler durations.
func byKind(spans []span) map[wire.Kind]*kindTimes {
	out := map[wire.Kind]*kindTimes{}
	for _, s := range spans {
		kt := out[s.Kind]
		if kt == nil {
			kt = &kindTimes{}
			out[s.Kind] = kt
		}
		us := float64(s.End-s.Start) / 1e3
		if s.Handler {
			kt.handler = append(kt.handler, us)
			kt.handlerSum += us
		} else {
			kt.call = append(kt.call, us)
			kt.callSum += us
		}
	}
	return out
}

// rootSpan is one traced Resolve, recorded by the driver.
type rootSpan struct {
	ID         uint32
	Start, End int64
}

// selfTimes returns, per traced resolve, the client's self time — the
// resolve's duration minus the part of it its call spans cover — and the
// covered part (the union of its calls: the critical path through the
// transport). Both in milliseconds; self + union = the resolve's duration.
func selfTimes(roots []rootSpan, spans []span) (self, union []float64) {
	calls := map[uint32][][2]int64{}
	for _, s := range spans {
		if s.Root != 0 && !s.Handler {
			calls[s.Root] = append(calls[s.Root], [2]int64{s.Start, s.End})
		}
	}
	for _, r := range roots {
		iv := calls[r.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, hi int64
		hi = r.Start
		for _, c := range iv {
			lo, end := c[0], c[1]
			if lo < hi {
				lo = hi
			}
			if end > r.End {
				end = r.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self = append(self, float64(r.End-r.Start-covered)/1e6)
		union = append(union, float64(covered)/1e6)
	}
	return self, union
}

// writeSpans dumps the run's spans as JSON lines (-trace-out).
func writeSpans(path string, roots []rootSpan, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range roots {
		if err := enc.Encode(map[string]any{"name": "resolve", "id": r.ID, "start_ns": r.Start, "end_ns": r.End}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range spans {
		name := "call:" + kindName(s.Kind)
		if s.Handler {
			name = "handle:" + kindName(s.Kind)
		}
		if err := enc.Encode(map[string]any{"name": name, "parent": s.Root, "start_ns": s.Start, "end_ns": s.End, "err": s.Err}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
