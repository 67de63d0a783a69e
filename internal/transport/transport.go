// Package transport provides the request/response layer the live ROADS
// prototype runs on, with two interchangeable implementations: an
// in-process channel transport for tests, examples and benchmarks (with an
// optional injected latency model), and a pooled, multiplexed TCP
// transport for real multi-process deployments.
// Both expose operational counters through Stats() and can publish them as
// named roads_transport_* series on an obs.Registry via RegisterMetrics;
// the Faulty chaos wrapper forwards both to the transport it wraps.
package transport

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"roads/internal/obs"
	"roads/internal/wire"
)

// Handler processes one request and produces a reply.
type Handler func(*wire.Message) *wire.Message

// Transport abstracts how servers reach each other.
type Transport interface {
	// Listen registers a handler at addr and starts serving. The returned
	// closer stops serving.
	Listen(addr string, h Handler) (io.Closer, error)
	// Call sends a request to addr and waits for the reply.
	Call(addr string, req *wire.Message) (*wire.Message, error)
	// CallContext is Call bounded by ctx: cancellation or deadline expiry
	// releases the caller promptly with the context's error, even when the
	// remote handler never replies. The request may still reach (or have
	// reached) the peer — cancellation only abandons the wait. A timeout
	// attached with WithCallTimeout bounds the call the same way, counted
	// from the moment the call starts.
	CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error)
}

type callTimeoutKey struct{}

// WithCallTimeout returns ctx carrying d as the time every call made under
// it may take, counted from that call's start. It is a value, not a timer:
// the returned context's Done and Deadline are ctx's own, so a caller that
// makes many calls under one budget per call — live.Client makes one per
// server it contacts — attaches it once instead of deriving a
// context.WithTimeout for each. Each transport enforces it where it already
// waits: TCP on the socket and the wait for the reply, Faulty on its injected
// drops and delays, Chan on its injected latency. A Chan handler itself can
// only be abandoned under a context that can be cancelled (see
// Chan.CallContext).
func WithCallTimeout(ctx context.Context, d time.Duration) context.Context {
	return context.WithValue(ctx, callTimeoutKey{}, d)
}

// callTimeoutOf returns the timeout WithCallTimeout attached to ctx, or 0.
func callTimeoutOf(ctx context.Context) time.Duration {
	d, _ := ctx.Value(callTimeoutKey{}).(time.Duration)
	return d
}

// callDeadline returns when a call starting now under ctx has to give up:
// the call timeout from now, or ctx's own deadline when that is sooner. The
// zero time means neither is set.
func callDeadline(ctx context.Context) time.Time {
	dl, _ := ctx.Deadline()
	if d := callTimeoutOf(ctx); d > 0 {
		if t := time.Now().Add(d); dl.IsZero() || t.Before(dl) {
			return t
		}
	}
	return dl
}

// encodePooled serializes m into a buffer from wire's pool, behind reserve
// zero bytes the caller fills in later (the TCP frame header, so header and
// payload leave in one write). The caller returns the buffer with
// wire.PutBuf and must not touch it afterwards.
func encodePooled(m *wire.Message, reserve int) (*[]byte, error) {
	bp := wire.GetBuf()
	buf, err := wire.AppendEncode(append((*bp)[:0], reserved[:reserve]...), m)
	if err != nil {
		wire.PutBuf(bp) // *bp is still the buffer as the pool handed it out
		return nil, err
	}
	*bp = buf
	return bp, nil
}

// reserved is the zero filler encodePooled puts in front of a message.
var reserved [headerV2Len]byte

// sleepCall sleeps for d on behalf of a call that has to give up at deadline
// (a callDeadline; zero for none): it returns early with ctx's error when ctx
// ends, and after sleeping only up to the deadline with
// context.DeadlineExceeded when d would cross it.
func sleepCall(ctx context.Context, d time.Duration, deadline time.Time) error {
	if d <= 0 {
		return ctx.Err()
	}
	var expired error
	if !deadline.IsZero() {
		if left := time.Until(deadline); left < d {
			d, expired = left, context.DeadlineExceeded
		}
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return expired
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return expired
	}
}

// --- In-process transport ---

// Chan is an in-process transport: a registry of handlers keyed by
// address. Calls run the remote handler on the caller's goroutine after an
// optional injected latency, which makes latency experiments reproducible
// without sockets.
type Chan struct {
	// handlers is read on every call and written only by Listen and Close,
	// which copy the map (under mu) and publish the copy.
	mu       sync.Mutex
	handlers atomic.Pointer[map[string]Handler]
	// Latency, if set, returns the one-way delay between two addresses;
	// each Call sleeps twice (request + reply). Set it before the first call.
	Latency func(from, to string) time.Duration
	// CallerAddr tags outgoing calls for the latency function; transports
	// are per-process so a single caller address suffices. Set it before
	// the first call.
	CallerAddr string

	ctr counters
}

// NewChan creates an empty in-process transport.
func NewChan() *Chan { return &Chan{} }

// table returns the current handler map, which is never written again.
func (t *Chan) table() map[string]Handler {
	if m := t.handlers.Load(); m != nil {
		return *m
	}
	return nil
}

// update publishes a copy of the handler map with addr bound to h, or
// unbound when h is nil. Callers hold t.mu.
func (t *Chan) update(addr string, h Handler) {
	old := t.table()
	next := make(map[string]Handler, len(old)+1)
	for a, oh := range old {
		next[a] = oh
	}
	if h != nil {
		next[addr] = h
	} else {
		delete(next, addr)
	}
	t.handlers.Store(&next)
}

type chanCloser struct {
	t    *Chan
	addr string
}

func (c *chanCloser) Close() error {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	c.t.update(c.addr, nil)
	return nil
}

// Listen implements Transport.
func (t *Chan) Listen(addr string, h Handler) (io.Closer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.table()[addr]; dup {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	t.update(addr, h)
	return &chanCloser{t: t, addr: addr}, nil
}

// Call implements Transport. The message is round-tripped through the wire
// codec so in-process behaviour matches TCP exactly (no shared pointers,
// same encodability constraints).
func (t *Chan) Call(addr string, req *wire.Message) (*wire.Message, error) {
	return t.CallContext(context.Background(), addr, req)
}

// CallContext implements Transport. With a cancellable context the remote
// handler runs on its own goroutine so a stalled peer cannot pin the
// caller past its deadline: the caller is released with ctx.Err() and the
// abandoned handler finishes (or stalls) on its own. With a context that
// cannot be cancelled (ctx.Done() == nil: a background context, with or
// without values such as WithCallTimeout's) the handler runs inline on the
// caller's goroutine, exactly the pre-context behaviour; a call timeout then
// bounds only the injected latency, since nothing can interrupt a function
// call.
func (t *Chan) CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error) {
	h := t.table()[addr]
	lat := t.Latency
	caller := t.CallerAddr
	if h == nil {
		t.ctr.errors.Add(1)
		return nil, fmt.Errorf("transport: no server at %q", addr)
	}
	start := time.Now()
	t.ctr.inflight.Add(1)
	defer t.ctr.inflight.Add(-1)
	reqBuf, err := encodePooled(req, 0)
	if err != nil {
		t.ctr.errors.Add(1)
		return nil, err
	}
	t.ctr.bytesSent.Add(uint64(len(*reqBuf)))
	var deadline time.Time
	if lat != nil {
		deadline = callDeadline(ctx)
		if err := sleepCall(ctx, lat(caller, addr), deadline); err != nil {
			wire.PutBuf(reqBuf)
			t.ctr.errors.Add(1)
			return nil, fmt.Errorf("transport: call to %s: %w", addr, err)
		}
	}

	var repBuf *[]byte
	if ctx.Done() == nil {
		repBuf, err = runHandler(h, reqBuf)
	} else {
		type result struct {
			buf *[]byte
			err error
		}
		ch := make(chan result, 1)
		go func() {
			// The goroutine owns reqBuf: an abandoned call must not let the
			// caller recycle the buffer out from under the handler. The
			// reply of an abandoned call stays in ch for the collector.
			b, e := runHandler(h, reqBuf)
			ch <- result{buf: b, err: e}
		}()
		select {
		case <-ctx.Done():
			t.ctr.errors.Add(1)
			return nil, fmt.Errorf("transport: call to %s: %w", addr, ctx.Err())
		case res := <-ch:
			repBuf, err = res.buf, res.err
		}
	}
	if err != nil {
		t.ctr.errors.Add(1)
		return nil, err
	}
	defer wire.PutBuf(repBuf)
	t.ctr.bytesRecv.Add(uint64(len(*repBuf)))
	if lat != nil {
		if err := sleepCall(ctx, lat(addr, caller), deadline); err != nil {
			t.ctr.errors.Add(1)
			return nil, fmt.Errorf("transport: call to %s: %w", addr, err)
		}
	}
	t.ctr.calls.Add(1)
	t.ctr.observe(time.Since(start))
	return wire.Decode(*repBuf)
}

// runHandler is the Chan transport's whole "remote" side: it decodes the
// request, releases its buffer, invokes the handler, and encodes the reply
// through a pooled buffer, like a TCP listener does. The caller decodes and
// releases the reply.
func runHandler(h Handler, req *[]byte) (*[]byte, error) {
	decoded, err := wire.Decode(*req)
	wire.PutBuf(req)
	if err != nil {
		return nil, err
	}
	return encodePooled(h(decoded), 0)
}

// Stats returns a snapshot of the transport's counters. The Chan transport
// never dials, so only calls, bytes and latency move.
func (t *Chan) Stats() Stats { return t.ctr.snapshot() }

// RegisterMetrics exposes the transport's counters as roads_transport_*
// series on reg. Call once, at startup, before the registry is scraped.
func (t *Chan) RegisterMetrics(reg *obs.Registry) { t.ctr.register(reg) }

// BytesMoved returns the total encoded bytes transferred (both
// directions), for overhead measurements.
func (t *Chan) BytesMoved() int64 {
	s := t.ctr.snapshot()
	return int64(s.BytesSent + s.BytesRecv)
}

// Addrs returns the registered addresses (diagnostics).
func (t *Chan) Addrs() []string {
	handlers := t.table()
	out := make([]string, 0, len(handlers))
	for a := range handlers {
		out = append(out, a)
	}
	return out
}
