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
	// reached) the peer — cancellation only abandons the wait.
	CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error)
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

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// --- In-process transport ---

// Chan is an in-process transport: a registry of handlers keyed by
// address. Calls run the remote handler on the caller's goroutine after an
// optional injected latency, which makes latency experiments reproducible
// without sockets.
type Chan struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	// Latency, if set, returns the one-way delay between two addresses;
	// each Call sleeps twice (request + reply).
	Latency func(from, to string) time.Duration
	// CallerAddr tags outgoing calls for the latency function; transports
	// are per-process so a single caller address suffices.
	CallerAddr string

	ctr counters
}

// NewChan creates an empty in-process transport.
func NewChan() *Chan {
	return &Chan{handlers: make(map[string]Handler)}
}

type chanCloser struct {
	t    *Chan
	addr string
}

func (c *chanCloser) Close() error {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	delete(c.t.handlers, c.addr)
	return nil
}

// Listen implements Transport.
func (t *Chan) Listen(addr string, h Handler) (io.Closer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.handlers[addr]; dup {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	t.handlers[addr] = h
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
// abandoned handler finishes (or stalls) on its own. With a plain
// background context the handler runs inline on the caller's goroutine,
// exactly the pre-context behaviour.
func (t *Chan) CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error) {
	t.mu.RLock()
	h := t.handlers[addr]
	lat := t.Latency
	caller := t.CallerAddr
	t.mu.RUnlock()
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
	if lat != nil {
		if err := sleepCtx(ctx, lat(caller, addr)); err != nil {
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
		if err := sleepCtx(ctx, lat(addr, caller)); err != nil {
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
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.handlers))
	for a := range t.handlers {
		out = append(out, a)
	}
	return out
}
