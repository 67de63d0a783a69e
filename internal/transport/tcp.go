package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"roads/internal/obs"
	"roads/internal/wire"
)

// The frame format. There is one: a 16-byte header followed by the
// wire-codec payload.
//
//	byte  0      magic 'R' (0x52)
//	byte  1      format version (2)
//	byte  2      flags (bit 0: response)
//	byte  3      reserved (0)
//	bytes 4-11   request ID, big-endian uint64
//	bytes 12-15  payload length, big-endian uint32
//
// A connection carries many concurrent exchanges; responses are matched to
// requests by ID, so they may arrive out of order. A stream that opens with
// anything but this header is closed.
//
// A frame leaves in one Write: the message is encoded behind headerV2Len
// reserved bytes of a pooled buffer and sealFrame fills the header in, so
// with TCP_NODELAY a frame is one segment and the peer's bufio.Reader gets
// it whole in one read.
//
// Frame buffers, read and written, come from wire's buffer pool, and one
// rule says who returns them: whoever decodes a frame releases it, right
// after wire.Decode (decoded messages never alias their input). A reply
// whose caller has already given up is released by the connection's
// readLoop instead.
const (
	frameMagic   = 'R'
	frameVersion = 2
	flagResponse = 1 << 0
	headerV2Len  = 16
)

// maxFrame bounds a frame to 64 MiB, far above any legitimate message.
// Both writer and reader enforce it: the writer so an oversize message
// fails cleanly instead of being rejected mid-stream by the peer (or
// silently truncating its uint32 length), the reader so a corrupt or
// hostile header cannot trigger a huge allocation.
const maxFrame = 64 << 20

var errStaleConn = errors.New("transport: stale pooled connection")

// TCP is the framed TCP transport: wire-codec payloads in length-prefixed
// frames. It keeps a per-peer pool of persistent connections and multiplexes
// concurrent calls over them with framed request IDs: a reader goroutine
// per connection demuxes the replies, idle connections are reaped in the
// background, and a call that lands on a connection the peer has meanwhile
// closed is retried once on a fresh dial. Listeners run handlers on warm
// worker goroutines (see workers).
type TCP struct {
	// DialTimeout bounds connection setup; CallTimeout bounds the whole
	// exchange. Zero values use wire.Deadline.
	DialTimeout time.Duration
	CallTimeout time.Duration
	// IdleTimeout is how long a pooled connection may sit unused before
	// the reaper closes it (default 30s). Listeners keep sessions for
	// twice this, so the dialer normally reaps first.
	IdleTimeout time.Duration
	// MaxConnsPerPeer bounds the pool per destination (default 2). A new
	// connection is dialed only while every pooled one is busy and the
	// bound has not been reached.
	MaxConnsPerPeer int

	ctr    counters
	nextID atomic.Uint64

	mu      sync.Mutex
	cond    *sync.Cond // signalled when a dial finishes or a conn dies
	pool    map[string]*peerPool
	reaping bool
}

// peerPool tracks one destination's connections plus in-progress dials, so
// a burst of first calls cannot stampede past MaxConnsPerPeer.
type peerPool struct {
	conns   []*peerConn
	dialing int
}

// NewTCP creates a pooled TCP transport with default timeouts.
func NewTCP() *TCP { return &TCP{} }

// Stats returns a snapshot of the transport's counters.
func (t *TCP) Stats() Stats { return t.ctr.snapshot() }

// RegisterMetrics exposes the transport's counters as roads_transport_*
// series on reg. Call once, at startup, before the registry is scraped.
func (t *TCP) RegisterMetrics(reg *obs.Registry) { t.ctr.register(reg) }

func (t *TCP) dialTimeout() time.Duration {
	if t.DialTimeout > 0 {
		return t.DialTimeout
	}
	return wire.Deadline
}

func (t *TCP) callTimeout() time.Duration {
	if t.CallTimeout > 0 {
		return t.CallTimeout
	}
	return wire.Deadline
}

func (t *TCP) idleTimeout() time.Duration {
	if t.IdleTimeout > 0 {
		return t.IdleTimeout
	}
	return 30 * time.Second
}

func (t *TCP) maxConnsPerPeer() int {
	if t.MaxConnsPerPeer > 0 {
		return t.MaxConnsPerPeer
	}
	return 2
}

// --- Listener ---

type tcpCloser struct {
	ln net.Listener
	wg *sync.WaitGroup
	// stop is closed by Close; parked handler workers exit on it.
	stop chan struct{}

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

func (c *tcpCloser) track(conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.conns[conn] = struct{}{}
	return true
}

func (c *tcpCloser) untrack(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.conns, conn)
}

func (c *tcpCloser) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
	}
	err := c.ln.Close()
	for conn := range c.conns {
		_ = conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return err
}

// Listen implements Transport. Each accepted connection is served as a
// long-lived multiplexed session, each request handed to one of the
// listener's handler workers. Close returns once the accept loop, every
// connection reader and every worker has exited.
func (t *TCP) Listen(addr string, h Handler) (io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	var wg sync.WaitGroup
	closer := &tcpCloser{ln: ln, wg: &wg, stop: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	ws := &workers{jobs: make(chan job), stop: closer.stop, wg: &wg}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if !closer.track(conn) {
				_ = conn.Close()
				return
			}
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer closer.untrack(conn)
				defer conn.Close()
				t.serveMux(conn, h, ws)
			}(conn)
		}
	}()
	return closer, nil
}

// muxSession is the server side of one connection: what a worker needs
// to answer a request read from it.
type muxSession struct {
	t    *TCP
	conn net.Conn
	h    Handler
	wmu  sync.Mutex // serializes reply frames
}

// serveMux serves one session: requests are read in a loop and handed to
// the listener's workers, so a slow handler never blocks this reader; each
// reply is written back (under the session's write lock) tagged with its
// request ID. The session ends when the peer closes the connection, sends
// anything but a frame, or sits idle past the server-side window.
func (t *TCP) serveMux(conn net.Conn, h Handler, ws *workers) {
	br := bufio.NewReader(conn)
	sess := &muxSession{t: t, conn: conn, h: h}
	idle := 2 * t.idleTimeout()
	if ct := t.callTimeout(); idle < ct {
		idle = ct
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idle))
		id, _, frame, err := readFrameV2(br)
		if err != nil {
			return
		}
		t.ctr.bytesRecv.Add(uint64(headerV2Len + len(*frame)))
		ws.dispatch(job{sess: sess, id: id, frame: frame})
	}
}

// job is one request frame waiting for a handler worker, which owns frame
// from here on.
type job struct {
	sess  *muxSession
	id    uint64
	frame *[]byte
}

// serve decodes the request, runs the handler and writes the reply frame.
// A request that does not decode is answered with the decode error.
func (j job) serve() {
	s := j.sess
	msg, err := wire.Decode(*j.frame)
	wire.PutBuf(j.frame)
	var rep *wire.Message
	if err != nil {
		rep = &wire.Message{Kind: wire.KindError, Error: err.Error()}
	} else {
		rep = s.h(msg)
	}
	out, err := encodePooled(rep, headerV2Len)
	if err != nil {
		return
	}
	defer wire.PutBuf(out)
	if sealFrame(*out, j.id, flagResponse) != nil {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.t.callTimeout()))
	if _, err := s.conn.Write(*out); err == nil {
		s.t.ctr.bytesSent.Add(uint64(len(*out)))
	}
}

// workerIdle is how often a parked handler worker checks whether it has
// been used: one that served nothing for a whole period exits.
const workerIdle = 10 * time.Second

// workers runs one listener's handler calls on warm goroutines. A request
// goes to a parked worker when there is one and to a new goroutine when
// there is not (including the moment a worker has replied but not parked
// again yet), so the pool is about as large as the listener's recent peak
// of concurrent handlers, a slow handler delays only its own caller, and
// nothing is configured. Reusing goroutines saves the start-up and stack
// growth a goroutine per request pays on every call.
type workers struct {
	// jobs is unbuffered: a send succeeds only while a worker is parked in
	// receive, which is how dispatch knows whether one is idle.
	jobs chan job
	stop <-chan struct{}
	wg   *sync.WaitGroup
}

// dispatch never blocks. Its callers are connection readers, which the
// listener's WaitGroup already counts, so Add cannot race Close's Wait.
func (w *workers) dispatch(j job) {
	select {
	case w.jobs <- j:
	default:
		w.wg.Add(1)
		go w.run(j)
	}
}

func (w *workers) run(j job) {
	defer w.wg.Done()
	j.serve()
	tick := time.NewTicker(workerIdle)
	defer tick.Stop()
	used := false
	for {
		select {
		case j = <-w.jobs:
			j.serve()
			used = true
		case <-tick.C:
			if !used {
				return
			}
			used = false
		case <-w.stop:
			return
		}
	}
}

// --- Pooled client ---

// callResult is what a waiting call receives: the reply frame (a pooled
// buffer the receiver now owns) or the connection's failure.
type callResult struct {
	frame *[]byte
	err   error
}

// resultChans recycles the one-slot channels calls wait on. A call's
// channel is empty again by the time the call returns: either it received
// the result, or it unregistered before the reader claimed the slot, or
// abandon drained the result the reader had already claimed it for.
var resultChans = sync.Pool{New: func() any { return make(chan callResult, 1) }}

// peerConn is one pooled connection to a peer, shared by concurrent calls.
type peerConn struct {
	t    *TCP
	addr string
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan callResult
	closed  bool

	inflight atomic.Int64
	lastUsed atomic.Int64 // unix nanos
}

func (pc *peerConn) touch() { pc.lastUsed.Store(time.Now().UnixNano()) }

func (pc *peerConn) idleSince() time.Time { return time.Unix(0, pc.lastUsed.Load()) }

// register claims a request ID slot; it fails once the connection died.
func (pc *peerConn) register(id uint64, ch chan callResult) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return false
	}
	pc.pending[id] = ch
	return true
}

// abandon gives up waiting for id's reply. If the slot is still pending no
// result will ever be sent. If readLoop or fail claimed it first, their
// result is already on its way into ch (the send cannot block), so abandon
// takes it and releases the frame nobody will decode.
func (pc *peerConn) abandon(id uint64, ch chan callResult) {
	pc.mu.Lock()
	_, pending := pc.pending[id]
	delete(pc.pending, id)
	pc.mu.Unlock()
	if pending {
		return
	}
	if res := <-ch; res.frame != nil {
		wire.PutBuf(res.frame)
	}
}

// fail marks the connection dead, fails every outstanding call, and drops
// it from the pool.
func (pc *peerConn) fail(err error) {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return
	}
	pc.closed = true
	for id, ch := range pc.pending {
		delete(pc.pending, id)
		ch <- callResult{err: err}
	}
	pc.mu.Unlock()
	_ = pc.conn.Close()
	pc.t.removeConn(pc)
}

// readLoop demuxes response frames to their waiting callers, who decode
// and release them; a frame nobody waits for any more is released here.
func (pc *peerConn) readLoop() {
	for {
		id, _, frame, err := readFrameV2(pc.br)
		if err != nil {
			pc.fail(errStaleConn)
			return
		}
		pc.t.ctr.bytesRecv.Add(uint64(headerV2Len + len(*frame)))
		pc.mu.Lock()
		ch := pc.pending[id]
		delete(pc.pending, id)
		pc.mu.Unlock()
		if ch != nil {
			ch <- callResult{frame: frame}
		} else {
			wire.PutBuf(frame)
		}
	}
}

// poolFor returns addr's pool entry, initializing lazily. Callers hold t.mu.
func (t *TCP) poolFor(addr string) *peerPool {
	if t.pool == nil {
		t.pool = make(map[string]*peerPool)
	}
	if t.cond == nil {
		t.cond = sync.NewCond(&t.mu)
	}
	pp := t.pool[addr]
	if pp == nil {
		pp = &peerPool{}
		t.pool[addr] = pp
	}
	return pp
}

// getConn returns a pooled connection to addr, dialing a new one when
// every pooled connection is busy and a dial slot is free (dials in flight
// count against MaxConnsPerPeer, so call bursts multiplex instead of
// stampeding into one socket each). fresh bypasses the pool — the
// stale-retry path must not be handed the same dead connection back.
func (t *TCP) getConn(ctx context.Context, addr string, fresh bool) (*peerConn, bool, error) {
	t.mu.Lock()
	pp := t.poolFor(addr)
	if !fresh {
		for {
			var best *peerConn
			for _, pc := range pp.conns {
				if best == nil || pc.inflight.Load() < best.inflight.Load() {
					best = pc
				}
			}
			if best != nil && (best.inflight.Load() == 0 || len(pp.conns)+pp.dialing >= t.maxConnsPerPeer()) {
				t.mu.Unlock()
				t.ctr.reuses.Add(1)
				return best, true, nil
			}
			if len(pp.conns)+pp.dialing < t.maxConnsPerPeer() {
				break // take a dial slot
			}
			t.cond.Wait() // a dial is in flight; reuse its connection when it lands
			pp = t.poolFor(addr)
		}
	}
	pp.dialing++
	t.mu.Unlock()

	d := net.Dialer{Timeout: t.dialTimeout()}
	if ct := callTimeoutOf(ctx); ct > 0 && ct < d.Timeout {
		d.Timeout = ct
	}
	conn, err := d.DialContext(ctx, "tcp", addr)

	t.mu.Lock()
	pp = t.poolFor(addr)
	pp.dialing--
	if err != nil {
		t.cond.Broadcast()
		t.mu.Unlock()
		return nil, false, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	t.ctr.dials.Add(1)
	pc := t.adoptLocked(pp, addr, conn)
	t.mu.Unlock()
	return pc, false, nil
}

// adoptLocked pools an established connection to addr and starts its
// reader (and the reaper, if none runs). Callers hold t.mu.
func (t *TCP) adoptLocked(pp *peerPool, addr string, conn net.Conn) *peerConn {
	pc := &peerConn{
		t:       t,
		addr:    addr,
		conn:    conn,
		br:      bufio.NewReader(conn),
		pending: make(map[uint64]chan callResult),
	}
	pc.touch()
	pp.conns = append(pp.conns, pc)
	go pc.readLoop()
	if !t.reaping {
		t.reaping = true
		go t.reapLoop()
	}
	t.cond.Broadcast()
	return pc
}

func (t *TCP) removeConn(pc *peerConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pp := t.pool[pc.addr]
	if pp == nil {
		return
	}
	for i, c := range pp.conns {
		if c == pc {
			pp.conns = append(pp.conns[:i], pp.conns[i+1:]...)
			break
		}
	}
	if len(pp.conns) == 0 && pp.dialing == 0 {
		delete(t.pool, pc.addr)
	}
	if t.cond != nil {
		t.cond.Broadcast()
	}
}

// reapLoop closes idle pooled connections. It exits once the pool drains
// (the next Call restarts it), so idle transports hold no goroutines.
func (t *TCP) reapLoop() {
	idle := t.idleTimeout()
	ticker := time.NewTicker(idle / 2)
	defer ticker.Stop()
	for range ticker.C {
		now := time.Now()
		var victims []*peerConn
		t.mu.Lock()
		remaining := 0
		for addr, pp := range t.pool {
			kept := pp.conns[:0]
			for _, pc := range pp.conns {
				if pc.inflight.Load() == 0 && now.Sub(pc.idleSince()) > idle {
					victims = append(victims, pc)
				} else {
					kept = append(kept, pc)
				}
			}
			pp.conns = kept
			if len(kept) == 0 && pp.dialing == 0 {
				delete(t.pool, addr)
			}
			remaining += len(kept) + pp.dialing
		}
		done := remaining == 0
		if done {
			t.reaping = false
		}
		t.mu.Unlock()
		for _, pc := range victims {
			pc.fail(errStaleConn)
		}
		if done {
			return
		}
	}
}

// Close tears down every pooled connection. Outstanding calls fail; the
// transport remains usable (later calls dial anew).
func (t *TCP) Close() error {
	t.mu.Lock()
	var all []*peerConn
	for _, pp := range t.pool {
		all = append(all, pp.conns...)
	}
	t.pool = nil
	if t.cond != nil {
		t.cond.Broadcast()
	}
	t.mu.Unlock()
	for _, pc := range all {
		pc.fail(errStaleConn)
	}
	return nil
}

// Call implements Transport. Pooled calls that fail because the pooled
// connection went stale (peer restarted, idle reap raced) are retried once
// on a fresh dial; timeouts and fresh-connection failures are not retried,
// since the request may have been handled.
func (t *TCP) Call(addr string, req *wire.Message) (*wire.Message, error) {
	return t.CallContext(context.Background(), addr, req)
}

// CallContext implements Transport. Cancellation releases the waiting
// caller without poisoning the pooled connection: the request ID is simply
// unregistered, and a reply that arrives later is discarded by the read
// loop while other in-flight calls on the same connection proceed.
func (t *TCP) CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error) {
	out, err := encodePooled(req, headerV2Len)
	if err != nil {
		return nil, err
	}
	defer wire.PutBuf(out)
	frame := *out
	if n := len(frame) - headerV2Len; n > maxFrame {
		return nil, fmt.Errorf("transport: message of %d bytes exceeds the %d-byte frame limit", n, maxFrame)
	}
	start := time.Now()
	t.ctr.inflight.Add(1)
	defer t.ctr.inflight.Add(-1)

	in, err := t.callPooled(ctx, addr, frame, false)
	if errors.Is(err, errStaleConn) && ctx.Err() == nil {
		t.ctr.retries.Add(1)
		in, err = t.callPooled(ctx, addr, frame, true)
	}
	if err != nil {
		t.ctr.errors.Add(1)
		if errors.Is(err, errStaleConn) {
			err = fmt.Errorf("transport: call to %s: %w", addr, err)
		}
		return nil, err
	}
	t.ctr.calls.Add(1)
	t.ctr.observe(time.Since(start))
	rep, err := wire.Decode(*in)
	wire.PutBuf(in)
	return rep, err
}

// callPooled runs one exchange over a pooled connection: frame is the
// encoded request behind its reserved header, the result the reply frame,
// which the caller decodes and releases. The exchange may take CallTimeout,
// or the caller's own call timeout (WithCallTimeout) or context deadline
// when that is sooner. Failures on a reused connection surface as
// errStaleConn so Call can retry them once. Expiry abandons only this call's
// waiter; the connection and its other in-flight exchanges stay healthy.
func (t *TCP) callPooled(ctx context.Context, addr string, frame []byte, fresh bool) (*[]byte, error) {
	pc, reused, err := t.getConn(ctx, addr, fresh)
	if err != nil {
		return nil, err
	}
	id := t.nextID.Add(1)
	if err := sealFrame(frame, id, 0); err != nil {
		return nil, err
	}
	ch := resultChans.Get().(chan callResult)
	defer resultChans.Put(ch)
	if !pc.register(id, ch) {
		if reused {
			return nil, errStaleConn
		}
		return nil, fmt.Errorf("transport: connection to %s closed", addr)
	}
	pc.inflight.Add(1)
	defer func() {
		pc.inflight.Add(-1)
		pc.touch()
	}()

	limit := t.callTimeout()
	if d := callTimeoutOf(ctx); d > 0 && d < limit {
		limit = d
	}
	deadline := time.Now().Add(limit)
	// When ctx's own deadline is no later than that, ctx.Done() ends the
	// wait in time and no timer has to.
	ctxEnds := false
	if cd, ok := ctx.Deadline(); ok && !cd.After(deadline) {
		deadline, ctxEnds = cd, true
	}

	pc.wmu.Lock()
	_ = pc.conn.SetWriteDeadline(deadline)
	n, werr := pc.conn.Write(frame)
	pc.wmu.Unlock()
	if werr != nil {
		pc.abandon(id, ch)
		if n == 0 && errors.Is(werr, os.ErrDeadlineExceeded) {
			// The deadline passed before a byte left (a caller with next to
			// no budget): the stream is intact and only this call is over.
			return nil, fmt.Errorf("transport: call to %s: %w", addr, context.DeadlineExceeded)
		}
		pc.fail(errStaleConn)
		if reused {
			return nil, errStaleConn
		}
		return nil, fmt.Errorf("transport: write to %s: %w", addr, werr)
	}
	t.ctr.bytesSent.Add(uint64(len(frame)))

	var timedOut <-chan time.Time
	if !ctxEnds {
		timer := time.NewTimer(limit)
		defer timer.Stop()
		timedOut = timer.C
	}
	select {
	case res := <-ch:
		if res.err != nil {
			if reused {
				return nil, errStaleConn
			}
			return nil, fmt.Errorf("transport: read from %s: %w", addr, res.err)
		}
		return res.frame, nil
	case <-ctx.Done():
		pc.abandon(id, ch)
		return nil, fmt.Errorf("transport: call to %s: %w", addr, ctx.Err())
	case <-timedOut:
		pc.abandon(id, ch)
		return nil, fmt.Errorf("transport: call to %s: no reply within %v: %w", addr, limit, context.DeadlineExceeded)
	}
}

// --- Framing ---

// sealFrame fills in the header of frame, a message encoded behind
// headerV2Len reserved bytes, so the whole frame can leave in one Write. It
// rejects oversize payloads at the sender, so they fail cleanly instead of
// corrupting the stream.
func sealFrame(frame []byte, id uint64, flags byte) error {
	n := len(frame) - headerV2Len
	if n > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	frame[0] = frameMagic
	frame[1] = frameVersion
	frame[2] = flags
	frame[3] = 0
	binary.BigEndian.PutUint64(frame[4:12], id)
	binary.BigEndian.PutUint32(frame[12:16], uint32(n))
	return nil
}

// readFrameV2 reads one frame's payload into a pooled buffer,
// which the caller owns until wire.PutBuf.
func readFrameV2(br *bufio.Reader) (id uint64, flags byte, payload *[]byte, err error) {
	hdr, err := br.Peek(headerV2Len)
	if err != nil {
		return 0, 0, nil, err
	}
	if hdr[0] != frameMagic || hdr[1] != frameVersion {
		return 0, 0, nil, fmt.Errorf("transport: bad frame header %x (want magic %#x version %d)", hdr[:2], frameMagic, frameVersion)
	}
	flags = hdr[2]
	id = binary.BigEndian.Uint64(hdr[4:12])
	size := binary.BigEndian.Uint32(hdr[12:16])
	if size > maxFrame {
		return 0, 0, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	n := int(size)
	_, _ = br.Discard(headerV2Len) // cannot fail: Peek buffered these bytes
	payload = wire.GetBuf()
	if cap(*payload) < n {
		*payload = make([]byte, n)
	}
	*payload = (*payload)[:n]
	if _, err = io.ReadFull(br, *payload); err != nil {
		wire.PutBuf(payload)
		return 0, 0, nil, err
	}
	return id, flags, payload, nil
}
