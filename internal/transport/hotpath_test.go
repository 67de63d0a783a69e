package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roads/internal/wire"
)

// countingConn counts the Write calls a connection sees: with TCP_NODELAY
// each is a segment on the wire and a syscall on either side.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countedPeer gives client conns pooled connections to a new peer address
// where srv serves h, all of them real TCP connections whose ends count
// their writes: the client ends are adopted into client's pool (set
// MaxConnsPerPeer to conns so it never dials past them), the server ends
// are served exactly as accepted connections would be.
func countedPeer(tb testing.TB, client, srv *TCP, h Handler, conns int) (addr string, clientWrites, serverWrites *atomic.Int64) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	addr = ln.Addr().String()
	clientWrites, serverWrites = new(atomic.Int64), new(atomic.Int64)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	ws := &workers{jobs: make(chan job), stop: stop, wg: &wg}
	var accepted []net.Conn
	for i := 0; i < conns; i++ {
		dialed, err := net.Dial("tcp", addr)
		if err != nil {
			tb.Fatal(err)
		}
		conn, err := ln.Accept()
		if err != nil {
			tb.Fatal(err)
		}
		accepted = append(accepted, conn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.serveMux(countingConn{conn, serverWrites}, h, ws)
		}()
		client.mu.Lock()
		client.adoptLocked(client.poolFor(addr), addr, countingConn{dialed, clientWrites})
		client.mu.Unlock()
	}
	tb.Cleanup(func() {
		client.Close()
		for _, conn := range accepted {
			conn.Close()
		}
		close(stop)
		wg.Wait()
	})
	return addr, clientWrites, serverWrites
}

// countedPair is countedPeer for a fresh client with one connection.
func countedPair(tb testing.TB, h Handler) (client *TCP, addr string, clientWrites, serverWrites *atomic.Int64) {
	client = &TCP{MaxConnsPerPeer: 1}
	addr, clientWrites, serverWrites = countedPeer(tb, client, NewTCP(), h, 1)
	return client, addr, clientWrites, serverWrites
}

// payloadEcho answers with the request's Error text, which the tests use
// as an arbitrary-size payload.
func payloadEcho(m *wire.Message) *wire.Message {
	return &wire.Message{Kind: wire.KindAck, From: m.From, Error: m.Error}
}

// TestOneWritePerFrame: a request and its reply each leave in exactly one
// Write, header included, whatever the payload size.
func TestOneWritePerFrame(t *testing.T) {
	client, addr, clientWrites, serverWrites := countedPair(t, payloadEcho)
	const calls = 50
	for i := 0; i < calls; i++ {
		payload := strings.Repeat("x", i*400) // up to ~20 kB: past bufio's 4 kB too
		rep, err := client.Call(addr, &wire.Message{Kind: wire.KindAck, From: "c", Error: payload})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Error != payload {
			t.Fatalf("call %d: reply carries %d payload bytes; want %d", i, len(rep.Error), len(payload))
		}
	}
	if got := clientWrites.Load(); got != calls {
		t.Errorf("%d requests took %d writes; want one each", calls, got)
	}
	if got := serverWrites.Load(); got != calls {
		t.Errorf("%d replies took %d writes; want one each", calls, got)
	}
	if d := client.Stats().Dials; d != 0 {
		t.Errorf("client dialed %d connections beside the counted one", d)
	}
}

// TestConcurrentCallersNeverTearFrames: 32 callers share one pooled
// connection, with payloads from empty to several bufio buffers long; every
// reply must be the caller's own payload, intact.
func TestConcurrentCallersNeverTearFrames(t *testing.T) {
	client, addr, clientWrites, serverWrites := countedPair(t, payloadEcho)
	const callers, rounds = 32, 40
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				from := fmt.Sprintf("c%d-%d", c, i)
				payload := strings.Repeat(from+"|", (c*rounds+i)%700)
				rep, err := client.Call(addr, &wire.Message{Kind: wire.KindAck, From: from, Error: payload})
				if err != nil {
					t.Errorf("%s: %v", from, err)
					return
				}
				if rep.From != from || rep.Error != payload {
					t.Errorf("%s: got the reply of %q with %d payload bytes; want %d", from, rep.From, len(rep.Error), len(payload))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := clientWrites.Load(); got != callers*rounds {
		t.Errorf("%d requests took %d writes", callers*rounds, got)
	}
	if got := serverWrites.Load(); got != callers*rounds {
		t.Errorf("%d replies took %d writes", callers*rounds, got)
	}
}

// TestAbandonedCallsKeepBuffersAndConnectionSound races callers' deadlines —
// context deadlines and call timeouts alternately, the latter ended by the
// call's own timer — against replies: handlers answer after about as long as
// callers wait, so
// some calls get their reply, some give up before it arrives (the reader
// releases the frame), and some give up just as the reader hands it over
// (abandon releases it). A frame released twice would be handed to two
// later users at once, which the payload check and the race detector both
// catch; a request slot never given up would stay in the connection's
// table. Afterwards the same connection still serves calls.
func TestAbandonedCallsKeepBuffersAndConnectionSound(t *testing.T) {
	const wait = 2 * time.Millisecond
	handler := func(m *wire.Message) *wire.Message {
		if m.Kind == wire.KindHeartbeat {
			time.Sleep(wait)
		}
		return payloadEcho(m)
	}
	client, addr, _, _ := countedPair(t, handler)
	call := func(ctx context.Context, kind wire.Kind, from string) (bool, error) {
		payload := strings.Repeat(from, 50)
		rep, err := client.CallContext(ctx, addr, &wire.Message{Kind: kind, From: from, Error: payload})
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				return false, err // nobody gave up: a real failure
			}
			return false, nil // abandoned
		}
		if rep.From != from || rep.Error != payload {
			return true, fmt.Errorf("%s: got the reply of %q with %d payload bytes", from, rep.From, len(rep.Error))
		}
		return true, nil
	}
	var wg sync.WaitGroup
	var answered, abandoned atomic.Int64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Deadlines from half to one and a half handler waits.
				d := wait/2 + time.Duration(i%11)*wait/10
				ctx, cancel := WithCallTimeout(context.Background(), d), context.CancelFunc(func() {})
				if i%2 == 0 {
					ctx, cancel = context.WithTimeout(context.Background(), d)
				}
				ok, err := call(ctx, wire.KindHeartbeat, fmt.Sprintf("c%d-%d", c, i))
				cancel()
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					answered.Add(1)
				} else {
					abandoned.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	t.Logf("answered %d, abandoned %d", answered.Load(), abandoned.Load())

	for i := 0; i < 20; i++ {
		if ok, err := call(context.Background(), wire.KindAck, fmt.Sprintf("after-%d", i)); err != nil || !ok {
			t.Fatalf("call %d after the abandoned ones: answered=%v err=%v", i, ok, err)
		}
	}
	client.mu.Lock()
	pc := client.pool[addr].conns[0]
	client.mu.Unlock()
	pc.mu.Lock()
	pending := len(pc.pending)
	pc.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d request slots still pending on an idle connection", pending)
	}
	if d := client.Stats().Dials; d != 0 {
		t.Errorf("abandoned calls cost %d redials; the connection should have stayed usable", d)
	}
}

// TestCloseLeavesNoGoroutines: once the listener and the transports are
// closed, the accept loop, connection readers, handler workers, pooled
// connections' readers and the reaper are all gone.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := NewTCP()
	addr := freeAddr(t)
	release := make(chan struct{})
	var held atomic.Int64
	closer, err := srv.Listen(addr, func(m *wire.Message) *wire.Message {
		if m.Kind == wire.KindHeartbeat {
			held.Add(1)
			<-release // hold a crowd of workers at once
		}
		return &wire.Message{Kind: wire.KindAck, From: "srv"}
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &TCP{IdleTimeout: 20 * time.Millisecond} // the reaper notices a drained pool at once
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Call(addr, &wire.Message{Kind: wire.KindHeartbeat}); err != nil {
				t.Error(err)
			}
		}()
	}
	for held.Load() < 24 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	// The workers are parked now; reuse a few.
	for i := 0; i < 10; i++ {
		if _, err := client.Call(addr, &wire.Message{Kind: wire.KindAck}); err != nil {
			t.Fatal(err)
		}
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	client.Close()
	srv.Close()
	settleGoroutines(t, base, "closed TCP listener and transports")
}

// TestWorkersAreReused: sequential requests run on a few warm workers, not
// on a goroutine each (a request that arrives before the last worker has
// parked again starts one more, so the count is small rather than one),
// and a handler that blocks takes a worker of its own instead of blocking
// the connection's reader.
func TestWorkersAreReused(t *testing.T) {
	var mu sync.Mutex
	served := map[string]int{} // handler calls per goroutine
	calls := func() (n int) {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range served {
			n += c
		}
		return n
	}
	block := make(chan struct{})
	handler := func(m *wire.Message) *wire.Message {
		buf := make([]byte, 64)
		buf = buf[:runtime.Stack(buf, false)]
		id := strings.Fields(string(buf))[1] // "goroutine N [running]:"
		mu.Lock()
		served[id]++
		mu.Unlock()
		if m.Kind == wire.KindHeartbeat {
			<-block
		}
		return &wire.Message{Kind: wire.KindAck}
	}
	client, addr, _, _ := countedPair(t, handler)
	const sequential = 100
	for i := 0; i < sequential; i++ {
		if _, err := client.Call(addr, &wire.Message{Kind: wire.KindAck}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	warm := len(served)
	mu.Unlock()
	if warm > sequential/10 {
		t.Errorf("%d sequential requests ran on %d goroutines; want a few warm workers", sequential, warm)
	}

	stalled := make(chan error, 1)
	go func() {
		_, err := client.Call(addr, &wire.Message{Kind: wire.KindHeartbeat})
		stalled <- err
	}()
	for calls() < sequential+1 { // until the stalled handler holds a worker
		time.Sleep(time.Millisecond)
	}
	if _, err := client.Call(addr, &wire.Message{Kind: wire.KindAck}); err != nil {
		t.Fatalf("a request behind a stalled handler on the same connection: %v", err)
	}
	close(block)
	if err := <-stalled; err != nil {
		t.Fatal(err)
	}
}
