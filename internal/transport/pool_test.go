package transport

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"roads/internal/wire"
)

// TestTCPPoolReuse verifies that sequential calls to one peer share a
// single pooled connection and that the counters record it.
func TestTCPPoolReuse(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr := freeAddr(t)
	closer, err := tr.Listen(addr, echoHandler("srv"))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := tr.Call(addr, &wire.Message{Kind: wire.KindAck}); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Stats()
	if st.Dials != 1 {
		t.Fatalf("dials = %d; want 1 (connection must be pooled)", st.Dials)
	}
	if st.Reuses != calls-1 {
		t.Fatalf("reuses = %d; want %d", st.Reuses, calls-1)
	}
	if st.Calls != calls {
		t.Fatalf("calls = %d; want %d", st.Calls, calls)
	}
	if st.BytesSent == 0 || st.BytesRecv == 0 {
		t.Fatalf("bytes not counted: %+v", st)
	}
	if st.Latency.N() != calls {
		t.Fatalf("latency histogram holds %d observations; want %d", st.Latency.N(), calls)
	}
	if p := st.Latency.Percentile(0.5); p <= 0 {
		t.Fatalf("p50 = %v; want > 0", p)
	}
}

// TestTCPMultiplexedConcurrency floods one peer with concurrent calls:
// they must multiplex over at most MaxConnsPerPeer connections and all
// succeed.
func TestTCPMultiplexedConcurrency(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr := freeAddr(t)
	slow := func(m *wire.Message) *wire.Message {
		time.Sleep(2 * time.Millisecond) // force overlap so calls share conns
		return &wire.Message{Kind: wire.KindAck, From: "srv"}
	}
	closer, err := tr.Listen(addr, slow)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tr.Call(addr, &wire.Message{Kind: wire.KindAck})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := tr.Stats(); st.Dials > uint64(tr.maxConnsPerPeer()) {
		t.Fatalf("dials = %d; want <= %d (multiplexing must bound the pool)", st.Dials, tr.maxConnsPerPeer())
	}
}

// TestTCPStaleConnRetry kills the pooled connection out from under the
// transport; the next call must notice the stale connection and succeed by
// retrying once on a fresh dial.
func TestTCPStaleConnRetry(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr := freeAddr(t)
	closer, err := tr.Listen(addr, echoHandler("srv"))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if _, err := tr.Call(addr, &wire.Message{Kind: wire.KindAck}); err != nil {
		t.Fatal(err)
	}
	// Sever the pooled connection at the socket, simulating a peer that
	// dropped it (restart, idle reap on the remote side).
	tr.mu.Lock()
	if tr.pool[addr] == nil || len(tr.pool[addr].conns) != 1 {
		tr.mu.Unlock()
		t.Fatal("expected 1 pooled conn")
	}
	pc := tr.pool[addr].conns[0]
	tr.mu.Unlock()
	pc.conn.Close()

	if _, err := tr.Call(addr, &wire.Message{Kind: wire.KindAck}); err != nil {
		t.Fatalf("call after stale conn must retry and succeed: %v", err)
	}
	if st := tr.Stats(); st.Retries == 0 && st.Dials < 2 {
		t.Fatalf("expected a retry or a fresh dial, got %+v", st)
	}
}

// TestTCPRejectsForeignStreams: a listener speaks one frame format and one
// codec version. A stream that opens with anything else (here the deleted v1
// frame: a bare 4-byte length) is closed without a reply, and a well-framed
// request whose payload is not in this codec version is answered with the
// decode error, on a connection that stays usable.
func TestTCPRejectsForeignStreams(t *testing.T) {
	srvTr := NewTCP()
	defer srvTr.Close()
	addr := freeAddr(t)
	closer, err := srvTr.Listen(addr, echoHandler("srv"))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	v1 := append([]byte{0, 0, 0, 16}, make([]byte, 16)...)
	if _, err := conn.Write(v1); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("listener answered a v1 frame with %d bytes; want the connection closed", n)
	}

	frame, err := wire.AppendEncode(make([]byte, headerV2Len), &wire.Message{Kind: wire.KindHeartbeat, From: "old"})
	if err != nil {
		t.Fatal(err)
	}
	frame[headerV2Len+1]-- // the codec version byte, one behind
	if err := sealFrame(frame, 7, 0); err != nil {
		t.Fatal(err)
	}
	conn2, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	_ = conn2.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn2.Write(frame); err != nil {
		t.Fatal(err)
	}
	id, flags, payload, err := readFrameV2(bufio.NewReader(conn2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.Decode(*payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || flags&flagResponse == 0 || rep.Kind != wire.KindError || !strings.Contains(rep.Error, "codec version") {
		t.Fatalf("reply to an old-version payload: id=%d flags=%x %+v; want a KindError naming the codec version", id, flags, rep)
	}
}

// TestSealFrameOversize verifies the sender rejects an oversize frame
// instead of writing it and corrupting the stream.
func TestSealFrameOversize(t *testing.T) {
	if err := sealFrame(make([]byte, headerV2Len+maxFrame+1), 1, 0); err == nil {
		t.Fatal("sender must reject an oversize frame before writing it")
	}
}

// TestReadFrameV2Oversize is the receiver direction: a v2 header claiming
// more than maxFrame must be rejected before any allocation.
func TestReadFrameV2Oversize(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, headerV2Len)
	hdr[0] = frameMagic
	hdr[1] = frameVersion
	hdr[12], hdr[13], hdr[14], hdr[15] = 0xFF, 0xFF, 0xFF, 0xFF
	buf.Write(hdr)
	if _, _, _, err := readFrameV2(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversize v2 frame must be rejected")
	}
}

// TestReadFrameV2BadMagic rejects streams that are neither v1 nor v2.
func TestReadFrameV2BadMagic(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(bytes.Repeat([]byte{'X'}, headerV2Len))
	if _, _, _, err := readFrameV2(bufio.NewReader(&buf)); err == nil {
		t.Fatal("bad magic must be rejected")
	}
}

// TestTCPIdleReap shrinks the idle window and checks the reaper closes the
// pooled connection, after which a fresh call dials anew.
func TestTCPIdleReap(t *testing.T) {
	tr := &TCP{IdleTimeout: 50 * time.Millisecond}
	defer tr.Close()
	addr := freeAddr(t)
	closer, err := tr.Listen(addr, echoHandler("srv"))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if _, err := tr.Call(addr, &wire.Message{Kind: wire.KindAck}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		tr.mu.Lock()
		n := len(tr.pool)
		tr.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection was never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := tr.Call(addr, &wire.Message{Kind: wire.KindAck}); err != nil {
		t.Fatalf("call after reap must redial: %v", err)
	}
	if st := tr.Stats(); st.Dials != 2 {
		t.Fatalf("dials = %d; want 2 (one before, one after the reap)", st.Dials)
	}
}

// TestTCPCallOversizeMessage rejects a message that encodes past the frame
// limit before any bytes hit the network.
func TestTCPCallOversizeMessage(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	big := &wire.Message{Kind: wire.KindError, Error: strings.Repeat("x", maxFrame+1)}
	if _, err := tr.Call("127.0.0.1:1", big); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("oversize message must fail at the writer, got %v", err)
	}
}

// TestTCPListenerCloseUnblocksSessions ensures Close tears down live v2
// sessions (tracked conns are closed), so Close never hangs on an idle
// pooled peer.
func TestTCPListenerCloseUnblocksSessions(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr := freeAddr(t)
	closer, err := tr.Listen(addr, echoHandler("srv"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(addr, &wire.Message{Kind: wire.KindAck}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		closer.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle multiplexed session")
	}
}

// TestChanStats exercises the in-process transport's counters so both
// implementations satisfy Statser equivalently.
func TestChanStats(t *testing.T) {
	tr := NewChan()
	closer, err := tr.Listen("a", echoHandler("srv"))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if _, err := tr.Call("a", &wire.Message{Kind: wire.KindAck}); err != nil {
		t.Fatal(err)
	}
	_, _ = tr.Call("ghost", &wire.Message{Kind: wire.KindAck})
	st := tr.Stats()
	if st.Calls != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v; want 1 call, 1 error", st)
	}
	if st.BytesSent == 0 || st.BytesRecv == 0 {
		t.Fatalf("bytes not counted: %+v", st)
	}
	if tr.BytesMoved() != int64(st.BytesSent+st.BytesRecv) {
		t.Fatal("BytesMoved must equal sent+received")
	}
}

// TestLatencyHistPercentile pins the histogram quantile behaviour.
func TestLatencyHistPercentile(t *testing.T) {
	var c counters
	for i := 0; i < 99; i++ {
		c.observe(200 * time.Microsecond)
	}
	c.observe(2 * time.Second)
	h := c.snapshot().Latency
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if p := h.Percentile(0.50); p != 250*time.Microsecond {
		t.Fatalf("p50 = %v; want 250µs bucket bound", p)
	}
	if p := h.Percentile(0.999); p < time.Second {
		t.Fatalf("p99.9 = %v; want the multi-second bucket", p)
	}
	if (LatencyHist{}).Percentile(0.5) != 0 {
		t.Fatal("empty histogram must report zero")
	}
}
