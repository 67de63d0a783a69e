package transport

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"roads/internal/wire"
)

// TestTightCallerLeavesNoDeadlineBehind alternates callers with a millisecond
// to spend — as a context deadline and as a call timeout — and callers with
// none of their own on one connection. The tight ones may or may not make it;
// the others must, whether the deadline the tight one armed has already
// passed by then or still has a moment to run. (A deadline left armed fails
// the next caller's write at once, or as soon as it passes mid-write.)
func TestTightCallerLeavesNoDeadlineBehind(t *testing.T) {
	client, addr, _, _ := countedPair(t, payloadEcho)
	msg := &wire.Message{Kind: wire.KindAck, From: "c", Error: "payload"}
	for i := 0; i < 200; i++ {
		ctx, cancel := WithCallTimeout(context.Background(), time.Millisecond), context.CancelFunc(func() {})
		if i%4 < 2 {
			ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
		}
		_, err := client.CallContext(ctx, addr, msg)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("tight call %d: %v", i, err)
		}
		if i%2 == 1 {
			time.Sleep(2 * time.Millisecond) // the tight caller's deadline has passed
		}
		if _, err := client.Call(addr, msg); err != nil {
			t.Fatalf("call %d, after a caller with 1ms to spend: %v", i, err)
		}
	}
	if d := client.Stats().Dials; d != 0 {
		t.Errorf("the connection was replaced %d times; want it to have served every call", d)
	}
}

// TestPeerThatStopsReadingIsDetected: the peer answers one call and then
// stops reading; over a pipe, which buffers nothing, the next call's write
// blocks at once, and the write deadline must fail it within CallTimeout.
func TestPeerThatStopsReadingIsDetected(t *testing.T) {
	const callTimeout = 400 * time.Millisecond
	near, far := net.Pipe()
	defer far.Close()
	go func() { // the peer: one reply, then silence
		br := bufio.NewReader(far)
		id, _, frame, err := readFrameV2(br)
		if err != nil {
			return
		}
		wire.PutBuf(frame)
		out, err := encodePooled(&wire.Message{Kind: wire.KindAck, From: "peer"}, headerV2Len)
		if err != nil {
			return
		}
		defer wire.PutBuf(out)
		if sealFrame(*out, id, flagResponse) == nil {
			_, _ = far.Write(*out)
		}
	}()
	client := &TCP{MaxConnsPerPeer: 1, CallTimeout: callTimeout}
	defer client.Close()
	client.mu.Lock()
	client.adoptLocked(client.poolFor("peer"), "peer", near)
	client.mu.Unlock()

	msg := &wire.Message{Kind: wire.KindAck, From: "c"}
	if _, err := client.Call("peer", msg); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := client.Call("peer", msg)
	el := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a call to a peer that stopped reading returned %v; want DeadlineExceeded", err)
	}
	if el < callTimeout/2 || el > callTimeout+5*time.Second {
		t.Errorf("the stalled peer was detected after %v; want near CallTimeout %v", el, callTimeout)
	}
}
