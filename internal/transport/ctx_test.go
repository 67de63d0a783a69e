package transport

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"roads/internal/wire"
)

// settleGoroutines polls until the goroutine count returns to within slack
// of base, failing the test if it never does — a coarse but dependency-free
// leak check.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s leaked goroutines: %d running, started with %d", what, n, base)
}

// TestChanCallContextStalledHandler is the regression test for the
// unbounded Chan.Call wait: an in-process peer that never replies used to
// pin the calling goroutine forever. With a context the caller must come
// back by the deadline, and the abandoned call must not leak goroutines
// once the handler is released.
func TestChanCallContextStalledHandler(t *testing.T) {
	tr := NewChan()
	release := make(chan struct{})
	if _, err := tr.Listen("stall", func(m *wire.Message) *wire.Message {
		<-release
		return &wire.Message{Kind: wire.KindAck, From: "stall"}
	}); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.CallContext(ctx, "stall", &wire.Message{Kind: wire.KindAck, From: "c"})
	if err == nil {
		t.Fatal("call against a stalled handler must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("caller stayed pinned %v; want release near the 50ms deadline", el)
	}

	close(release) // let the abandoned handler finish
	settleGoroutines(t, base, "Chan stalled call")
}

// TestChanCallContextCancel checks explicit cancellation (not just
// deadline expiry) releases the caller.
func TestChanCallContextCancel(t *testing.T) {
	tr := NewChan()
	release := make(chan struct{})
	defer close(release)
	if _, err := tr.Listen("stall", func(m *wire.Message) *wire.Message {
		<-release
		return &wire.Message{Kind: wire.KindAck}
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := tr.CallContext(ctx, "stall", &wire.Message{Kind: wire.KindAck})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not release the caller")
	}
}

// TestChanCallBackgroundStillInline ensures the no-deadline path kept its
// synchronous semantics: the handler runs on the caller's goroutine.
func TestChanCallBackgroundStillInline(t *testing.T) {
	tr := NewChan()
	var handlerG int
	if _, err := tr.Listen("a", func(m *wire.Message) *wire.Message {
		handlerG = runtime.NumGoroutine()
		return &wire.Message{Kind: wire.KindAck, From: "a"}
	}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := tr.Call("a", &wire.Message{Kind: wire.KindAck}); err != nil {
		t.Fatal(err)
	}
	if handlerG > before+1 {
		t.Fatalf("background Call spawned goroutines: %d during vs %d before", handlerG, before)
	}
}

// TestTCPCallContextStalledHandler: a TCP peer that accepts the request
// but never replies must not hold the caller past its deadline, on the
// pooled path.
func TestTCPCallContextStalledHandler(t *testing.T) {
	srv := NewTCP()
	release := make(chan struct{})
	addr := freeAddr(t)
	closer, err := srv.Listen(addr, func(m *wire.Message) *wire.Message {
		<-release
		return &wire.Message{Kind: wire.KindAck, From: "stall"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	defer close(release)

	tr := NewTCP()
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, cerr := tr.CallContext(ctx, addr, &wire.Message{Kind: wire.KindAck, From: "c"})
	if cerr == nil {
		t.Fatal("call against a stalled TCP handler must fail")
	}
	if !errors.Is(cerr, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", cerr)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("caller stayed pinned %v; want release near the 100ms deadline", el)
	}
}

// TestTCPCancelDoesNotPoisonConnection: abandoning one call must leave the
// pooled connection healthy — the late reply is discarded and subsequent
// calls on the same connection succeed without a redial — whether the wait
// was ended by the context's own deadline or by a call timeout riding on a
// context that cannot be cancelled.
func TestTCPCancelDoesNotPoisonConnection(t *testing.T) {
	const wait = 50 * time.Millisecond
	for _, tc := range []struct {
		name  string
		bound func() (context.Context, context.CancelFunc)
	}{
		{"context deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), wait)
		}},
		{"call timeout", func() (context.Context, context.CancelFunc) {
			return WithCallTimeout(context.Background(), wait), func() {}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewTCP()
			slow := make(chan struct{})
			addr := freeAddr(t)
			closer, err := srv.Listen(addr, func(m *wire.Message) *wire.Message {
				if m.Kind == wire.KindHeartbeat {
					<-slow // only heartbeats stall
				}
				return &wire.Message{Kind: wire.KindAck, From: "srv"}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer closer.Close()

			tr := NewTCP()
			defer tr.Close()
			// Prime the pool.
			if _, err := tr.Call(addr, &wire.Message{Kind: wire.KindAck}); err != nil {
				t.Fatal(err)
			}
			dialsBefore := tr.Stats().Dials

			ctx, cancel := tc.bound()
			start := time.Now()
			_, cerr := tr.CallContext(ctx, addr, &wire.Message{Kind: wire.KindHeartbeat})
			el := time.Since(start)
			cancel()
			if !errors.Is(cerr, context.DeadlineExceeded) {
				t.Fatalf("stalled call returned %v; want DeadlineExceeded", cerr)
			}
			if el < wait || el > wait+5*time.Second {
				t.Fatalf("stalled call returned after %v; want near %v", el, wait)
			}
			close(slow) // the late reply now flows; it must be discarded harmlessly

			for i := 0; i < 5; i++ {
				if _, err := tr.Call(addr, &wire.Message{Kind: wire.KindAck}); err != nil {
					t.Fatalf("call %d after abandoned call failed: %v", i, err)
				}
			}
			if d := tr.Stats().Dials; d != dialsBefore {
				t.Fatalf("abandoned call poisoned the pool: %d dials, want %d", d, dialsBefore)
			}
		})
	}
}
