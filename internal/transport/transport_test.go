package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"roads/internal/wire"
)

func echoHandler(id string) Handler {
	return func(m *wire.Message) *wire.Message {
		return &wire.Message{Kind: wire.KindAck, From: id, Addr: m.Addr}
	}
}

func TestChanCallRoundTrip(t *testing.T) {
	tr := NewChan()
	closer, err := tr.Listen("a", echoHandler("srv-a"))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	rep, err := tr.Call("a", &wire.Message{Kind: wire.KindHeartbeat, From: "client"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != wire.KindAck || rep.From != "srv-a" {
		t.Fatalf("unexpected reply %+v", rep)
	}
	if tr.BytesMoved() <= 0 {
		t.Fatal("bytes must be counted")
	}
}

func TestChanNoServer(t *testing.T) {
	tr := NewChan()
	if _, err := tr.Call("ghost", &wire.Message{Kind: wire.KindAck}); err == nil {
		t.Fatal("calling an unregistered address must fail")
	}
}

func TestChanDuplicateListen(t *testing.T) {
	tr := NewChan()
	c1, err := tr.Listen("a", echoHandler("1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("a", echoHandler("2")); err == nil {
		t.Fatal("duplicate listen must fail")
	}
	c1.Close()
	c2, err := tr.Listen("a", echoHandler("3"))
	if err != nil {
		t.Fatalf("listen after close must succeed: %v", err)
	}
	c2.Close()
}

func TestChanNoSharedPointers(t *testing.T) {
	tr := NewChan()
	var received *wire.Message
	closer, _ := tr.Listen("a", func(m *wire.Message) *wire.Message {
		received = m
		return &wire.Message{Kind: wire.KindAck}
	})
	defer closer.Close()
	req := &wire.Message{Kind: wire.KindJoin, Join: &wire.Join{ID: "x"}}
	if _, err := tr.Call("a", req); err != nil {
		t.Fatal(err)
	}
	if received == req || received.Join == req.Join {
		t.Fatal("in-process transport must not share pointers (must round-trip encoding)")
	}
}

func TestChanLatencyInjection(t *testing.T) {
	tr := NewChan()
	tr.Latency = func(from, to string) time.Duration { return 10 * time.Millisecond }
	closer, _ := tr.Listen("a", echoHandler("srv"))
	defer closer.Close()
	start := time.Now()
	if _, err := tr.Call("a", &wire.Message{Kind: wire.KindAck}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("round trip %v; want >= 20ms with injected latency", elapsed)
	}
}

func TestChanConcurrentCalls(t *testing.T) {
	tr := NewChan()
	closer, _ := tr.Listen("a", echoHandler("srv"))
	defer closer.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tr.Call("a", &wire.Message{Kind: wire.KindAck})
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
}

func TestTCPRoundTrip(t *testing.T) {
	tr := NewTCP()
	addr := freeAddr(t)
	closer, err := tr.Listen(addr, echoHandler("tcp-srv"))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	rep, err := tr.Call(addr, &wire.Message{Kind: wire.KindHeartbeat, From: "client"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != wire.KindAck || rep.From != "tcp-srv" {
		t.Fatalf("unexpected reply %+v", rep)
	}
}

func TestTCPConcurrent(t *testing.T) {
	tr := NewTCP()
	addr := freeAddr(t)
	closer, err := tr.Listen(addr, echoHandler("tcp-srv"))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
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
}

func TestTCPDialFailure(t *testing.T) {
	tr := &TCP{DialTimeout: 200 * time.Millisecond}
	if _, err := tr.Call("127.0.0.1:1", &wire.Message{Kind: wire.KindAck}); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}

func TestTCPListenerClose(t *testing.T) {
	tr := NewTCP()
	addr := freeAddr(t)
	closer, err := tr.Listen(addr, echoHandler("srv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	tr2 := &TCP{DialTimeout: 200 * time.Millisecond, CallTimeout: 200 * time.Millisecond}
	if _, err := tr2.Call(addr, &wire.Message{Kind: wire.KindAck}); err == nil {
		t.Fatal("call after close must fail")
	}
}

// freeAddr grabs an available loopback port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestChanAddrs(t *testing.T) {
	tr := NewChan()
	for i := 0; i < 3; i++ {
		if _, err := tr.Listen(fmt.Sprintf("a%d", i), echoHandler("x")); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Addrs()) != 3 {
		t.Fatalf("Addrs = %v", tr.Addrs())
	}
}
