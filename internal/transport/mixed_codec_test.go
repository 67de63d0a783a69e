package transport

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"roads/internal/wire"
)

// mixedFreeAddr grabs an ephemeral listen address.
func mixedFreeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func mixedEchoHandler(m *wire.Message) *wire.Message {
	return &wire.Message{Kind: wire.KindAck, From: "server", Addr: m.From}
}

// TestMixedCodecPeersOneListener drives one binary-codec TCP listener with
// a legacy gob dialer and a binary dialer concurrently: both must complete
// calls, proving the codec negotiation needs no version handshake.
func TestMixedCodecPeersOneListener(t *testing.T) {
	addr := mixedFreeAddr(t)
	server := NewTCP()
	closer, err := server.Listen(addr, mixedEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	gobPeer := NewTCP()
	gobPeer.UseGob = true
	defer gobPeer.Close()
	binPeer := NewTCP()
	defer binPeer.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 20; i++ {
		for _, tr := range []*TCP{gobPeer, binPeer} {
			wg.Add(1)
			go func(tr *TCP) {
				defer wg.Done()
				rep, err := tr.Call(addr, &wire.Message{Kind: wire.KindStatus, From: "peer"})
				if err != nil {
					errs <- err
					return
				}
				if rep.Kind != wire.KindAck || rep.Addr != "peer" {
					t.Errorf("unexpected reply: %+v", rep)
				}
			}(tr)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLegacyGobPeerGetsGobReply speaks the oldest wire dialect a peer can:
// a raw v1 frame carrying a gob payload, one exchange per connection, with
// no knowledge that a binary codec exists. The listener must answer with a
// gob payload (a binary reply would be undecodable for such a peer).
func TestLegacyGobPeerGetsGobReply(t *testing.T) {
	addr := mixedFreeAddr(t)
	server := NewTCP()
	closer, err := server.Listen(addr, mixedEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	req, err := wire.EncodeGob(&wire.Message{Kind: wire.KindStatus, From: "ancient"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	rep, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if wire.IsBinary(rep) {
		t.Fatal("listener answered a gob request with a binary payload; legacy peers cannot decode it")
	}
	msg, err := wire.Decode(rep)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != wire.KindAck || msg.Addr != "ancient" {
		t.Fatalf("unexpected reply: %+v", msg)
	}
}

// TestBinaryPeerGetsBinaryReply is the converse: a binary request must be
// answered in binary, not expensively re-gobbed.
func TestBinaryPeerGetsBinaryReply(t *testing.T) {
	addr := mixedFreeAddr(t)
	server := NewTCP()
	closer, err := server.Listen(addr, mixedEchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	frame, err := wire.AppendEncode(make([]byte, headerV2Len), &wire.Message{Kind: wire.KindStatus, From: "modern"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sealFrame(frame, 1, 0); err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	id, flags, rep, err := readFrameV2(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || flags&flagResponse == 0 {
		t.Fatalf("bad response frame: id=%d flags=%x", id, flags)
	}
	if !wire.IsBinary(*rep) {
		t.Fatal("listener answered a binary request with a gob payload")
	}
}
