package transport

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"roads/internal/wire"
)

// benchPeers starts n echo servers on their own transport instance (so the
// client transport's counters measure only the calling side) and returns
// their addresses.
func benchPeers(b *testing.B, n int) []string {
	b.Helper()
	srv := NewTCP()
	addrs := make([]string, n)
	for i := range addrs {
		addr := freeAddrB(b)
		closer, err := srv.Listen(addr, echoHandler(fmt.Sprintf("srv%d", i)))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { closer.Close() })
		addrs[i] = addr
	}
	b.Cleanup(func() { srv.Close() })
	return addrs
}

func freeAddrB(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// benchCluster returns a client and the addresses of 16 echo peers: for
// the legacy baseline a dial-per-call client against real listeners, for
// the pooled path connsPerPeer warm connections per peer whose ends count
// their writes (writes is nil for the baseline).
func benchCluster(b *testing.B, noPool bool, connsPerPeer int) (client *TCP, addrs []string, writes func() int64) {
	b.Helper()
	const peers = 16
	if noPool {
		client = &TCP{NoPool: true}
		b.Cleanup(func() { client.Close() })
		return client, benchPeers(b, peers), nil
	}
	client = &TCP{MaxConnsPerPeer: connsPerPeer}
	srv := NewTCP()
	var counters []*atomic.Int64
	for i := 0; i < peers; i++ {
		addr, cw, sw := countedPeer(b, client, srv, echoHandler(fmt.Sprintf("srv%d", i)), connsPerPeer)
		addrs = append(addrs, addr)
		counters = append(counters, cw, sw)
	}
	return client, addrs, func() (n int64) {
		for _, c := range counters {
			n += c.Load()
		}
		return n
	}
}

// BenchmarkTCPCall compares the legacy dial-per-call baseline against the
// pooled multiplexed path across a 16-peer cluster, round-robining the
// destination like overlay maintenance traffic does. The reported
// conns/op and wirebytes/op come from the transport's own counters,
// writes/op (both directions: 2 means one write per frame) from the
// counting connections of the pooled path.
func BenchmarkTCPCall(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noPool bool
	}{
		{"perdial", true},
		{"pooled", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			client, addrs, writes := benchCluster(b, mode.noPool, 1)
			msg := &wire.Message{Kind: wire.KindHeartbeat, From: "bench"}
			// Warm the pool so dials amortize like a long-lived server.
			for _, a := range addrs {
				if _, err := client.Call(a, msg); err != nil {
					b.Fatal(err)
				}
			}
			start := client.Stats()
			var startWrites int64
			if writes != nil {
				startWrites = writes()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Call(addrs[i%len(addrs)], msg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := client.Stats()
			b.ReportMetric(float64(st.Dials-start.Dials)/float64(b.N), "conns/op")
			b.ReportMetric(float64(st.BytesSent-start.BytesSent+st.BytesRecv-start.BytesRecv)/float64(b.N), "wirebytes/op")
			if writes != nil {
				b.ReportMetric(float64(writes()-startWrites)/float64(b.N), "writes/op")
			}
		})
	}
}

// BenchmarkTCPCallParallel is the same comparison under concurrency: the
// pooled path multiplexes over a few sockets per peer, the baseline opens
// one per in-flight call.
func BenchmarkTCPCallParallel(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noPool bool
	}{
		{"perdial", true},
		{"pooled", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			client, addrs, writes := benchCluster(b, mode.noPool, 4)
			msg := &wire.Message{Kind: wire.KindHeartbeat, From: "bench"}
			for _, a := range addrs {
				if _, err := client.Call(a, msg); err != nil {
					b.Fatal(err)
				}
			}
			var startWrites int64
			if writes != nil {
				startWrites = writes()
			}
			b.ReportAllocs()
			b.ResetTimer()
			var i atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := i.Add(1)
					if _, err := client.Call(addrs[int(n)%len(addrs)], msg); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			if writes != nil {
				b.ReportMetric(float64(writes()-startWrites)/float64(b.N), "writes/op")
			}
		})
	}
}
