package transport

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"roads/internal/wire"
)

// benchCluster returns a client with connsPerPeer warm connections to each
// of 16 echo peers, the peers' addresses, and the count of writes both ends
// of those connections have made.
func benchCluster(b *testing.B, connsPerPeer int) (client *TCP, addrs []string, writes func() int64) {
	b.Helper()
	const peers = 16
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

// BenchmarkTCPCall measures one round trip across a 16-peer cluster,
// round-robining the destination like overlay maintenance traffic does. The
// reported conns/op and wirebytes/op come from the transport's own counters,
// writes/op (both directions: 2 means one write per frame) from the counting
// connections. The sub-benchmark keeps the name its archived runs used; the
// dial-per-call baseline arm ended with the v1 frame (EXPERIMENTS.md,
// "Archived baselines").
func BenchmarkTCPCall(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		client, addrs, writes := benchCluster(b, 1)
		msg := &wire.Message{Kind: wire.KindHeartbeat, From: "bench"}
		// Warm the pool so dials amortize like a long-lived server.
		for _, a := range addrs {
			if _, err := client.Call(a, msg); err != nil {
				b.Fatal(err)
			}
		}
		start := client.Stats()
		startWrites := writes()
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
		b.ReportMetric(float64(writes()-startWrites)/float64(b.N), "writes/op")
	})
}

// BenchmarkChanCall measures one in-process round trip — both codec passes
// and the handler — under the two kinds of context a caller can pass: one
// that cannot be cancelled, for which the handler runs on the caller's
// goroutine, and one with a deadline, for which the call starts a goroutine
// and waits on a channel so that it can abandon a handler that never returns.
func BenchmarkChanCall(b *testing.B) {
	for _, mode := range []string{"background", "deadline"} {
		b.Run(mode, func(b *testing.B) {
			tr := NewChan()
			if _, err := tr.Listen("srv", echoHandler("srv")); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if mode == "deadline" {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Hour)
				defer cancel()
			}
			msg := &wire.Message{Kind: wire.KindHeartbeat, From: "bench"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.CallContext(ctx, "srv", msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTCPCallParallel is the same round trip under concurrency: calls
// multiplex over a few sockets per peer.
func BenchmarkTCPCallParallel(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		client, addrs, writes := benchCluster(b, 4)
		msg := &wire.Message{Kind: wire.KindHeartbeat, From: "bench"}
		for _, a := range addrs {
			if _, err := client.Call(a, msg); err != nil {
				b.Fatal(err)
			}
		}
		startWrites := writes()
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
		b.ReportMetric(float64(writes()-startWrites)/float64(b.N), "writes/op")
	})
}
