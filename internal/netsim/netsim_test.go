package netsim

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(ConstLatency(0))
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	end := s.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("final time = %v; want 30ms", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v; want [1 2 3]", order)
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	s := New(ConstLatency(0))
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New(ConstLatency(0))
	var hit time.Duration
	s.After(10*time.Millisecond, func() {
		s.After(5*time.Millisecond, func() {
			hit = s.now
		})
	})
	s.Run()
	if hit != 15*time.Millisecond {
		t.Fatalf("nested event ran at %v; want 15ms", hit)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	s := New(ConstLatency(0))
	ran := false
	s.At(10*time.Millisecond, func() {
		s.At(5*time.Millisecond, func() { ran = true }) // in the past
	})
	end := s.Run()
	if !ran {
		t.Fatal("past-scheduled event must still run")
	}
	if end != 10*time.Millisecond {
		t.Fatalf("final time = %v; want 10ms (clamped)", end)
	}
	s2 := New(ConstLatency(0))
	s2.After(-5*time.Millisecond, func() {})
	s2.Run() // negative delay clamps to 0; must not panic
}

func TestSendAccountsAndDelivers(t *testing.T) {
	s := New(ConstLatency(7 * time.Millisecond))
	var deliveredAt time.Duration
	s.Send(0, 1, Query, 100, func() { deliveredAt = s.now })
	s.Run()
	if deliveredAt != 7*time.Millisecond {
		t.Fatalf("delivered at %v; want 7ms", deliveredAt)
	}
	if s.Stats.Bytes[Query] != 100 || s.Stats.Messages[Query] != 1 {
		t.Fatalf("query stats = %d bytes / %d msgs; want 100/1", s.Stats.Bytes[Query], s.Stats.Messages[Query])
	}
}

func TestSendNilDeliver(t *testing.T) {
	s := New(ConstLatency(time.Millisecond))
	s.Send(0, 1, Update, 42, nil)
	if s.Pending() != 0 {
		t.Fatal("nil deliver must not schedule an event")
	}
	if s.Stats.Bytes[Update] != 42 {
		t.Fatal("bytes must still be accounted")
	}
}

func TestAccountAndTotals(t *testing.T) {
	s := New(ConstLatency(0))
	s.Account(Update, 10)
	s.Account(Query, 20)
	s.Account(Response, 30)
	if got := s.Stats.TotalBytes(); got != 60 {
		t.Fatalf("TotalBytes = %d; want 60", got)
	}
	s.ResetStats()
	if s.Stats.TotalBytes() != 0 {
		t.Fatal("ResetStats must zero counters")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(ConstLatency(0))
	var ran []int
	s.At(10*time.Millisecond, func() { ran = append(ran, 1) })
	s.At(20*time.Millisecond, func() { ran = append(ran, 2) })
	s.RunUntil(15 * time.Millisecond)
	if len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("RunUntil ran %v; want [1]", ran)
	}
	if s.now != 15*time.Millisecond {
		t.Fatalf("now = %v; want 15ms", s.now)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d; want 1", s.Pending())
	}
	s.Run()
	if len(ran) != 2 {
		t.Fatal("remaining event must run on Run()")
	}
}

func TestConstLatencySelf(t *testing.T) {
	c := ConstLatency(9 * time.Millisecond)
	if c.Latency(3, 3) != 0 {
		t.Fatal("self latency must be 0")
	}
	if c.Latency(1, 2) != 9*time.Millisecond {
		t.Fatal("pair latency must be the constant")
	}
}

func TestMsgClassString(t *testing.T) {
	for c, want := range map[MsgClass]string{Update: "update", Query: "query", Response: "response"} {
		if c.String() != want {
			t.Fatalf("%d.String() = %q; want %q", c, c.String(), want)
		}
	}
}

func TestBandwidthTransferTime(t *testing.T) {
	s := New(ConstLatency(10 * time.Millisecond))
	if s.TransferTime(1000) != 0 {
		t.Fatal("zero bandwidth means no transfer delay")
	}
	s.Bandwidth = 1e6 // 1 MB/s
	if got := s.TransferTime(1e6); got != time.Second {
		t.Fatalf("TransferTime(1MB @1MB/s) = %v; want 1s", got)
	}
	if s.TransferTime(0) != 0 || s.TransferTime(-5) != 0 {
		t.Fatal("non-positive sizes transfer instantly")
	}
	var deliveredAt time.Duration
	s.Send(0, 1, Query, 500000, func() { deliveredAt = s.now })
	s.Run()
	want := 10*time.Millisecond + 500*time.Millisecond
	if deliveredAt != want {
		t.Fatalf("delivered at %v; want %v (latency + transfer)", deliveredAt, want)
	}
}
