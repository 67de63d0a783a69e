// Package netsim is a discrete-event network simulator: a virtual clock, an
// event queue, and per-message byte accounting split into the traffic
// classes the paper measures (resource updates, query forwarding and
// responses). The SWORD and centralized baselines run on it, and its
// latency model prices the redirect trees of the live ROADS servers the
// figures measure, so their latency and overhead numbers are directly
// comparable.
package netsim

import (
	"container/heap"
	"fmt"
	"time"
)

// MsgClass categorizes traffic for overhead accounting.
type MsgClass uint8

const (
	// Update covers resource data propagation: summary exports, bottom-up
	// aggregation, overlay replication, and (for the baselines) raw record
	// registration.
	Update MsgClass = iota
	// Query covers query forwarding messages.
	Query
	// Response covers redirects and result returns.
	Response
	numClasses
)

func (c MsgClass) String() string {
	switch c {
	case Update:
		return "update"
	case Query:
		return "query"
	case Response:
		return "response"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // tie-break so equal-time events run FIFO (determinism)
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Latency maps a pair of host indices to a one-way delay.
type Latency interface {
	Latency(from, to int) time.Duration
}

// Stats accumulates traffic counters per class.
type Stats struct {
	Bytes    [numClasses]int64
	Messages [numClasses]int64
}

// Add records one message of the given class and size.
func (s *Stats) Add(c MsgClass, bytes int) {
	s.Bytes[c] += int64(bytes)
	s.Messages[c]++
}

// TotalBytes sums bytes across all classes.
func (s *Stats) TotalBytes() int64 {
	var t int64
	for _, b := range s.Bytes {
		t += b
	}
	return t
}

// Sim is the discrete-event simulator. It is single-goroutine: events run
// sequentially in virtual-time order, so handlers need no locking.
type Sim struct {
	now   time.Duration
	seq   uint64
	queue eventQueue
	net   Latency
	Stats Stats
	// Bandwidth, when positive, models link capacity in bytes/second:
	// message delivery takes latency + size/Bandwidth. Zero means
	// infinite capacity (pure propagation delay), the paper's model.
	Bandwidth float64
}

// New creates a simulator over the given latency model.
func New(net Latency) *Sim {
	return &Sim{net: net}
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Send accounts a message of class c and size bytes from host `from` to
// host `to`, and schedules deliver to run after the pairwise latency plus
// any transfer time. deliver may be nil for fire-and-forget accounting.
func (s *Sim) Send(from, to int, c MsgClass, bytes int, deliver func()) {
	s.Stats.Add(c, bytes)
	lat := s.net.Latency(from, to) + s.TransferTime(bytes)
	if deliver != nil {
		s.After(lat, deliver)
	}
}

// TransferTime returns the serialization delay of a message of the given
// size under the configured bandwidth (zero when bandwidth is unlimited).
func (s *Sim) TransferTime(bytes int) time.Duration {
	if s.Bandwidth <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / s.Bandwidth * float64(time.Second))
}

// Account records traffic without scheduling delivery — used for periodic
// background flows (e.g. per-second update overhead) whose timing is
// analyzed rather than simulated.
func (s *Sim) Account(c MsgClass, bytes int) {
	s.Stats.Add(c, bytes)
}

// LatencyBetween exposes the underlying latency model.
func (s *Sim) LatencyBetween(from, to int) time.Duration {
	return s.net.Latency(from, to)
}

// Run drains the event queue, advancing virtual time. It returns the final
// virtual time.
func (s *Sim) Run() time.Duration {
	for s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(*event)
		s.now = e.at
		e.fn()
	}
	return s.now
}

// RunUntil processes events up to and including virtual time t, leaving
// later events queued. The clock ends at t.
func (s *Sim) RunUntil(t time.Duration) {
	for s.queue.Len() > 0 && s.queue[0].at <= t {
		e := heap.Pop(&s.queue).(*event)
		s.now = e.at
		e.fn()
	}
	if s.now < t {
		s.now = t
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.queue.Len() }

// ResetStats zeroes the traffic counters (virtual time is preserved).
func (s *Sim) ResetStats() { s.Stats = Stats{} }

// ConstLatency is a trivial latency model for tests: every distinct pair
// has the same delay.
type ConstLatency time.Duration

// Latency implements the Latency interface.
func (c ConstLatency) Latency(from, to int) time.Duration {
	if from == to {
		return 0
	}
	return time.Duration(c)
}
