package transport

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"roads/internal/obs"
	"roads/internal/wire"
)

// FaultAction is what a matched rule does to a call.
type FaultAction uint8

const (
	// FaultDrop black-holes the request: the call blocks until the
	// caller's context or call timeout expires (bounded by MaxBlackhole)
	// and then fails.
	// The peer never sees the message, so a From/To pair gives a one-way
	// partition: A→B traffic vanishes while B→A flows normally.
	FaultDrop FaultAction = iota + 1
	// FaultDelay holds the call for Delay, then forwards it normally —
	// enough to push replies past a caller's deadline.
	FaultDelay
	// FaultError fails the call immediately with Err, modelling a peer
	// that resets connections instead of timing them out.
	FaultError
)

func (a FaultAction) String() string {
	switch a {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultError:
		return "error"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// FaultRule declares one injected failure. Zero-valued match fields are
// wildcards, so the empty rule matches every call.
type FaultRule struct {
	// From matches the sender against the message's From or Addr field
	// ("" = any sender). To matches the destination address ("" = any).
	From, To string
	// FromIn/ToIn are set-valued variants of From/To: the sender (resp.
	// destination) must be one of the listed addresses/IDs. Nil means any.
	// A two-sided rule — FromIn one partition side, ToIn the other —
	// severs a whole server set from the rest in a single rule, which is
	// how PartitionSets models a network partition.
	FromIn, ToIn []string
	// Kind restricts the rule to one message kind (0 = all kinds).
	Kind wire.Kind
	// Action selects the fault; Delay and Err parameterize FaultDelay and
	// FaultError respectively.
	Action FaultAction
	Delay  time.Duration
	Err    string
	// P is the probability the rule fires on a matched call, drawn from
	// the transport's seeded RNG (0 means always — the common case).
	P float64
	// OnCalls/OffCalls flap the rule deterministically: counting matched
	// calls, the rule is live for the first OnCalls of every
	// OnCalls+OffCalls cycle and dormant for the rest. Zero OnCalls means
	// always live. Counting calls instead of wall time keeps chaos tests
	// replayable, as long as the matched calls come in a fixed order (see
	// Faulty).
	OnCalls, OffCalls int
}

func (r *FaultRule) matches(addr string, req *wire.Message) bool {
	if r.To != "" && r.To != addr {
		return false
	}
	if r.From != "" && r.From != req.From && r.From != req.Addr {
		return false
	}
	if len(r.ToIn) > 0 && !containsAddr(r.ToIn, addr, "") {
		return false
	}
	if len(r.FromIn) > 0 && !containsAddr(r.FromIn, req.From, req.Addr) {
		return false
	}
	if r.Kind != 0 && r.Kind != req.Kind {
		return false
	}
	return true
}

// containsAddr reports whether set holds a (or the alternate b, when
// non-empty) — the set-membership test behind FromIn/ToIn.
func containsAddr(set []string, a, b string) bool {
	for _, s := range set {
		if s == a || (b != "" && s == b) {
			return true
		}
	}
	return false
}

// Partition returns a rule that black-holes all traffic from→to. Combine
// two (swapped) for a full partition; one alone is a one-way partition.
func Partition(from, to string) FaultRule {
	return FaultRule{From: from, To: to, Action: FaultDrop}
}

// PartitionSets returns the two drop rules that sever server set a from
// server set b in both directions — a full network partition between the
// two sides. Traffic within each side still flows. Heal by removing the
// rules (SetRules/ClearRules).
func PartitionSets(a, b []string) []FaultRule {
	return []FaultRule{
		{FromIn: a, ToIn: b, Action: FaultDrop},
		{FromIn: b, ToIn: a, Action: FaultDrop},
	}
}

// Down returns a rule that black-holes all traffic to addr, simulating an
// unreachable host without tearing its listener down.
func Down(addr string) FaultRule {
	return FaultRule{To: addr, Action: FaultDrop}
}

// Faulty wraps another Transport and injects failures per a declarative
// rule table. All randomness comes from one seeded RNG and flap windows
// count calls rather than wall time, so a chaos run replays exactly given
// the same seed and call order. A server's round pushes to its children at
// once, so its replica batches have no fixed call order: a rule with P or
// OnCalls that matches replica batches does not replay exactly, while rules
// that do not draw or count (Partition, PartitionSets, Down, plain delays
// and errors) do. Listen passes straight through — faults apply only to
// outgoing calls, mirroring how real packet loss is felt by the sender.
type Faulty struct {
	inner Transport
	// MaxBlackhole bounds how long a dropped call blocks when the
	// caller's context carries neither a deadline nor a call timeout
	// (default 2s). Keeps Call — which has no context — from hanging
	// forever on a drop rule.
	MaxBlackhole time.Duration

	mu    sync.Mutex
	rng   *rand.Rand
	rules []FaultRule
	hits  []int // matched-call counts, parallel to rules, for flapping

	dropped, delayed, errored atomic.Uint64
}

// NewFaulty wraps inner with an empty rule table (all calls pass through)
// and an RNG seeded for deterministic replay.
func NewFaulty(inner Transport, seed int64) *Faulty {
	return &Faulty{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// SetRules replaces the rule table (and resets flap counters).
func (f *Faulty) SetRules(rules ...FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append([]FaultRule(nil), rules...)
	f.hits = make([]int, len(f.rules))
}

// AddRule appends one rule to the table.
func (f *Faulty) AddRule(r FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, r)
	f.hits = append(f.hits, 0)
}

// ClearRules drops every rule; the transport becomes a passthrough.
func (f *Faulty) ClearRules() { f.SetRules() }

// Injected reports how many faults each action has fired, for test
// assertions that the chaos actually happened.
func (f *Faulty) Injected() (dropped, delayed, errored uint64) {
	return f.dropped.Load(), f.delayed.Load(), f.errored.Load()
}

// Listen implements Transport by delegating to the wrapped transport.
func (f *Faulty) Listen(addr string, h Handler) (io.Closer, error) {
	return f.inner.Listen(addr, h)
}

// Stats implements Statser when the wrapped transport does.
func (f *Faulty) Stats() Stats {
	if s, ok := f.inner.(Statser); ok {
		return s.Stats()
	}
	return Stats{}
}

// RegisterMetrics implements MetricsRegisterer by forwarding to the
// wrapped transport when it supports registration; otherwise a no-op.
func (f *Faulty) RegisterMetrics(reg *obs.Registry) {
	if m, ok := f.inner.(MetricsRegisterer); ok {
		m.RegisterMetrics(reg)
	}
}

// Call implements Transport.
func (f *Faulty) Call(addr string, req *wire.Message) (*wire.Message, error) {
	return f.CallContext(context.Background(), addr, req)
}

// CallContext implements Transport: the first live matching rule fires,
// then the call proceeds (delay) or fails (drop, error). Injected waits end
// with the caller's context or call timeout, like a wait on a real socket.
func (f *Faulty) CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error) {
	rule, ok := f.pick(addr, req)
	if !ok {
		return f.inner.CallContext(ctx, addr, req)
	}
	deadline := callDeadline(ctx)
	switch rule.Action {
	case FaultDelay:
		f.delayed.Add(1)
		if err := sleepCall(ctx, rule.Delay, deadline); err != nil {
			return nil, fmt.Errorf("transport: call to %s: %w", addr, err)
		}
		if callTimeoutOf(ctx) > 0 {
			// The delay came out of this call's budget: the wrapped
			// transport gets what is left of it, not a fresh one.
			left := time.Until(deadline)
			if left <= 0 {
				return nil, fmt.Errorf("transport: call to %s: %w", addr, context.DeadlineExceeded)
			}
			ctx = WithCallTimeout(ctx, left)
		}
		return f.inner.CallContext(ctx, addr, req)
	case FaultError:
		f.errored.Add(1)
		msg := rule.Err
		if msg == "" {
			msg = "injected fault"
		}
		return nil, fmt.Errorf("transport: call to %s: %s", addr, msg)
	default: // FaultDrop
		f.dropped.Add(1)
		hole := f.MaxBlackhole
		if hole <= 0 {
			hole = 2 * time.Second
		}
		if err := sleepCall(ctx, hole, deadline); err != nil {
			return nil, fmt.Errorf("transport: call to %s: %w", addr, err)
		}
		return nil, fmt.Errorf("transport: call to %s dropped (injected)", addr)
	}
}

// pick returns the first matching rule that is inside its flap window and
// passes its probability draw. Flap counters advance on every match (even
// ones the probability draw skips), keeping windows deterministic.
func (f *Faulty) pick(addr string, req *wire.Message) (FaultRule, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.rules {
		r := &f.rules[i]
		if !r.matches(addr, req) {
			continue
		}
		pos := f.hits[i]
		f.hits[i]++
		if r.OnCalls > 0 && pos%(r.OnCalls+r.OffCalls) >= r.OnCalls {
			continue // dormant phase of the flap cycle
		}
		if r.P > 0 && f.rng.Float64() >= r.P {
			continue
		}
		return *r, true
	}
	return FaultRule{}, false
}
