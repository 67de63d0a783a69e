package transport

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"roads/internal/wire"
)

// faultyFixture wires a Faulty wrapper around a Chan transport with two
// listeners, "a" and "b", that ack with their own name.
func faultyFixture(t *testing.T, seed int64) *Faulty {
	t.Helper()
	inner := NewChan()
	for _, id := range []string{"a", "b"} {
		id := id
		if _, err := inner.Listen(id, func(m *wire.Message) *wire.Message {
			return &wire.Message{Kind: wire.KindAck, From: id}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return NewFaulty(inner, seed)
}

func TestFaultyPassthrough(t *testing.T) {
	f := faultyFixture(t, 1)
	rep, err := f.Call("a", &wire.Message{Kind: wire.KindAck, From: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != "a" {
		t.Fatalf("reply from %q, want a", rep.From)
	}
	if d, dl, e := f.Injected(); d+dl+e != 0 {
		t.Fatalf("passthrough injected faults: drop=%d delay=%d err=%d", d, dl, e)
	}
}

// TestFaultyOneWayPartition: a Partition(from,to) rule drops only that
// direction; reverse traffic and other senders are untouched.
func TestFaultyOneWayPartition(t *testing.T) {
	f := faultyFixture(t, 1)
	f.MaxBlackhole = 20 * time.Millisecond
	f.SetRules(Partition("a", "b"))

	// a → b: dropped.
	_, err := f.Call("b", &wire.Message{Kind: wire.KindAck, From: "a"})
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("a→b should drop, got %v", err)
	}
	// b → a: flows.
	if _, err := f.Call("a", &wire.Message{Kind: wire.KindAck, From: "b"}); err != nil {
		t.Fatalf("b→a should flow: %v", err)
	}
	// other → b: flows (rule is pair-specific).
	if _, err := f.Call("b", &wire.Message{Kind: wire.KindAck, From: "c"}); err != nil {
		t.Fatalf("c→b should flow: %v", err)
	}
	if d, _, _ := f.Injected(); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
}

// TestFaultyDropBoundedByContext: a dropped call blocks only until the
// caller's deadline, not the full MaxBlackhole.
func TestFaultyDropBoundedByContext(t *testing.T) {
	f := faultyFixture(t, 1)
	f.MaxBlackhole = 30 * time.Second // must not matter
	f.SetRules(Down("a"))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.CallContext(ctx, "a", &wire.Message{Kind: wire.KindAck, From: "x"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("drop held the caller %v past its 50ms deadline", el)
	}
}

// TestFaultyCallTimeoutBoundsInjectedWaits: under a context nothing can
// cancel, a call timeout ends a black hole and an injected delay when it
// runs out — the peer never sees the request — and a delay it outlasts is
// taken out of what the wrapped transport may then spend.
func TestFaultyCallTimeoutBoundsInjectedWaits(t *testing.T) {
	const timeout = 50 * time.Millisecond
	for _, rule := range []FaultRule{
		{To: "b", Action: FaultDrop},
		{To: "b", Action: FaultDelay, Delay: 5 * time.Minute},
	} {
		f := faultyFixture(t, 1)
		f.MaxBlackhole = 5 * time.Minute
		f.SetRules(rule)
		start := time.Now()
		_, err := f.CallContext(WithCallTimeout(context.Background(), timeout), "b", &wire.Message{Kind: wire.KindAck, From: "a"})
		if el := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || el < timeout || el > timeout+5*time.Second {
			t.Errorf("%v: returned %v after %v; want DeadlineExceeded near %v", rule.Action, err, el, timeout)
		}
		if n := f.Stats().Calls; n != 0 {
			t.Errorf("%v: the wrapped transport made %d calls; want none", rule.Action, n)
		}
	}

	inner := &timeoutRecorder{}
	f := NewFaulty(inner, 1)
	f.SetRules(FaultRule{Action: FaultDelay, Delay: 20 * time.Millisecond})
	if _, err := f.CallContext(WithCallTimeout(context.Background(), time.Minute), "b", &wire.Message{Kind: wire.KindAck}); err != nil {
		t.Fatal(err)
	}
	if inner.got <= 0 || inner.got > time.Minute-20*time.Millisecond {
		t.Errorf("after a 20ms delay the wrapped transport was given a call timeout of %v; want what is left of the minute", inner.got)
	}
}

// timeoutRecorder is a Transport that records the call timeout it is handed.
type timeoutRecorder struct {
	Transport
	got time.Duration
}

func (r *timeoutRecorder) CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error) {
	r.got = callTimeoutOf(ctx)
	return &wire.Message{Kind: wire.KindAck}, nil
}

func TestFaultyDelayElapses(t *testing.T) {
	f := faultyFixture(t, 1)
	f.SetRules(FaultRule{To: "a", Action: FaultDelay, Delay: 60 * time.Millisecond})
	start := time.Now()
	rep, err := f.Call("a", &wire.Message{Kind: wire.KindAck, From: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != "a" {
		t.Fatalf("delayed call must still reach the peer, got reply from %q", rep.From)
	}
	if el := time.Since(start); el < 60*time.Millisecond {
		t.Fatalf("call returned in %v, before the 60ms injected delay", el)
	}
	if _, d, _ := f.Injected(); d != 1 {
		t.Fatalf("delayed = %d, want 1", d)
	}
}

func TestFaultyError(t *testing.T) {
	f := faultyFixture(t, 1)
	f.SetRules(FaultRule{To: "a", Kind: wire.KindQuery, Action: FaultError, Err: "connection reset"})
	// Non-matching kind passes.
	if _, err := f.Call("a", &wire.Message{Kind: wire.KindAck, From: "x"}); err != nil {
		t.Fatalf("ack should pass the kind-scoped rule: %v", err)
	}
	_, err := f.Call("a", &wire.Message{Kind: wire.KindQuery, From: "x"})
	if err == nil || !strings.Contains(err.Error(), "connection reset") {
		t.Fatalf("query should hit the error rule, got %v", err)
	}
}

// TestFaultyFlapWindow: OnCalls/OffCalls gates the rule by matched-call
// count — live for the first OnCalls of each cycle, dormant after.
func TestFaultyFlapWindow(t *testing.T) {
	f := faultyFixture(t, 1)
	f.SetRules(FaultRule{To: "a", Action: FaultError, Err: "flap", OnCalls: 2, OffCalls: 2})
	want := []bool{true, true, false, false, true, true, false, false}
	for i, wantErr := range want {
		_, err := f.Call("a", &wire.Message{Kind: wire.KindAck, From: "x"})
		if (err != nil) != wantErr {
			t.Fatalf("call %d: err=%v, want failure=%v", i, err, wantErr)
		}
	}
}

// TestFaultySeededReproducible: with P < 1 the exact pass/fail sequence is
// a function of the seed alone.
func TestFaultySeededReproducible(t *testing.T) {
	run := func(seed int64) []bool {
		f := faultyFixture(t, seed)
		f.SetRules(FaultRule{To: "a", Action: FaultError, Err: "coin", P: 0.5})
		out := make([]bool, 32)
		for i := range out {
			_, err := f.Call("a", &wire.Message{Kind: wire.KindAck, From: "x"})
			out[i] = err != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, a, b)
		}
	}
	// Sanity: the coin actually flips both ways.
	var fails int
	for _, v := range a {
		if v {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("P=0.5 produced %d/%d failures; RNG not wired in", fails, len(a))
	}
}

// TestFaultyClearRules: after ClearRules the transport is a passthrough
// again.
func TestFaultyClearRules(t *testing.T) {
	f := faultyFixture(t, 1)
	f.SetRules(Down("a"))
	f.ClearRules()
	if _, err := f.Call("a", &wire.Message{Kind: wire.KindAck, From: "x"}); err != nil {
		t.Fatalf("cleared rules must pass traffic: %v", err)
	}
}

// TestFaultyPartitionSets: the two-rule set partition severs every pair
// across the cut, in both directions, while intra-side traffic flows —
// and set membership matches the sender's From (ID) as well as its Addr,
// since live servers stamp both.
func TestFaultyPartitionSets(t *testing.T) {
	inner := NewChan()
	for _, id := range []string{"a1", "a2", "b1", "b2"} {
		id := id
		if _, err := inner.Listen(id, func(m *wire.Message) *wire.Message {
			return &wire.Message{Kind: wire.KindAck, From: id}
		}); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFaulty(inner, 1)
	f.MaxBlackhole = 5 * time.Millisecond
	f.SetRules(PartitionSets([]string{"a1", "a2"}, []string{"b1", "b2"})...)

	cross := []struct{ from, to string }{
		{"a1", "b1"}, {"a2", "b2"}, {"b1", "a1"}, {"b2", "a2"},
	}
	for _, c := range cross {
		if _, err := f.Call(c.to, &wire.Message{Kind: wire.KindAck, From: c.from}); err == nil {
			t.Fatalf("%s→%s crossed the partition", c.from, c.to)
		}
	}
	within := []struct{ from, to string }{{"a1", "a2"}, {"b2", "b1"}}
	for _, c := range within {
		if _, err := f.Call(c.to, &wire.Message{Kind: wire.KindAck, From: c.from}); err != nil {
			t.Fatalf("%s→%s blocked inside one side: %v", c.from, c.to, err)
		}
	}
	// A sender identified only by Addr (empty From) is still caught.
	if _, err := f.Call("b1", &wire.Message{Kind: wire.KindAck, Addr: "a1"}); err == nil {
		t.Fatal("Addr-identified sender crossed the partition")
	}
	// A third party outside both sets is untouched.
	if _, err := f.Call("b1", &wire.Message{Kind: wire.KindAck, From: "outsider"}); err != nil {
		t.Fatalf("outsider→b1 should flow: %v", err)
	}
	if d, _, _ := f.Injected(); d != 5 {
		t.Fatalf("dropped = %d, want 5", d)
	}
}
