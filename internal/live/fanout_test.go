package live

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// These tests pin a round's fan-out: the pushes go to every child whose set
// moved at once, the round joins them before it returns, and an early round
// charges its gap the first push answer, not the slowest.

const starChildren = 4

// steppedStar builds a settled, stepped root with starChildren children over
// tr, every server with an owner of three records, and returns the cluster
// and its schema.
func steppedStar(t *testing.T, tr transport.Transport) (*Cluster, *record.Schema) {
	t.Helper()
	schema := record.DefaultSchema(2)
	cl, err := NewCluster(tr, ClusterConfig{N: 1 + starChildren, Schema: schema, MaxChildren: starChildren})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	for _, s := range cl.Servers {
		attachDeltaOwner(t, s, schema, 3)
	}
	settle(t, cl, 3*(1+starChildren))
	if n := cl.Servers[0].NumChildren(); n != starChildren {
		t.Fatalf("the root has %d children; want %d", n, starChildren)
	}
	return cl, schema
}

// writeAtRoot adds one record at the root's owner, which moves the root's
// local summary and so the set of every child.
func writeAtRoot(cl *Cluster, schema *record.Schema, id string) {
	o := ownerOf(cl.Servers[0])
	o.AddRecords(record.New(schema, id, o.ID))
}

// batchBarrier holds every replica batch until want of them are in flight
// at once, or until its bound runs out; held counts the calls that waited out
// the bound.
type batchBarrier struct {
	transport.Transport
	mu      sync.Mutex
	want    int
	arrived int
	all     chan struct{}
	held    int
}

// arm makes the next want replica batches wait for each other.
func (b *batchBarrier) arm(want int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.want, b.arrived, b.held, b.all = want, 0, 0, make(chan struct{})
}

func (b *batchBarrier) Call(addr string, req *wire.Message) (*wire.Message, error) {
	b.mu.Lock()
	all := b.all
	if req.Kind == wire.KindReplicaBatch && all != nil {
		b.arrived++
		if b.arrived == b.want {
			close(all)
			b.all = nil
		}
	}
	b.mu.Unlock()
	if req.Kind == wire.KindReplicaBatch && all != nil {
		select {
		case <-all:
		case <-time.After(time.Second):
			b.mu.Lock()
			b.held++
			b.mu.Unlock()
		}
	}
	return b.Transport.Call(addr, req)
}

// TestRoundPushesToEveryChildAtOnce: after a write at the root, its early
// round has a batch for each of its children, and all of them are in flight
// at the same time: a transport that holds each batch until every one has
// arrived never waits out its bound. Pushed one after another, the first
// batches would each wait a second for the ones behind them.
func TestRoundPushesToEveryChildAtOnce(t *testing.T) {
	tr := &batchBarrier{Transport: transport.NewChan()}
	cl, schema := steppedStar(t, tr)
	root := cl.Servers[0]
	writeAtRoot(cl, schema, "fan-out")
	tr.arm(starChildren)
	root.round(true)
	tr.mu.Lock()
	arrived, held := tr.arrived, tr.held
	tr.mu.Unlock()
	if arrived != starChildren || held != 0 {
		t.Fatalf("the round sent %d batches, %d of them held a second waiting for the rest; want %d batches in flight at once",
			arrived, held, starChildren)
	}
	settle(t, cl, 3*(1+starChildren)+1)
}

// TestSlowChildIsNotChargedToTheGap: one child answers its batch half a
// second late. The early round waits for it before it returns, but what it
// adds to roads_early_round_seconds_total, the charge the gap after it is
// nine times, stops at the first answer: far below the slow child's delay.
func TestSlowChildIsNotChargedToTheGap(t *testing.T) {
	const delay = 500 * time.Millisecond
	tr := transport.NewFaulty(transport.NewChan(), 1)
	cl, schema := steppedStar(t, tr)
	root := cl.Servers[0]
	slow := cl.Servers[starChildren].Addr()
	tr.SetRules(transport.FaultRule{To: slow, Kind: wire.KindReplicaBatch, Action: transport.FaultDelay, Delay: delay})
	charged := func() float64 {
		return root.mx.reg.Snapshot()["roads_early_round_seconds_total"].(float64)
	}
	writeAtRoot(cl, schema, "slow-child")
	before, start := charged(), time.Now()
	took := root.round(true)
	wall := time.Since(start)
	charge := time.Duration((charged() - before) * float64(time.Second))
	if wall < delay {
		t.Fatalf("the round returned after %v, before the slow child's %v answer", wall, delay)
	}
	if (charge-took).Abs() > time.Microsecond || charge > delay/2 {
		t.Fatalf("the round charged %v (returned %v) of its %v; want the first answer's share, under %v",
			charge, took, wall, delay/2)
	}
	tr.ClearRules()
	settle(t, cl, 3*(1+starChildren)+1)
}

// TestStepLeavesNoGoroutine: a step whose rounds fan out to every child
// joins every push before it returns, so the process runs as many goroutines
// after it as before, once the joined ones have finished exiting (a second
// at most).
func TestStepLeavesNoGoroutine(t *testing.T) {
	cl, schema := steppedStar(t, transport.NewChan())
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		writeAtRoot(cl, schema, fmt.Sprintf("step-%d", i))
		cl.Step()
		deadline := time.Now().Add(time.Second)
		for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after step %d; %d before the first", n, i, before)
			}
			time.Sleep(time.Millisecond)
		}
	}
	settle(t, cl, 3*(1+starChildren)+3)
}
