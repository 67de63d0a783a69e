package live

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"roads/internal/policy"
	"roads/internal/transport"
	"roads/internal/wire"
	"roads/internal/workload"
)

// kindBytes counts the encoded bytes of every call by the request's kind,
// request and reply together, and the calls that carried a summary.
type kindBytes struct {
	*transport.Chan
	mu      sync.Mutex
	bytes   map[wire.Kind]int
	content int
}

func (k *kindBytes) Call(addr string, req *wire.Message) (*wire.Message, error) {
	rep, err := k.Chan.Call(addr, req)
	k.mu.Lock()
	defer k.mu.Unlock()
	if (req.Report != nil && req.Report.Summary != nil) || (req.Batch != nil && len(req.Batch.Pushes) > 0) {
		k.content++
	}
	for _, m := range []*wire.Message{req, rep} {
		if m != nil {
			b, _ := wire.AppendEncode(nil, m)
			k.bytes[req.Kind] += len(b)
		}
	}
	return rep, err
}

// take returns the bytes counted since the last take.
func (k *kindBytes) take() map[wire.Kind]int {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := k.bytes
	k.bytes = map[wire.Kind]int{}
	return out
}

// TestSteppedCluster pins stepping: a NewCluster federation starts
// no goroutine, a stepped build of a seed sends the same bytes of every kind
// in every step on every run, and Settle on a settled federation takes one
// step, in which every tree edge carries one call: a version-only report,
// whose ack states the replica-set digest.
func TestSteppedCluster(t *testing.T) {
	const servers, fanOut = 21, 4
	build := func() (*Cluster, *kindBytes, []map[wire.Kind]int) {
		w := workload.MustGenerate(workload.Config{Nodes: servers, RecordsPerNode: 20, AttrsPerDist: 2},
			rand.New(rand.NewSource(33)))
		tr := &kindBytes{Chan: transport.NewChan(), bytes: map[wire.Kind]int{}}
		cl, err := NewCluster(tr, ClusterConfig{N: servers, Schema: w.Schema, MaxChildren: fanOut,
			JoinVia: func(i int) int { return (i - 1) / fanOut }})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Stop)
		if err := cl.Settle(); err != nil {
			t.Fatal(err)
		}
		for i := range cl.Servers {
			o := policy.NewOwner(fmt.Sprintf("owner%d", i), w.Schema, nil)
			o.SetRecords(w.PerNode[i])
			if err := cl.AttachOwner(i, o); err != nil {
				t.Fatal(err)
			}
		}
		tr.take()
		var steps []map[wire.Kind]int
		for moved := true; moved; {
			if len(steps) == settleSteps {
				t.Fatalf("still moving after %d steps", settleSteps)
			}
			moved = cl.Step()
			steps = append(steps, tr.take())
		}
		settle(t, cl, servers*20)
		return cl, tr, steps
	}

	before := runtime.NumGoroutine()
	cl, tr, first := build()
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("a settled stepped federation runs %d goroutines; %d before it was built", n, before)
	}
	_, _, second := build()
	if !slices.EqualFunc(first, second, func(a, b map[wire.Kind]int) bool { return fmt.Sprint(a) == fmt.Sprint(b) }) {
		t.Errorf("two stepped builds of one seed sent different bytes per kind per step:\n%v\n%v", first, second)
	}

	calls, content := tr.Stats().Calls, tr.content
	if err := cl.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Calls - calls; got != servers-1 || tr.content != content {
		t.Errorf("Settle on a settled federation made %d calls, %d with content; want one step's %d (a report per edge) and none",
			got, tr.content-content, servers-1)
	}
}
