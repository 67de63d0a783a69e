package live

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/summary"
	"roads/internal/transport"
	"roads/internal/wire"
	"roads/internal/workload"
)

// parkedFederation builds the canonical benchmark's federation — 64 servers,
// fan-out 4, 50 records and 64-bucket summaries of 8 attributes per server —
// stepped and settled, so while a test or benchmark resolves against it
// nothing else runs, allocates or starts goroutines. The hour-long tick keeps
// a later step from taking a child that has not reported for a while for
// dead. The queries are the benchmark's fresh broad ones (3 of 8 dimensions,
// a quarter of each range, some fifty servers contacted).
func parkedFederation(tb testing.TB, tr transport.Transport, addrFor func(int) string) (*Cluster, []*query.Query) {
	tb.Helper()
	const servers, fanOut = 64, 4
	w := workload.MustGenerate(workload.Config{Nodes: servers, RecordsPerNode: 50, AttrsPerDist: 2},
		rand.New(rand.NewSource(2008)))
	scfg := summary.DefaultConfig()
	scfg.Buckets = 64
	cl, err := NewCluster(tr, ClusterConfig{N: servers, Schema: w.Schema, Summary: scfg, MaxChildren: fanOut,
		AddrFor: addrFor, JoinVia: func(i int) int { return (i - 1) / fanOut }, Tick: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Stop)
	for i := range cl.Servers {
		o := policy.NewOwner(fmt.Sprintf("owner%d", i), w.Schema, nil)
		o.SetRecords(w.PerNode[i])
		if err := cl.AttachOwner(i, o); err != nil {
			tb.Fatal(err)
		}
	}
	settle(tb, cl, uint64(w.TotalRecords()))
	queries, err := w.GenQueries(256, 3, 0.25, rand.New(rand.NewSource(7)))
	if err != nil {
		tb.Fatal(err)
	}
	return cl, queries
}

// contactSpy is the transport a client under test calls through: it sees
// every query contact's context and request on the way to the federation's
// own transport.
type contactSpy struct {
	transport.Transport
	// afterStart, if set, runs once the entry server has answered, before
	// the client sees the reply.
	afterStart func()

	mu            sync.Mutex
	ctxs          map[context.Context]bool
	cancellable   int
	budgets       []time.Duration
	maxGoroutines int
}

func (s *contactSpy) CallContext(ctx context.Context, addr string, req *wire.Message) (*wire.Message, error) {
	if req.Kind != wire.KindQuery {
		return s.Transport.CallContext(ctx, addr, req)
	}
	n := runtime.NumGoroutine()
	s.mu.Lock()
	if s.ctxs == nil {
		s.ctxs = map[context.Context]bool{}
	}
	s.ctxs[ctx] = true
	if _, bounded := ctx.Deadline(); bounded || ctx.Done() != nil {
		s.cancellable++
	}
	s.budgets = append(s.budgets, req.Query.Budget)
	if n > s.maxGoroutines {
		s.maxGoroutines = n
	}
	s.mu.Unlock()
	rep, err := s.Transport.CallContext(ctx, addr, req)
	if req.Query.Start && s.afterStart != nil {
		s.afterStart()
	}
	return rep, err
}

// allocsPerContactAtParent is what one contact of the resolve below cost in
// heap allocations — client, transport and handler together — when the
// client derived a context.WithTimeout per attempt and Chan answered a
// cancellable context with a goroutine and a channel per call: 1903 per
// resolve of 55.2 contacts, the same on every run, measured at the parent of
// the change that removed both, on this federation and these queries.
const allocsPerContactAtParent = 34.5

// TestResolveArmsNothingPerContact pins what a contact costs beyond the
// call itself: under a caller context that cannot be cancelled, every
// contact of a resolve gets the same context — the caller's plus the
// client's Timeout as a value, nothing to cancel and no deadline of its own
// — the in-process transport therefore runs every handler on a resolve
// worker, so the resolve never has more goroutines than its parallelism, and
// the allocations of the per-attempt context and the per-call goroutine are
// gone.
func TestResolveArmsNothingPerContact(t *testing.T) {
	cl, queries := parkedFederation(t, transport.NewChan(), nil)
	spy := &contactSpy{Transport: cl.Tr}
	client := NewClient(spy, "t")
	client.Timeout = 150 * time.Millisecond
	entry := cl.Servers[len(cl.Servers)-1].Addr()

	base := runtime.NumGoroutine()
	_, stats, err := client.Resolve(entry, queries[0])
	if err != nil || stats.Failed > 0 {
		t.Fatalf("resolve: %v, %+v", err, stats)
	}
	if stats.Contacted < 32 {
		t.Fatalf("the query reached %d servers; want a broad one", stats.Contacted)
	}
	if len(spy.ctxs) != 1 || spy.cancellable != 0 {
		t.Fatalf("%d contacts ran under %d distinct contexts, %d of them cancellable or with a deadline; want one shared context that is neither",
			len(spy.budgets), len(spy.ctxs), spy.cancellable)
	}
	for _, b := range spy.budgets {
		if b != client.Timeout {
			t.Fatalf("a contact told its server of a %v budget; want the client's Timeout %v", b, client.Timeout)
		}
	}
	if limit := base + client.MaxConcurrent; spy.maxGoroutines > limit {
		t.Errorf("%d goroutines during the resolve; want at most the %d there were plus MaxConcurrent %d",
			spy.maxGoroutines, base, client.MaxConcurrent)
	}

	// The shared context carries the Timeout: a black-holed call under it
	// ends when the Timeout does, though nothing can cancel it.
	var shared context.Context
	for ctx := range spy.ctxs {
		shared = ctx
	}
	hole := transport.NewFaulty(cl.Tr, 1)
	hole.MaxBlackhole = 5 * time.Minute
	hole.SetRules(transport.Down(entry))
	begin := time.Now()
	_, err = hole.CallContext(shared, entry, &wire.Message{Kind: wire.KindStatus, From: "t"})
	if el := time.Since(begin); !errors.Is(err, context.DeadlineExceeded) || el < client.Timeout || el > client.Timeout+5*time.Second {
		t.Fatalf("a black-holed call under the contacts' context returned %v after %v; want DeadlineExceeded near the Timeout %v", err, el, client.Timeout)
	}

	next, contacts, runs := 1, 0, 0
	allocs := testing.AllocsPerRun(40, func() {
		_, stats, err := client.Resolve(entry, queries[next%len(queries)])
		if err != nil || stats.Failed > 0 {
			t.Fatalf("resolve: %v, %+v", err, stats)
		}
		next++
		runs++
		contacts += stats.Contacted
	})
	perContact := allocs * float64(runs) / float64(contacts)
	t.Logf("%.0f allocations per resolve of %.1f contacts: %.1f per contact", allocs, float64(contacts)/float64(runs), perContact)
	// Without the two a contact costs 26.5 (28.2 under the race detector,
	// whose sync.Pool drops buffers): room for that, not for the eight back.
	if perContact > allocsPerContactAtParent-4 {
		t.Errorf("%.1f allocations per contact; a contact with a context and a goroutine of its own cost %.1f, and both are gone",
			perContact, allocsPerContactAtParent)
	}
}

// TestNoContactStartsAfterTheDeadline: a contact the resolve comes to owe
// after its deadline has passed is not sent. It used to go out with the
// (negative) time left as its budget, which the server reads as no limit at
// all, and do a full evaluation for a client that had already left.
func TestNoContactStartsAfterTheDeadline(t *testing.T) {
	cl, queries := parkedFederation(t, transport.NewChan(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	// The deadline passes between the entry server's answer and the wave
	// of contacts its redirects call for.
	spy := &contactSpy{Transport: cl.Tr, afterStart: func() { <-ctx.Done() }}
	client := NewClient(spy, "t")
	_, stats, err := client.ResolveContext(ctx, cl.Root().Addr(), queries[0])
	if err != nil {
		t.Fatalf("the entry server answered in time: %v", err)
	}
	if stats.Contacted != 1 || stats.Failed == 0 {
		t.Fatalf("%d contacts answered, %d failed; want the entry server's answer and its redirects failed", stats.Contacted, stats.Failed)
	}
	for _, e := range stats.Errors {
		if !strings.Contains(e, "not attempted") || !strings.Contains(e, context.DeadlineExceeded.Error()) {
			t.Errorf("a contact owed after the deadline failed with %q; want it not attempted, with the context's error", e)
		}
	}
	if len(spy.budgets) != 1 || spy.budgets[0] <= 0 {
		t.Fatalf("servers saw queries with budgets %v; want only the entry server's, with a positive budget", spy.budgets)
	}
}

// TestResolveLeavesNoGoroutines is the client-side twin of
// TestClusterStopLeavesNoGoroutines: once Resolve has returned over the
// in-process transport, nothing it started is still running. Handlers ran
// inline, so there is nothing to settle; the resolve's own workers have all
// passed their WaitGroup, but a worker's deferred Done runs before its
// goroutine exits, so the count may still be above base when Resolve
// returns. The test yields for up to a second for it to come back: a leaked
// goroutine never does.
func TestResolveLeavesNoGoroutines(t *testing.T) {
	cl, queries := parkedFederation(t, transport.NewChan(), nil)
	client := NewClient(cl.Tr, "t")
	base := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		if _, stats, err := client.Resolve(cl.Servers[i].Addr(), queries[i]); err != nil || stats.Failed > 0 {
			t.Fatalf("resolve %d: %v, %+v", i, err, stats)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if got := runtime.NumGoroutine(); got != base {
			t.Fatalf("%d goroutines after resolve %d returned; want the %d there were before", got, i, base)
		}
	}
}
