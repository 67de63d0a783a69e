package live

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
	"roads/internal/transport"
	"roads/internal/wire"
)

// stressServer starts one server holding a few records, its loops not
// running.
func stressServer(t *testing.T) *Server {
	t.Helper()
	schema := record.DefaultSchema(2)
	srv := deltaServer(t, transport.NewChan(), "S", schema)
	o := policy.NewOwner("own-S", schema, nil)
	recs := make([]*record.Record, 4)
	for j := range recs {
		r := record.New(schema, fmt.Sprintf("r%d", j), o.ID)
		r.SetNum(0, 0.5)
		r.SetNum(1, 0.5)
		recs[j] = r
	}
	o.SetRecords(recs)
	if err := srv.AttachOwner(o); err != nil {
		t.Fatal(err)
	}
	srv.refreshSummaries()
	return srv
}

// stressSummary builds a summary matching the match-all query, with its
// record count pinned to n so tests can tell replica generations apart, and
// returns it in wire form with its content version.
func stressSummary(t *testing.T, schema *record.Schema, n uint64) (*wire.SummaryDTO, uint64) {
	t.Helper()
	r := record.New(schema, "seed", "own")
	r.SetNum(0, 0.5)
	r.SetNum(1, 0.5)
	cfg := summary.DefaultConfig()
	cfg.Buckets = 16
	sum, err := summary.FromRecords(schema, cfg, []*record.Record{r})
	if err != nil {
		t.Fatal(err)
	}
	sum.Records = n
	return wire.FromSummary(sum), sum.ComputeVersion()
}

func stressQueryMsg() *wire.Message {
	q := query.New("stress-q", query.NewRange("a0", 0, 1))
	return &wire.Message{Kind: wire.KindQuery, From: "t", Query: wire.FromQuery(q, true)}
}

// TestHandleQueryLockFree pins the tentpole's contract: the query and
// status hot paths acquire s.mu zero times. The test holds the server
// mutex for the whole duration — if either handler touched it, the
// handler would block and the watchdog below would fire.
func TestHandleQueryLockFree(t *testing.T) {
	srv := stressServer(t)

	srv.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			rep := srv.handle(stressQueryMsg())
			if err := wire.RemoteError(rep); err != nil {
				t.Errorf("query under held mutex: %v", err)
				return
			}
			if rep.QueryRep == nil || len(rep.QueryRep.Records) != 4 {
				t.Errorf("query under held mutex returned %+v", rep)
				return
			}
			st := srv.handle(&wire.Message{Kind: wire.KindStatus, From: "t"})
			if st.Status == nil || st.Status.ID != "S" {
				t.Errorf("status under held mutex returned %+v", st)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("query/status path blocked on s.mu: hot path is not lock-free")
	}
	srv.mu.Unlock()

	if got := srv.mx.queries.Load(); got != 100 {
		t.Fatalf("queriesServed = %d, want 100", got)
	}
}

// TestServerRetainsNothingPerQuery pins the other half of that contract:
// a query leaves nothing behind. Fifty thousand distinct queries — entering
// at the root of a 16-child star (16 children to match) and at one of its
// children (16 versioned replicas to match), as start and as redirected
// contacts, from two requesters — must not grow the heap or the goroutine
// count. TestHandleQueryLockFree watches s.mu only; a per-server structure
// keyed by query, behind a lock of its own, passed it for ten PRs.
func TestServerRetainsNothingPerQuery(t *testing.T) {
	vals := make([][]float64, 16)
	for i := range vals {
		vals[i] = rangeOf(float64(50*i), 8)
	}
	root, children, _, _, _ := newCacheStar(t, func(cfg *Config) { cfg.MaxChildren = 16 }, vals...)
	if got := children[0].NumReplicas(); got != 16 {
		t.Fatalf("fixture: child holds %d replicas; want 15 siblings and the root", got)
	}
	if root.queryFingerprint(root.snap.Load()) == 0 || children[0].queryFingerprint(children[0].snap.Load()) == 0 {
		t.Fatal("fixture: a child or replica is unversioned")
	}
	drive := func(n int) {
		for i := 0; i < n; i++ {
			lo := float64(i) * 0.016
			m := queryMsg("q", [2]string{"tester", "auditor"}[i%2], lo, lo+100)
			m.Query.Start = i%4 < 2
			srv := root
			if i%8 < 4 {
				srv = children[0]
			}
			if err := wire.RemoteError(srv.handle(m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	drive(1000) // lazily built state is not per-query state
	goroutines, before := settledGoroutines(), heap()
	drive(50000)
	after := heap()
	if grew := int64(after) - int64(before); grew > 1<<20 {
		t.Fatalf("heap grew by %d bytes over 50000 queries; a server must retain nothing per query", grew)
	}
	if got := runtime.NumGoroutine(); got != goroutines {
		t.Fatalf("goroutines %d → %d over 50000 queries", goroutines, got)
	}
}

// TestReplicaBatchNoTornReads alternates two replica-batch generations —
// five origins all at 100 records, then the same five all at 200 — while
// queries run full tilt. A batch is applied under one lock and published
// as one snapshot, so every reply must see a complete, single-generation
// overlay: five redirects, all with the same record count. A torn read
// (mixed generations, or a partially applied batch) fails the test.
func TestReplicaBatchNoTornReads(t *testing.T) {
	srv := stressServer(t)
	schema := srv.cfg.Schema

	mkBatch := func(n uint64) *wire.Message {
		pushes := make([]*wire.ReplicaPush, 5)
		for i := range pushes {
			sum, version := stressSummary(t, schema, n)
			pushes[i] = &wire.ReplicaPush{
				OriginID:   fmt.Sprintf("sib%d", i),
				OriginAddr: fmt.Sprintf("addr-sib%d", i),
				Summary:    sum,
				Level:      1,
				Version:    version,
			}
		}
		return &wire.Message{Kind: wire.KindReplicaBatch, From: "P", Addr: "addr-P",
			Batch: &wire.ReplicaBatch{Pushes: pushes}}
	}
	batches := []*wire.Message{mkBatch(100), mkBatch(200)}
	if err := wire.RemoteError(srv.handle(batches[0])); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srv.handle(batches[i%2])
		}
	}()

	var checked atomic.Uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := srv.handle(stressQueryMsg())
				if err := wire.RemoteError(rep); err != nil {
					t.Errorf("query failed mid-churn: %v", err)
					return
				}
				rds := rep.QueryRep.Redirects
				if len(rds) != 5 {
					t.Errorf("saw %d redirects, want 5 (partial batch visible)", len(rds))
					return
				}
				for _, rd := range rds {
					if rd.Records != rds[0].Records {
						t.Errorf("torn read: redirect %s has %d records, %s has %d",
							rd.ID, rd.Records, rds[0].ID, rds[0].Records)
						return
					}
				}
				if rds[0].Records != 100 && rds[0].Records != 200 {
					t.Errorf("redirect records = %d, want 100 or 200", rds[0].Records)
					return
				}
				checked.Add(1)
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if checked.Load() == 0 {
		t.Fatal("no queries completed during the churn window")
	}
}

// TestQueryChurnStress hammers one server with parallel queries and
// status probes while joins, leaves, summary reports, replica batches,
// summary refreshes and prunes churn the routing state. Run under -race
// (make tier1 does) this is the torn-read / data-race gate for the
// snapshot machinery; functionally each reply must still be well-formed.
func TestQueryChurnStress(t *testing.T) {
	srv := stressServer(t)
	schema := srv.cfg.Schema

	stop := make(chan struct{})
	var wg sync.WaitGroup
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}

	// Churn 1: children joining, reporting summaries, and leaving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; running(); i++ {
			id := fmt.Sprintf("c%d", i%4)
			addr := "addr-" + id
			srv.handle(&wire.Message{Kind: wire.KindJoin, From: id, Addr: addr,
				Join: &wire.Join{ID: id, Addr: addr}})
			sum, version := stressSummary(t, schema, uint64(i%7+1))
			srv.handle(&wire.Message{Kind: wire.KindSummaryReport, From: id, Addr: addr,
				Report: &wire.SummaryReport{Summary: sum, Version: version, Depth: 1}})
			srv.handle(&wire.Message{Kind: wire.KindSummaryReport, From: id, Addr: addr,
				Report: &wire.SummaryReport{Version: 1, Depth: 1}}) // version-only: answered NeedFull
			if i%3 == 2 {
				srv.handle(&wire.Message{Kind: wire.KindLeave, From: id, Addr: addr})
			}
		}
	}()

	// Churn 2: overlay replica batches from a parent.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; running(); i++ {
			sum, version := stressSummary(t, schema, uint64(i%5+1))
			pushes := []*wire.ReplicaPush{{
				OriginID:   fmt.Sprintf("sib%d", i%3),
				OriginAddr: fmt.Sprintf("addr-sib%d", i%3),
				Summary:    sum,
				Level:      1,
				Version:    version,
			}}
			srv.handle(&wire.Message{Kind: wire.KindReplicaBatch, From: "P", Addr: "addr-P",
				Batch: &wire.ReplicaBatch{Pushes: pushes}})
		}
	}()

	// Churn 3: the aggregation loop's work, driven directly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for running() {
			srv.round(false)
		}
	}()

	// Readers: queries and status probes.
	var served atomic.Uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for running() {
				rep := srv.handle(stressQueryMsg())
				if err := wire.RemoteError(rep); err != nil {
					t.Errorf("query failed mid-churn: %v", err)
					return
				}
				if got := len(rep.QueryRep.Records); got != 4 {
					t.Errorf("query returned %d local records, want 4", got)
					return
				}
				st := srv.handle(&wire.Message{Kind: wire.KindStatus, From: "t"})
				if st.Status == nil || st.Status.ID != "S" {
					t.Errorf("malformed status mid-churn: %+v", st)
					return
				}
				served.Add(1)
			}
		}()
	}

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no queries completed during the churn window")
	}
	if got := srv.mx.queries.Load(); got < served.Load() {
		t.Fatalf("queriesServed = %d, want at least %d", got, served.Load())
	}
}
