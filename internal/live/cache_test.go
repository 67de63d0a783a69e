package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// numRecords builds records for the single-attribute test schema, one per
// value, with IDs derived from the prefix.
func numRecords(schema *record.Schema, owner, prefix string, vals []float64) []*record.Record {
	out := make([]*record.Record, len(vals))
	for i, v := range vals {
		r := record.New(schema, fmt.Sprintf("%s-%03d", prefix, i), owner)
		r.Values[0].Num = v
		out[i] = r
	}
	return out
}

// rangeOf returns n values starting at lo, one apart.
func rangeOf(lo float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + float64(i)
	}
	return out
}

// newCacheStar builds a parked-loop star: one root, one child per childVals
// entry, each child holding a summary-mode owner with those attribute
// values, branches reported up. Loops are parked (hour-long ticks) so the
// test drives every refresh and report deterministically.
func newCacheStar(t *testing.T, mut func(cfg *Config), childVals ...[]float64) (*Server, []*Server, []*policy.Owner, *transport.Chan, *record.Schema) {
	t.Helper()
	schema := record.DefaultSchema(1)
	tr := transport.NewChan()
	mk := func(id string) *Server {
		cfg := DefaultConfig(id, "addr-"+id, schema)
		cfg.MaxChildren = 8
		cfg.AggregateEvery = time.Hour
		// The default summary domain is the paper's unit range [0,1);
		// widen it so the integer-valued test records land in distinct
		// histogram buckets instead of collapsing into the last one.
		cfg.Summary.Max = 1000
		if mut != nil {
			mut(&cfg)
		}
		srv, err := NewServer(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		return srv
	}
	root := mk("root")
	children := make([]*Server, 0, len(childVals))
	owners := make([]*policy.Owner, 0, len(childVals))
	for i, vals := range childVals {
		c := mk(fmt.Sprintf("c%d", i))
		o := policy.NewOwner(fmt.Sprintf("o%d", i), schema, nil)
		o.SetRecords(numRecords(schema, o.ID, o.ID, vals))
		if err := c.AttachOwner(o); err != nil {
			t.Fatal(err)
		}
		if err := c.Join(root.Addr()); err != nil {
			t.Fatal(err)
		}
		c.refreshSummaries()
		c.reportToParent()
		children = append(children, c)
		owners = append(owners, o)
	}
	// One push round, as the parked loops would run it: the children get
	// their sibling and ancestor replicas.
	root.refreshSummaries()
	root.pushReplicas()
	if got := root.NumChildren(); got != len(childVals) {
		t.Fatalf("root has %d children; want %d", got, len(childVals))
	}
	return root, children, owners, tr, schema
}

// churnChild mutates child i's owner and propagates the new branch version
// to the root.
func churnChild(t *testing.T, child *Server, o *policy.Owner, schema *record.Schema, id string, v float64) {
	t.Helper()
	r := record.New(schema, id, o.ID)
	r.Values[0].Num = v
	o.AddRecords(r)
	child.refreshSummaries()
	child.reportToParent()
}

// queryMsg builds a handler-level query message.
func queryMsg(id, requester string, lo, hi float64) *wire.Message {
	return &wire.Message{
		Kind: wire.KindQuery,
		From: requester,
		Query: &wire.QueryDTO{
			ID:        id,
			Requester: requester,
			Preds:     []query.Predicate{query.NewRange("a0", lo, hi)},
			Start:     true,
			Scope:     -1,
		},
	}
}

// TestCacheHitServesRepeatQueryWithZeroChildRPCs pins the acceptance
// criterion with the transport's own call counter: a repeat resolve by a
// caching client costs exactly one RPC — the fingerprint revalidation to
// the entry server — and zero descent into the children, yet returns the
// identical record set.
func TestCacheHitServesRepeatQueryWithZeroChildRPCs(t *testing.T) {
	root, children, owners, tr, schema := newCacheStar(t, nil,
		rangeOf(0, 8), rangeOf(100, 8))
	cli := NewClient(tr, "tester")
	cli.CacheResults = true
	q := query.New("q", query.NewRange("a0", -1, 2000))

	recs1, stats1, err := cli.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.CacheHit {
		t.Fatal("first resolve cannot be a cache hit")
	}
	if len(recs1) != 16 {
		t.Fatalf("first resolve got %d records; want 16", len(recs1))
	}
	if stats1.Contacted < 3 {
		t.Fatalf("first resolve contacted %d servers; want root + 2 children", stats1.Contacted)
	}

	before := tr.Stats().Calls
	recs2, stats2, err := cli.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	delta := tr.Stats().Calls - before
	if !stats2.CacheHit {
		t.Fatal("repeat resolve must be served from the client cache")
	}
	if delta != 1 {
		t.Fatalf("repeat resolve cost %d RPCs; want exactly 1 (fingerprint revalidation, zero child RPCs)", delta)
	}
	if len(recs2) != len(recs1) {
		t.Fatalf("cache hit returned %d records; want %d", len(recs2), len(recs1))
	}
	ids := func(rs []*record.Record) map[string]bool {
		m := make(map[string]bool, len(rs))
		for _, r := range rs {
			m[r.Owner+"/"+r.ID] = true
		}
		return m
	}
	if !reflect.DeepEqual(ids(recs1), ids(recs2)) {
		t.Fatal("cache hit returned a different record set")
	}

	// Churn child 0: its branch version moves, the root's fingerprint
	// moves, and the next resolve must fall back to a full descent that
	// sees the new record.
	churnChild(t, children[0], owners[0], schema, "fresh", 5)
	recs3, stats3, err := cli.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats3.CacheHit {
		t.Fatal("resolve after churn must not be served from the stale cache")
	}
	if len(recs3) != 17 {
		t.Fatalf("post-churn resolve got %d records; want 17 (the churned record included)", len(recs3))
	}

	// And the re-cached answer serves the next repeat again.
	before = tr.Stats().Calls
	_, stats4, err := cli.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats4.CacheHit || tr.Stats().Calls-before != 1 {
		t.Fatalf("post-churn repeat: hit=%v calls=%d; want hit with 1 RPC",
			stats4.CacheHit, tr.Stats().Calls-before)
	}
}

// TestResultCacheExactInvalidation proves invalidation precision on the
// server-side cache: churning child B's branch kills exactly the entries
// whose queries B could have answered, while entries over untouched
// branches keep hitting.
func TestResultCacheExactInvalidation(t *testing.T) {
	root, children, owners, _, schema := newCacheStar(t, nil,
		rangeOf(0, 6), rangeOf(100, 6))

	qA := func() *wire.Message { return queryMsg("qa", "tester", 0, 50) }
	qB := func() *wire.Message { return queryMsg("qb", "tester", 100, 150) }
	eval := func(m *wire.Message) *wire.QueryReply {
		rep := root.handleQuery(m)
		if err := wire.RemoteError(rep); err != nil {
			t.Fatal(err)
		}
		return rep.QueryRep
	}

	// Warm both entries, then prove they hit.
	eval(qA())
	eval(qB())
	if info := root.CacheInfo(); info.Entries != 2 || info.Misses != 2 {
		t.Fatalf("after warmup: %+v; want 2 entries, 2 misses", info)
	}
	eval(qA())
	eval(qB())
	if info := root.CacheInfo(); info.Hits != 2 || info.Invalidations != 0 {
		t.Fatalf("after repeats: %+v; want 2 hits, 0 invalidations", info)
	}

	// Churn branch B. qA's entry depends on B only as a non-match, and B
	// still does not match qA — the entry must survive. qB's entry
	// matched B, so it must die and re-evaluate to the new answer.
	churnChild(t, children[1], owners[1], schema, "fresh", 105)
	repA := eval(qA())
	if info := root.CacheInfo(); info.Hits != 3 || info.Invalidations != 0 {
		t.Fatalf("qA after churning B: %+v; want a surviving hit (3 hits, 0 invalidations)", info)
	}
	if len(repA.Redirects) != 1 || repA.Redirects[0].ID != children[0].ID() {
		t.Fatalf("qA redirects %+v; want exactly child A", repA.Redirects)
	}
	repB := eval(qB())
	if info := root.CacheInfo(); info.Invalidations != 1 || info.Hits != 3 {
		t.Fatalf("qB after churning B: %+v; want exactly 1 invalidation", info)
	}
	if len(repB.Redirects) != 1 || repB.Redirects[0].Records != 7 {
		t.Fatalf("qB redirects %+v; want child B with 7 records", repB.Redirects)
	}

	// The re-cached qB entry hits again.
	eval(qB())
	if info := root.CacheInfo(); info.Hits != 4 {
		t.Fatalf("qB re-repeat: %+v; want 4 hits", info)
	}
}

// TestCachedAnswersMatchFreshUnderChurn is the property test: under
// randomized churn of child branches, root-attached owner records and
// per-requester views, a cached answer is always byte-identical to a fresh
// evaluation of the same query — the traced path bypasses the cache, so
// encoding both replies and comparing bytes is an exact oracle.
func TestCachedAnswersMatchFreshUnderChurn(t *testing.T) {
	root, children, owners, _, schema := newCacheStar(t, nil,
		rangeOf(0, 10), rangeOf(60, 10), rangeOf(120, 10))
	rootOwner := policy.NewOwner("oroot", schema, nil)
	rootOwner.SetRecords(numRecords(schema, "oroot", "oroot", rangeOf(200, 10)))
	if err := root.AttachOwner(rootOwner); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	queries := make([]*wire.Message, 0, 5)
	for i := 0; i < 5; i++ {
		lo := rng.Float64() * 220
		queries = append(queries, queryMsg(fmt.Sprintf("q%d", i), "tester", lo, lo+20+rng.Float64()*80))
	}
	// Two ranges that differ only past three significant digits, around a
	// root-owner record at exactly 205: each must get its own answer.
	queries = append(queries,
		queryMsg("near-with", "tester", 100.4, 205.0004),
		queryMsg("near-sans", "tester", 100.4, 204.9996))
	fresh := func(m *wire.Message) []byte {
		tm := &wire.Message{Kind: m.Kind, From: m.From, Query: &wire.QueryDTO{}}
		*tm.Query = *m.Query
		tm.Query.Trace = true
		rep := root.handleQuery(tm)
		if err := wire.RemoteError(rep); err != nil {
			t.Fatal(err)
		}
		rep.QueryRep.Trace = nil // strip the per-request trace payload
		data, err := wire.Encode(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cached := func(m *wire.Message) []byte {
		rep := root.handleQuery(m)
		if err := wire.RemoteError(rep); err != nil {
			t.Fatal(err)
		}
		data, err := wire.Encode(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	serial := 0
	for round := 0; round < 40; round++ {
		switch rng.Intn(4) {
		case 0: // grow a random child branch
			i := rng.Intn(len(children))
			serial++
			churnChild(t, children[i], owners[i], schema,
				fmt.Sprintf("n%03d", serial), rng.Float64()*180)
		case 1: // restate a branch unchanged (anti-entropy shape)
			i := rng.Intn(len(children))
			children[i].refreshSummaries()
			children[i].reportToParent()
		case 2: // mutate the root owner's record set
			serial++
			r := record.New(schema, fmt.Sprintf("ro%03d", serial), "oroot")
			r.Values[0].Num = 200 + rng.Float64()*20
			rootOwner.AddRecords(r)
		case 3: // flip the requester's view
			cut := 200 + rng.Float64()*20
			rootOwner.Policy.SetView("tester", policy.View{
				Name:   "cut",
				Filter: func(r *record.Record) bool { return r.Values[0].Num < cut },
			})
		}
		for _, m := range queries {
			got := cached(m)
			want := fresh(m)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d query %s: cached reply differs from fresh evaluation", round, m.Query.ID)
			}
		}
	}
	if info := root.CacheInfo(); info.Hits == 0 {
		t.Fatal("property run never hit the cache — the oracle tested nothing")
	}
}

// TestResultCacheConcurrentChurnHammer drives lookups and invalidating
// churn concurrently; under -race (the tier1 race gate runs this package)
// it proves the cache's locking, and the final check proves the cache
// still answers exactly like a fresh evaluation afterward.
func TestResultCacheConcurrentChurnHammer(t *testing.T) {
	root, children, owners, _, schema := newCacheStar(t, nil,
		rangeOf(0, 8), rangeOf(80, 8))
	rootOwner := policy.NewOwner("oroot", schema, nil)
	rootOwner.SetRecords(numRecords(schema, "oroot", "oroot", rangeOf(160, 8)))
	if err := root.AttachOwner(rootOwner); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := rng.Float64() * 180
				rep := root.handleQuery(queryMsg(fmt.Sprintf("h%d", i%7), "tester", lo, lo+40))
				if err := wire.RemoteError(rep); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Add(2)
	go func() { // churn child branches
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := i % len(children)
			churnChild(t, children[c], owners[c], schema,
				fmt.Sprintf("hc%04d", i), float64((i*13)%160))
		}
	}()
	go func() { // churn local owner state and views
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := record.New(schema, fmt.Sprintf("hr%04d", i), "oroot")
			r.Values[0].Num = 160 + float64(i%8)
			rootOwner.AddRecords(r)
			cut := 160 + float64(i%10)
			rootOwner.Policy.SetView("tester", policy.View{
				Name:   "cut",
				Filter: func(r *record.Record) bool { return r.Values[0].Num < cut },
			})
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// After the dust settles the cache must still be exact.
	m := queryMsg("after", "tester", 0, 250)
	rep1 := root.handleQuery(m)
	tm := queryMsg("after", "tester", 0, 250)
	tm.Query.Trace = true
	rep2 := root.handleQuery(tm)
	if err := wire.RemoteError(rep1); err != nil {
		t.Fatal(err)
	}
	if err := wire.RemoteError(rep2); err != nil {
		t.Fatal(err)
	}
	rep2.QueryRep.Trace = nil
	if !reflect.DeepEqual(rep1.QueryRep, rep2.QueryRep) {
		t.Fatal("cached reply differs from fresh evaluation after concurrent churn")
	}
}
