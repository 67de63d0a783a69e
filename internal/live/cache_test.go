package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// newCacheStar builds a star: one root, one child per childVals entry, each
// child holding a summary-mode owner with those attribute values, branches
// reported up. No loop runs, so the test drives every refresh and report
// deterministically.
func newCacheStar(t *testing.T, mut func(cfg *Config), childVals ...[]float64) (*Server, []*Server, []*policy.Owner, *transport.Chan, *record.Schema) {
	t.Helper()
	schema := record.DefaultSchema(1)
	tr := transport.NewChan()
	mk := func(id string) *Server {
		return deltaServerCfg(t, tr, id, schema, func(cfg *Config) {
			// The default summary domain is the paper's unit range [0,1);
			// widen it so the integer-valued test records land in distinct
			// histogram buckets instead of collapsing into the last one.
			cfg.Summary.Max = 1000
			if mut != nil {
				mut(cfg)
			}
		})
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

// cutView is a view that hides the records valued cut and above.
func cutView(cut float64) policy.View {
	return policy.View{
		Name:   "cut",
		Filter: func(r *record.Record) bool { return r.Values[0].Num < cut },
	}
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
	if !reflect.DeepEqual(recordIDs(recs1), recordIDs(recs2)) {
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

// TestCachedAnswersMatchFreshUnderChurn is the property test of the one
// cache of query answers: under randomized churn of child branches, the
// entry server's own owner, and per-requester views at the entry server and
// at a remote owner, a caching client's answer is the record set a plain
// client resolves at the same moment. Queries enter at the root and at a
// child, so the fingerprint is exercised over children and over replicas.
func TestCachedAnswersMatchFreshUnderChurn(t *testing.T) {
	root, children, owners, tr, schema := newCacheStar(t, nil,
		rangeOf(0, 10), rangeOf(60, 10), rangeOf(120, 10))
	rootOwner := policy.NewOwner("oroot", schema, nil)
	rootOwner.SetRecords(numRecords(schema, "oroot", "oroot", rangeOf(200, 10)))
	if err := root.AttachOwner(rootOwner); err != nil {
		t.Fatal(err)
	}
	// One hand-driven round (children before the root) leaves every
	// server's routing snapshot reflecting every earlier write and view
	// change.
	all := append(slices.Clone(children), root)
	driveRound(all...)

	rng := rand.New(rand.NewSource(42))
	var queries []*query.Query
	for i := 0; i < 5; i++ {
		lo := rng.Float64() * 220
		queries = append(queries, query.New(fmt.Sprintf("q%d", i), query.NewRange("a0", lo, lo+20+rng.Float64()*80)))
	}
	// Two ranges that differ only past three significant digits, around a
	// root-owner record at exactly 205: each must get its own answer.
	queries = append(queries,
		query.New("near-with", query.NewRange("a0", 100.4, 205.0004)),
		query.New("near-sans", query.NewRange("a0", 100.4, 204.9996)))
	caching := NewClient(tr, "tester")
	caching.CacheResults = true
	plain := NewClient(tr, "tester")
	entries := []string{root.Addr(), children[0].Addr()}

	type cacheSlot struct {
		entry string
		q     int
	}
	cachedOnce := make(map[cacheSlot]bool)
	hits, missesAfterChurn := 0, 0
	serial := 0
	for round := 0; round < 40; round++ {
		switch rng.Intn(5) {
		case 0: // grow a random child branch
			i := rng.Intn(len(children))
			serial++
			churnChild(t, children[i], owners[i], schema,
				fmt.Sprintf("n%03d", serial), rng.Float64()*180)
		case 1: // restate a branch unchanged
		case 2: // mutate the root owner's record set
			serial++
			r := record.New(schema, fmt.Sprintf("ro%03d", serial), "oroot")
			r.Values[0].Num = 200 + rng.Float64()*20
			rootOwner.AddRecords(r)
		case 3: // flip the requester's view at the root
			rootOwner.Policy.SetView("tester", cutView(200+rng.Float64()*20))
		case 4: // flip the requester's view at a remote owner
			i := rng.Intn(len(owners))
			owners[i].Policy.SetView("tester", cutView(float64(60*i)+rng.Float64()*12))
		}
		driveRound(all...)
		for _, entry := range entries {
			for qi, q := range queries {
				got, stats, err := caching.Resolve(entry, q)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := plain.Resolve(entry, q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(recordIDs(got), recordIDs(want)) {
					t.Fatalf("round %d query %s via %s (cache hit %v): caching client got %d records, plain client %d",
						round, q.ID, entry, stats.CacheHit, len(got), len(want))
				}
				slot := cacheSlot{entry, qi}
				switch {
				case stats.CacheHit:
					hits++
				case cachedOnce[slot]:
					missesAfterChurn++
				}
				cachedOnce[slot] = true
			}
		}
	}
	if hits == 0 || missesAfterChurn == 0 {
		t.Fatalf("property run saw %d cache hits and %d misses after churn — the oracle tested nothing", hits, missesAfterChurn)
	}
}

// TestClientCacheConcurrentChurnHammer has four goroutines resolve through
// one shared caching client while two others churn the federation; under
// -race (the tier1 race gate runs this package) it proves the client cache's
// locking, and the final check proves the cache still answers exactly like
// a plain client afterward.
func TestClientCacheConcurrentChurnHammer(t *testing.T) {
	root, children, owners, tr, schema := newCacheStar(t, nil,
		rangeOf(0, 8), rangeOf(80, 8))
	rootOwner := policy.NewOwner("oroot", schema, nil)
	rootOwner.SetRecords(numRecords(schema, "oroot", "oroot", rangeOf(160, 8)))
	if err := root.AttachOwner(rootOwner); err != nil {
		t.Fatal(err)
	}
	caching := NewClient(tr, "tester")
	caching.CacheResults = true

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A small hot set, so the goroutines hit, miss and store
				// under the same keys.
				lo := float64((i + g) % 5 * 40)
				if _, _, err := caching.Resolve(root.Addr(), query.New("h", query.NewRange("a0", lo, lo+60))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
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
			rootOwner.Policy.SetView("tester", cutView(160+float64(i%10)))
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// After the dust settles the cache must still be exact.
	driveRound(append(children, root)...)
	plain := NewClient(tr, "tester")
	for lo := 0.0; lo < 200; lo += 40 {
		q := query.New("after", query.NewRange("a0", lo, lo+60))
		got, _, err := caching.Resolve(root.Addr(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := plain.Resolve(root.Addr(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recordIDs(got), recordIDs(want)) {
			t.Fatalf("[%g,%g] after concurrent churn: caching client got %d records, plain client %d",
				lo, lo+60, len(got), len(want))
		}
	}
}

// TestRestartedServerDoesNotConfirmOldFingerprint: the store epoch and owner
// generations in the fingerprint count mutations, so a server restarted under
// the same address over different records — loaded by the same number of
// mutations — would repeat its previous incarnation's fingerprint and answer
// NotModified to a client holding that incarnation's records.
func TestRestartedServerDoesNotConfirmOldFingerprint(t *testing.T) {
	schema := record.DefaultSchema(1)
	tr := transport.NewChan()
	start := func(ownerVals []float64, prefix string) *Server {
		cfg := DefaultConfig("solo", "addr-solo", schema)
		cfg.AggregateEvery = time.Hour
		cfg.Summary.Max = 1000
		srv, err := NewServer(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		o := policy.NewOwner("o", schema, nil)
		o.SetRecords(numRecords(schema, "o", prefix, ownerVals))
		if err := srv.AttachOwner(o); err != nil {
			t.Fatal(err)
		}
		if err := srv.listen(); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	cli := NewClient(tr, "tester")
	cli.CacheResults = true
	q := query.New("q", query.NewRange("a0", -1, 2000))

	first := start(rangeOf(0, 8), "old")
	recs, _, err := cli.Resolve(first.Addr(), q)
	if err != nil || len(recs) != 8 {
		t.Fatalf("first incarnation: %d records, err %v; want 8", len(recs), err)
	}
	if _, stats, _ := cli.Resolve(first.Addr(), q); !stats.CacheHit {
		t.Fatal("fixture: the repeat resolve against the first incarnation should hit")
	}
	first.Kill()

	second := start(rangeOf(500, 3), "new")
	defer second.Stop()
	recs, stats, err := cli.Resolve(second.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit || len(recs) != 3 {
		t.Fatalf("after the restart: cache hit %v with %d records; want a fresh resolve of the 3 new records",
			stats.CacheHit, len(recs))
	}
}

// TestRemoteViewFlipReachesCachingClient: an owner keeps final control over
// its answers (paper §III-A) wherever it is attached. A view flipped at an
// owner behind a child changes no summarized content, so it has to travel as
// content of its own — the summaries' PolicyRev — for the entry server's
// fingerprint to move and a caching client to resolve again.
func TestRemoteViewFlipReachesCachingClient(t *testing.T) {
	root, children, owners, tr, _ := newCacheStar(t, nil, rangeOf(0, 8), rangeOf(100, 8))
	caching := NewClient(tr, "tester")
	caching.CacheResults = true
	plain := NewClient(tr, "tester")
	q := query.New("q", query.NewRange("a0", -1, 2000))
	if recs, _, err := caching.Resolve(root.Addr(), q); err != nil || len(recs) != 16 {
		t.Fatalf("before the flip: %d records, err %v; want 16", len(recs), err)
	}

	owners[0].Policy.SetView("tester", policy.View{
		Name:   "hide-all",
		Filter: func(*record.Record) bool { return false },
	})
	children[0].refreshSummaries()
	children[0].reportToParent()
	root.refreshSummaries()

	want, _, err := plain.Resolve(root.Addr(), q)
	if err != nil || len(want) != 8 {
		t.Fatalf("plain client after the flip: %d records, err %v; want 8", len(want), err)
	}
	got, stats, err := caching.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit || !reflect.DeepEqual(recordIDs(got), recordIDs(want)) {
		t.Fatalf("caching client after the flip: cache hit %v with %d records; want the plain client's %d",
			stats.CacheHit, len(got), len(want))
	}
}
