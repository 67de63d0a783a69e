package live

import (
	"fmt"
	"slices"
	"testing"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/transport"
)

// Two ranges that differ only past three significant digits: rendered with
// %.3g both read "a0 in [100,205]", but only the first holds the record
// whose value is exactly 205.
const (
	nearLo      = 100.4
	nearHiWith  = 205.0004
	nearHiSans  = 204.9996
	nearRecords = 10 // the root's owner holds 200..209
)

// newNearStar is a root with one far-away child and an owner of its own
// holding the records the near-identical ranges disagree about.
func newNearStar(t *testing.T, mut func(cfg *Config)) (*Server, *transport.Chan) {
	t.Helper()
	root, _, _, tr, schema := newCacheStar(t, mut, rangeOf(0, 10))
	o := policy.NewOwner("oroot", schema, nil)
	o.SetRecords(numRecords(schema, "oroot", "oroot", rangeOf(200, nearRecords)))
	if err := root.AttachOwner(o); err != nil {
		t.Fatal(err)
	}
	return root, tr
}

// wantNear lists the IDs of the root owner's records (values 200..209, IDs
// oroot-000..) that a range ending at hi holds, sorted.
func wantNear(hi float64) []string {
	var ids []string
	for i := 0; i < nearRecords; i++ {
		if v := 200 + float64(i); v >= nearLo && v <= hi {
			ids = append(ids, fmt.Sprintf("oroot-%03d", i))
		}
	}
	return ids
}

// TestCacheKeyExact pins the cache identity: queries that differ in any
// bit of a bound, in requester, scope or start flag have different keys,
// and a reordered conjunction has the same one.
func TestCacheKeyExact(t *testing.T) {
	key := func(requester string, scope int, start bool, preds ...query.Predicate) string {
		return cacheKey(requester, scope, start, preds)
	}
	a := query.NewRange("a0", 0.25012, 0.50012)
	b := query.NewRange("a0", 0.25049, 0.50049)
	if a.String() != b.String() {
		t.Fatalf("fixture: %q and %q should render alike", a, b)
	}
	if key("r", -1, true, a) == key("r", -1, true, b) {
		t.Fatal("ranges that render alike share a cache key")
	}
	base := key("r", -1, true, a)
	for name, other := range map[string]string{
		"requester": key("s", -1, true, a),
		"scope":     key("r", 0, true, a),
		"start":     key("r", -1, false, a),
		"attribute": key("r", -1, true, query.NewRange("a1", a.Lo, a.Hi)),
		"operator":  key("r", -1, true, query.NewEq("a0", "")),
		"extra":     key("r", -1, true, a, query.NewEq("enc", "x")),
	} {
		if other == base {
			t.Errorf("a different %s does not change the key", name)
		}
	}
	// Length prefixes keep adjacent strings apart.
	if key("ab", -1, true, query.NewEq("c", "d")) == key("a", -1, true, query.NewEq("bc", "d")) {
		t.Error("requester and attribute run together in the key")
	}
	c, d := query.NewEq("enc", "x"), query.NewRange("a1", 0, 1)
	if key("r", -1, true, a, c, d) != key("r", -1, true, d, a, c) {
		t.Error("a reordered conjunction changes the key")
	}
	// More predicates than the in-place sort buffer holds.
	var many, reversed []query.Predicate
	for i := 0; i < 12; i++ {
		many = append(many, query.NewRange("a0", float64(i), float64(i+1)))
	}
	for i := len(many) - 1; i >= 0; i-- {
		reversed = append(reversed, many[i])
	}
	if cacheKey("r", -1, true, many) != cacheKey("r", -1, true, reversed) {
		t.Error("a long reordered conjunction changes the key")
	}
}

// TestNearIdenticalQueriesThroughServerCache sends two queries whose
// bounds differ past three significant digits through one server, twice:
// each answer must be exactly the records its own range holds, whether
// evaluated or served from the result cache.
func TestNearIdenticalQueriesThroughServerCache(t *testing.T) {
	srv, _ := newNearStar(t, nil)
	for round := 0; round < 2; round++ {
		for _, hi := range []float64{nearHiWith, nearHiSans} {
			rep := srv.handleQuery(queryMsg("q", "tester", nearLo, hi))
			if rep.QueryRep == nil {
				t.Fatalf("round %d hi=%v: %+v", round, hi, rep)
			}
			var got []string
			for _, r := range rep.QueryRep.Records {
				got = append(got, r.ID)
			}
			slices.Sort(got)
			if want := wantNear(hi); !slices.Equal(got, want) {
				t.Fatalf("round %d hi=%v: got records %v; want %v", round, hi, got, want)
			}
		}
	}
	if info := srv.CacheInfo(); info.Hits != 2 || info.Entries != 2 {
		t.Fatalf("cache info %+v; want one entry per query and a hit for each repeat", info)
	}
}

// TestNearIdenticalQueriesThroughClientCache does the same through one
// caching client. The servers' result caches are off, so a wrong answer
// can only come from the client's own cache handing one query the other's
// records once the entry server says NotModified.
func TestNearIdenticalQueriesThroughClientCache(t *testing.T) {
	root, tr := newNearStar(t, func(cfg *Config) { cfg.ResultCacheBytes = -1 })
	cli := NewClient(tr, "tester")
	cli.CacheResults = true
	for round := 0; round < 2; round++ {
		for _, hi := range []float64{nearHiWith, nearHiSans} {
			recs, stats, err := cli.Resolve(root.Addr(), query.New("q", query.NewRange("a0", nearLo, hi)))
			if err != nil {
				t.Fatal(err)
			}
			if stats.CacheHit != (round == 1) {
				t.Fatalf("round %d hi=%v: cache hit = %v", round, hi, stats.CacheHit)
			}
			var got []string
			for _, r := range recs {
				got = append(got, r.ID)
			}
			slices.Sort(got)
			if want := wantNear(hi); !slices.Equal(got, want) {
				t.Fatalf("round %d hi=%v: got records %v; want %v", round, hi, got, want)
			}
		}
	}
}
