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
func newNearStar(t *testing.T) (*Server, *transport.Chan) {
	t.Helper()
	root, _, _, tr, schema := newCacheStar(t, nil, rangeOf(0, 10))
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
// bit of a bound, in requester or scope have different keys, and a reordered
// conjunction has the same one.
func TestCacheKeyExact(t *testing.T) {
	key := func(requester string, scope int, preds ...query.Predicate) string {
		return string(appendCacheKey(nil, requester, scope, preds))
	}
	a := query.NewRange("a0", 0.25012, 0.50012)
	b := query.NewRange("a0", 0.25049, 0.50049)
	if a.String() != b.String() {
		t.Fatalf("fixture: %q and %q should render alike", a, b)
	}
	if key("r", -1, a) == key("r", -1, b) {
		t.Fatal("ranges that render alike share a cache key")
	}
	base := key("r", -1, a)
	for name, other := range map[string]string{
		"requester": key("s", -1, a),
		"scope":     key("r", 0, a),
		"attribute": key("r", -1, query.NewRange("a1", a.Lo, a.Hi)),
		"operator":  key("r", -1, query.NewEq("a0", "")),
		"extra":     key("r", -1, a, query.NewEq("enc", "x")),
	} {
		if other == base {
			t.Errorf("a different %s does not change the key", name)
		}
	}
	// Length prefixes keep adjacent strings apart.
	if key("ab", -1, query.NewEq("c", "d")) == key("a", -1, query.NewEq("bc", "d")) {
		t.Error("requester and attribute run together in the key")
	}
	c, d := query.NewEq("enc", "x"), query.NewRange("a1", 0, 1)
	if key("r", -1, a, c, d) != key("r", -1, d, a, c) {
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
	if key("r", -1, many...) != key("r", -1, reversed...) {
		t.Error("a long reordered conjunction changes the key")
	}
}

// TestNearIdenticalQueriesThroughClientCache sends two queries whose bounds
// differ past three significant digits through one caching client, twice:
// each answer must be exactly the records its own range holds, whether
// resolved or handed out by the client's cache once the entry server says
// NotModified.
func TestNearIdenticalQueriesThroughClientCache(t *testing.T) {
	root, tr := newNearStar(t)
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
