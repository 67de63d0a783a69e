package summary

import (
	"fmt"
	"testing"

	"roads/internal/record"
)

// TestValueSetCondense covers the Portnoi&Swany-style collapse: a dense
// sibling subtree folds into one prefix wildcard with the summed count,
// matching stays conservative, and the operation is deterministic.
func TestValueSetCondense(t *testing.T) {
	s := mixedSchema()
	cfg := DefaultConfig()
	cfg.Buckets = 8
	cfg.CondenseAbove = 4
	sum := MustNew(s, cfg)
	vals := []string{
		"grid.site7.n1", "grid.site7.n2", "grid.site7.n3", "grid.site7.n4",
		"grid.site9.n1", "cloud.z1",
	}
	for i, v := range vals {
		sum.AddRecord(mkRec(s, float64(i)/10, 0.5, v))
	}
	if !sum.Condense() {
		t.Fatal("condense reported no change over a 6-value set with limit 4")
	}
	set := sum.Sets[2]
	if set.Len() > 4 {
		t.Fatalf("condensed set still holds %d values", set.Len())
	}
	if !set.HasWildcards() {
		t.Fatal("condensation must introduce wildcards")
	}
	if c := set.Counts["grid.site7.*"]; c != 4 {
		t.Fatalf("wildcard count %d, want 4 (sum of collapsed members)", c)
	}
	// Conservative matching: members of the collapsed subtree still match,
	// the untouched exact values still match, unrelated values do not.
	for _, v := range []string{"grid.site7.n1", "grid.site7.brand-new", "grid.site9.n1", "cloud.z1"} {
		if !sum.MatchEq(2, v) {
			t.Fatalf("condensed summary must match %q", v)
		}
	}
	if sum.MatchEq(2, "cloud.z2") {
		t.Fatal("condensation must not smear across unrelated subtrees")
	}
}

// TestCondenseDeterminism: condensing a merge of exact partials equals
// condensing a monolithic build — the property owner exports (a condensed
// clone of an exact summary) and the version-suppression protocol both
// rest on.
func TestCondenseDeterminism(t *testing.T) {
	s := mixedSchema()
	cfg := DefaultConfig()
	cfg.Buckets = 8
	cfg.CondenseAbove = 3
	recs := make([]*record.Record, 0, 12)
	for i := 0; i < 12; i++ {
		recs = append(recs, mkRec(s, float64(i)/12, 0.5, fmt.Sprintf("dc%d.rack%d.h%d", i%2, i%3, i)))
	}
	mono, err := FromRecords(s, cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	merged := MustNew(s, cfg)
	for part := 0; part < 3; part++ {
		ps := MustNew(s, cfg)
		ps.Cfg.CondenseAbove = 0 // partials stay exact
		for i := part; i < 12; i += 3 {
			ps.AddRecord(recs[i])
		}
		if err := merged.Merge(ps); err != nil {
			t.Fatal(err)
		}
	}
	merged.Condense()
	if merged.ComputeVersion() != mono.ComputeVersion() {
		t.Fatal("condense(merge(exact partials)) != condense(monolithic build)")
	}
}

// TestMatchesWildcard pins the wildcard matching semantics MatchEq probes
// rely on.
func TestMatchesWildcard(t *testing.T) {
	cases := []struct {
		w, v string
		want bool
	}{
		{"a.b.*", "a.b.c", true},
		{"a.b.*", "a.b", true},
		{"a.b.*", "a.b.c.d", true},
		{"a.b.*", "a.bc", false},
		{"a.b.*", "a", false},
		{"a.b", "a.b", true},
		{"a.b", "a.b.c", false},
	}
	for _, c := range cases {
		if got := MatchesWildcard(c.w, c.v); got != c.want {
			t.Fatalf("MatchesWildcard(%q, %q) = %v, want %v", c.w, c.v, got, c.want)
		}
	}
}
