package summary

import (
	"fmt"
	"testing"

	"roads/internal/record"
)

func planSchema() *record.Schema {
	return record.MustSchema([]record.Attribute{
		{Name: "hot", Kind: record.Numeric},
		{Name: "cold", Kind: record.Numeric},
		{Name: "enc", Kind: record.Categorical},
	})
}

func levelOf(plan []AttrResolution, attr string) (AttrResolution, bool) {
	for _, r := range plan {
		if r.Attr == attr {
			return r, true
		}
	}
	return AttrResolution{}, false
}

// TestPlannerHeatClimbsLadder is the core feedback loop: concentrated
// false-positive heat raises one attribute's resolution one step per
// replan up to the ladder cap, while starved attributes step down, and the
// resulting overrides are the ×2 ladder geometry.
func TestPlannerHeatClimbsLadder(t *testing.T) {
	base := DefaultConfig()
	base.Buckets = 32
	base.Categorical = UseBloom
	base.BloomBits = 256
	base.BloomHashes = 4
	p := NewPlanner(base, 0)
	s := planSchema()
	heat := map[string]float64{"hot": 100, "cold": 0, "enc": 0}

	var plan []AttrResolution
	for i := 0; i < 5; i++ {
		plan = p.Replan(s, heat)
	}
	r, ok := levelOf(plan, "hot")
	if !ok || r.Buckets != 32*4 {
		t.Fatalf("hot attribute plan = %+v (ok %v); want buckets %d (level +2 cap)", r, ok, 32*4)
	}
	if lv := p.Levels()["hot"]; lv != p.MaxLevel {
		t.Fatalf("hot level %d, want capped at %d", lv, p.MaxLevel)
	}
	if lv := p.Levels()["cold"]; lv != p.MinLevel {
		t.Fatalf("cold level %d, want floored at %d", lv, p.MinLevel)
	}
	if r, ok := levelOf(plan, "cold"); ok && r.Buckets >= 32 {
		t.Fatalf("cold attribute must coarsen below base, got %+v", r)
	}
	// Bloom attribute at min level still floors at a power of two >= 64.
	if r, ok := levelOf(plan, "enc"); ok {
		if r.BloomBits < minPlanBloomBits || r.BloomBits&(r.BloomBits-1) != 0 {
			t.Fatalf("enc bloom bits %d: want power of two >= %d", r.BloomBits, minPlanBloomBits)
		}
	}
}

// TestPlannerHysteresis pins the Schmitt trigger: heat hovering inside the
// (Lo, Hi) fair-share band moves nothing, so resolution cannot flap on
// noise around the mean.
func TestPlannerHysteresis(t *testing.T) {
	base := DefaultConfig()
	base.Buckets = 32
	p := NewPlanner(base, 0)
	s := planSchema()
	// Equal heat = exactly fair share everywhere: inside the band.
	for i := 0; i < 4; i++ {
		if plan := p.Replan(s, map[string]float64{"hot": 10, "cold": 10, "enc": 10}); plan != nil {
			t.Fatalf("replan %d under uniform heat produced overrides: %+v", i, plan)
		}
	}
	// Mild imbalance (1.5x / 0.75x fair) still sits inside (0.5, 2.0).
	if plan := p.Replan(s, map[string]float64{"hot": 15, "cold": 7.5, "enc": 7.5}); plan != nil {
		t.Fatalf("mild imbalance inside the hysteresis band moved the plan: %+v", plan)
	}
}

// TestPlannerZeroHeatDriftsToBase checks the decay path: with feedback
// gone, levels walk one step per replan back to zero and the plan returns
// to nil — the wire-identical static configuration. This is also what
// makes DisableAdaptiveSummaries safe to toggle: no residual geometry.
func TestPlannerZeroHeatDriftsToBase(t *testing.T) {
	base := DefaultConfig()
	base.Buckets = 32
	base.Categorical = UseBloom
	base.BloomBits = 256
	p := NewPlanner(base, 0)
	s := planSchema()
	for i := 0; i < 3; i++ {
		p.Replan(s, map[string]float64{"hot": 100})
	}
	if p.Levels()["hot"] == 0 {
		t.Fatal("setup: hot attribute never climbed")
	}
	var plan []AttrResolution
	for i := 0; i < 4; i++ {
		plan = p.Replan(s, nil)
	}
	if plan != nil {
		t.Fatalf("plan after zero-heat decay = %+v; want nil (static baseline)", plan)
	}
	for name, lv := range p.Levels() {
		if lv != 0 {
			t.Fatalf("attribute %s stuck at level %d after decay", name, lv)
		}
	}
}

// TestPlannerBudgetShedsColdest: when the byte budget cannot fit the
// desired plan, resolution is shed from the coldest attributes first and
// the final plan fits the budget.
func TestPlannerBudgetShedsColdest(t *testing.T) {
	base := DefaultConfig()
	base.Buckets = 64
	base.Categorical = UseBloom
	base.BloomBits = 1024
	base.BloomHashes = 4
	s := planSchema()
	// Budget exactly fits all three attributes at base level.
	baseSize := 0
	free := NewPlanner(base, 0)
	for i := 0; i < s.NumAttrs(); i++ {
		baseSize += free.attrSizeAt(s.Attr(i), 0)
	}
	p := NewPlanner(base, baseSize)
	heat := map[string]float64{"hot": 90, "cold": 10, "enc": 0}
	plan := p.Replan(s, heat)
	size := 0
	for i := 0; i < s.NumAttrs(); i++ {
		size += p.attrSizeAt(s.Attr(i), p.Levels()[s.Attr(i).Name])
	}
	if size > baseSize {
		t.Fatalf("plan size %d exceeds budget %d", size, baseSize)
	}
	// The hot attribute kept its raise; the cold ones paid for it.
	if lv := p.Levels()["hot"]; lv != 1 {
		t.Fatalf("hot level %d, want 1 (raised within budget)", lv)
	}
	if p.Levels()["cold"] >= 0 && p.Levels()["enc"] >= 0 {
		t.Fatalf("no cold attribute shed resolution: levels %v, plan %+v", p.Levels(), plan)
	}
}

// TestBloomSizing pins the power-of-two ladder precondition on the
// feedback-driven Bloom sizing.
func TestBloomSizing(t *testing.T) {
	nbits, k := BloomSizing(1000, 0.01)
	if nbits&(nbits-1) != 0 || nbits < minPlanBloomBits {
		t.Fatalf("BloomSizing bits %d: want power of two >= %d", nbits, minPlanBloomBits)
	}
	if k < 1 {
		t.Fatalf("BloomSizing hashes %d: want >= 1", k)
	}
	// More elements at the same target FPR can never shrink the filter.
	nbits2, _ := BloomSizing(10000, 0.01)
	if nbits2 < nbits {
		t.Fatalf("sizing shrank with more elements: %d -> %d", nbits, nbits2)
	}
}

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
// condensing a monolithic build — the property the sharded store's export
// cache and the version-suppression protocol both rest on.
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
		ps.Cfg.CondenseAbove = 0 // partials stay exact, like shard partials
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
