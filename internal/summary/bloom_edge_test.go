package summary

import (
	"fmt"
	"testing"

	"roads/internal/record"
)

// bloomCfg returns a Bloom-mode config with the given base geometry.
func bloomCfg(nbits, k int) Config {
	cfg := DefaultConfig()
	cfg.Buckets = 16
	cfg.Categorical = UseBloom
	cfg.BloomBits = nbits
	cfg.BloomHashes = k
	return cfg
}

// TestSummaryMergeBloomMismatchedGeometry merges summaries whose Bloom
// filters disagree on (nbits, hashes) — the shape a federation of servers
// configured with different Bloom sizes produces. Merge must degrade conservatively in both directions: never error,
// never lose a member (no false negatives), whatever the fold direction.
func TestSummaryMergeBloomMismatchedGeometry(t *testing.T) {
	s := mixedSchema()
	small := MustNew(s, bloomCfg(64, 3))
	big := MustNew(s, bloomCfg(512, 5))
	for i := 0; i < 8; i++ {
		small.AddRecord(mkRec(s, 0.1, 0.2, fmt.Sprintf("small-%d", i)))
		big.AddRecord(mkRec(s, 0.8, 0.9, fmt.Sprintf("big-%d", i)))
	}

	into := small.Clone()
	if err := into.Merge(big); err != nil {
		t.Fatalf("merge big-into-small: %v", err)
	}
	rev := big.Clone()
	if err := rev.Merge(small); err != nil {
		t.Fatalf("merge small-into-big: %v", err)
	}
	for i := 0; i < 8; i++ {
		for _, v := range []string{fmt.Sprintf("small-%d", i), fmt.Sprintf("big-%d", i)} {
			if !into.MatchEq(2, v) {
				t.Fatalf("big-into-small merge lost %q", v)
			}
			if !rev.MatchEq(2, v) {
				t.Fatalf("small-into-big merge lost %q", v)
			}
		}
	}
	if into.Records != 16 || rev.Records != 16 {
		t.Fatalf("record counts %d/%d after merge; want 16", into.Records, rev.Records)
	}
}

// TestSummaryMergeBloomEmptyPopulated covers the empty↔populated corners:
// merging an empty Bloom summary into a populated one (and vice versa)
// must neither error, nor lose members, nor set spurious bits.
func TestSummaryMergeBloomEmptyPopulated(t *testing.T) {
	s := mixedSchema()
	empty := MustNew(s, bloomCfg(128, 4))
	popu := MustNew(s, bloomCfg(128, 4))
	popu.AddRecord(mkRec(s, 0.5, 0.5, "present"))

	got := popu.Clone()
	if err := got.Merge(empty); err != nil {
		t.Fatalf("merge empty into populated: %v", err)
	}
	if !got.Equal(popu) {
		t.Fatal("merging an empty summary must be a no-op on content")
	}

	got = empty.Clone()
	if err := got.Merge(popu); err != nil {
		t.Fatalf("merge populated into empty: %v", err)
	}
	if !got.MatchEq(2, "present") {
		t.Fatal("merge into empty lost the member")
	}
	if got.Blooms[2].FillRatio() != popu.Blooms[2].FillRatio() {
		t.Fatal("merge into same-geometry empty must copy bits exactly")
	}
}

// TestSummaryMergeSetMeetsBloom pins the cross-kind degradation: a value
// set merging with a Bloom converts to a Bloom (members of a Bloom cannot
// be enumerated), stays conservative, and the result correctly reports
// itself non-subtractable.
func TestSummaryMergeSetMeetsBloom(t *testing.T) {
	s := mixedSchema()
	setCfg := DefaultConfig()
	setCfg.Buckets = 16
	setSide := MustNew(s, setCfg)
	setSide.AddRecord(mkRec(s, 0.1, 0.1, "from-set"))
	bloomSide := MustNew(s, bloomCfg(256, 4))
	bloomSide.AddRecord(mkRec(s, 0.9, 0.9, "from-bloom"))

	if !setSide.Subtractable() {
		t.Fatal("value-set summary must be subtractable")
	}
	if bloomSide.Subtractable() {
		t.Fatal("bloom summary must not be subtractable")
	}

	got := setSide.Clone()
	if err := got.Merge(bloomSide); err != nil {
		t.Fatalf("set-meets-bloom merge: %v", err)
	}
	if got.Sets[2] != nil || got.Blooms[2] == nil {
		t.Fatal("set side must convert to a Bloom when merging a Bloom")
	}
	if !got.MatchEq(2, "from-set") || !got.MatchEq(2, "from-bloom") {
		t.Fatal("cross-kind merge lost a member")
	}
	if got.Subtractable() {
		t.Fatal("converted summary must report non-subtractable")
	}
	// The untouched input keeps its set: Merge owns only the receiver.
	if setSide.Sets[2] == nil {
		t.Fatal("merge mutated its argument's sibling clone source")
	}
}

// TestSummaryCloneBloomIndependence checks Clone deep-copies Bloom state:
// mutating the original afterwards must not leak bits into the clone.
func TestSummaryCloneBloomIndependence(t *testing.T) {
	s := mixedSchema()
	orig := MustNew(s, bloomCfg(128, 4))
	orig.AddRecord(mkRec(s, 0.2, 0.2, "before"))
	cl := orig.Clone()
	orig.AddRecord(mkRec(s, 0.3, 0.3, "after"))
	if cl.MatchEq(2, "after") && cl.Blooms[2].Equal(orig.Blooms[2]) {
		t.Fatal("clone shares Bloom bits with the original")
	}
	if !cl.MatchEq(2, "before") {
		t.Fatal("clone lost pre-clone member")
	}
	if cl.Records != 1 || orig.Records != 2 {
		t.Fatalf("records %d/%d; want 1/2", cl.Records, orig.Records)
	}
	// Saturation must not propagate either.
	orig.Blooms[2].Saturate()
	if cl.Blooms[2].Saturated() {
		t.Fatal("saturating the original saturated the clone")
	}
}

// TestBloomMergeAnySaturation exercises MergeAny's degradation ladder
// directly: merging a saturated filter saturates the receiver (still
// conservative), and merging across sizes keeps every member.
func TestBloomMergeAnySaturation(t *testing.T) {
	a := MustBloom(128, 4)
	a.Add("kept")
	sat := MustBloom(64, 3)
	sat.Saturate()
	a.MergeAny(sat)
	if !a.Saturated() {
		t.Fatal("merging a saturated Bloom must saturate the receiver")
	}
	if !a.Contains("anything") || !a.Contains("kept") {
		t.Fatal("saturated Bloom must contain everything")
	}
}

// TestStoreBloomShardPartialMerge pins the summary-side contract of Bloom
// mode: summaries of disjoint record sets merge into exactly the summary of
// their union, and a Bloom-carrying summary reports itself
// non-subtractable, so an owner rebuilds it on removal instead of clearing
// bits (policy.Owner keys off Subtractable).
func TestStoreBloomShardPartialMerge(t *testing.T) {
	s := mixedSchema()
	cfg := bloomCfg(256, 4)
	recs := make([]*record.Record, 0, 40)
	whole := MustNew(s, cfg)
	for i := 0; i < 40; i++ {
		r := record.New(s, fmt.Sprintf("r%02d", i), "o")
		r.SetNum(0, float64(i)/40)
		r.SetNum(1, float64(39-i)/40)
		r.SetStr(2, fmt.Sprintf("enc-%d", i%10))
		recs = append(recs, r)
		whole.AddRecord(r)
	}
	// Partition into 4 "shard partials" and merge them — the exact shape
	// store.ExportSummary builds — then compare against the monolith.
	merged := MustNew(s, cfg)
	for sh := 0; sh < 4; sh++ {
		part := MustNew(s, cfg)
		for i := sh; i < 40; i += 4 {
			part.AddRecord(recs[i])
		}
		if part.Subtractable() {
			t.Fatal("bloom partial must be non-subtractable")
		}
		if err := merged.Merge(part); err != nil {
			t.Fatalf("shard partial merge: %v", err)
		}
	}
	if merged.Records != whole.Records {
		t.Fatalf("merged records %d, want %d", merged.Records, whole.Records)
	}
	for i := 0; i < 10; i++ {
		if !merged.MatchEq(2, fmt.Sprintf("enc-%d", i)) {
			t.Fatalf("shard-partial merge lost enc-%d", i)
		}
	}
	if !merged.Blooms[2].Equal(whole.Blooms[2]) {
		t.Fatal("same-geometry partial merge must reproduce the monolithic Bloom exactly")
	}
}
