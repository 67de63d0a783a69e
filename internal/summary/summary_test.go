package summary

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"roads/internal/record"
)

func mixedSchema() *record.Schema {
	return record.MustSchema([]record.Attribute{
		{Name: "rate", Kind: record.Numeric},
		{Name: "res", Kind: record.Numeric},
		{Name: "enc", Kind: record.Categorical},
	})
}

func mkRec(s *record.Schema, rate, res float64, enc string) *record.Record {
	r := record.New(s, "r", "o")
	r.SetNum(0, rate)
	r.SetNum(1, res)
	r.SetStr(2, enc)
	return r
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.Buckets = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero buckets")
	}
	bad = cfg
	bad.Min, bad.Max = 1, 1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for empty domain")
	}
	bad = cfg
	bad.Categorical = UseBloom
	bad.BloomBits = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for bloom mode without bits")
	}
}

func TestFromRecordsAndMatch(t *testing.T) {
	s := mixedSchema()
	cfg := DefaultConfig()
	cfg.Buckets = 100
	sum, err := FromRecords(s, cfg, []*record.Record{
		mkRec(s, 0.10, 0.64, "MPEG2"),
		mkRec(s, 0.20, 0.32, "H264"),
	})
	if err != nil {
		t.Fatalf("FromRecords: %v", err)
	}
	if sum.Records != 2 {
		t.Fatalf("Records = %d; want 2", sum.Records)
	}
	if !sum.MatchRange(0, 0.05, 0.15) {
		t.Fatal("rate 0.10 should match [0.05,0.15]")
	}
	if sum.MatchRange(0, 0.5, 0.9) {
		t.Fatal("no rates in [0.5,0.9]")
	}
	if !sum.MatchEq(2, "MPEG2") || sum.MatchEq(2, "VP9") {
		t.Fatal("categorical matching wrong")
	}
}

func TestSummaryBloomMode(t *testing.T) {
	s := mixedSchema()
	cfg := DefaultConfig()
	cfg.Categorical = UseBloom
	sum := MustNew(s, cfg)
	sum.AddRecord(mkRec(s, 0.5, 0.5, "MPEG2"))
	if !sum.MatchEq(2, "MPEG2") {
		t.Fatal("bloom-mode summary must contain added value")
	}
	if err := sum.RemoveRecord(mkRec(s, 0.5, 0.5, "MPEG2")); err == nil {
		t.Fatal("RemoveRecord must fail in bloom mode")
	}
}

func TestSummarySubtractable(t *testing.T) {
	s := mixedSchema()
	if sum := MustNew(s, DefaultConfig()); !sum.Subtractable() {
		t.Fatal("ValueSet-mode summary must be subtractable (histogram + exact set counts)")
	}
	cfg := DefaultConfig()
	cfg.Categorical = UseBloom
	if sum := MustNew(s, cfg); sum.Subtractable() {
		t.Fatal("Bloom-mode summary must not claim subtractability")
	}
	// A schema with no categorical attributes carries no Blooms even in
	// Bloom mode, so it stays subtractable.
	numOnly := record.DefaultSchema(2)
	if sum := MustNew(numOnly, cfg); !sum.Subtractable() {
		t.Fatal("bloom mode without categorical attributes must stay subtractable")
	}
}

func TestSummaryRemoveRecord(t *testing.T) {
	s := mixedSchema()
	cfg := DefaultConfig()
	sum := MustNew(s, cfg)
	r := mkRec(s, 0.5, 0.5, "X")
	sum.AddRecord(r)
	if err := sum.RemoveRecord(r); err != nil {
		t.Fatalf("RemoveRecord: %v", err)
	}
	if !sum.Empty() {
		t.Fatal("summary should be empty after removing only record")
	}
	if sum.MatchEq(2, "X") {
		t.Fatal("removed categorical value should be gone")
	}
}

func TestSummaryMergeAggregation(t *testing.T) {
	s := mixedSchema()
	cfg := DefaultConfig()
	cfg.Buckets = 50
	a := MustNew(s, cfg)
	b := MustNew(s, cfg)
	a.AddRecord(mkRec(s, 0.1, 0.2, "A"))
	b.AddRecord(mkRec(s, 0.9, 0.8, "B"))
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Records != 2 {
		t.Fatalf("Records = %d; want 2", a.Records)
	}
	if !a.MatchRange(0, 0.85, 0.95) || !a.MatchEq(2, "B") {
		t.Fatal("merged summary must cover b's data")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

func TestSummaryMergeSchemaMismatch(t *testing.T) {
	cfg := DefaultConfig()
	a := MustNew(record.DefaultSchema(4), cfg)
	b := MustNew(record.DefaultSchema(8), cfg)
	if err := a.Merge(b); err == nil {
		t.Fatal("expected error merging different schema arity")
	}
}

func TestSummaryCloneIndependence(t *testing.T) {
	s := mixedSchema()
	sum := MustNew(s, DefaultConfig())
	sum.AddRecord(mkRec(s, 0.5, 0.5, "X"))
	c := sum.Clone()
	if !sum.Equal(c) {
		t.Fatal("clone should be Equal")
	}
	c.AddRecord(mkRec(s, 0.9, 0.9, "Y"))
	if sum.Equal(c) {
		t.Fatal("diverged clone should not be Equal")
	}
	if sum.MatchEq(2, "Y") {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestSummarySizeConstantInRecords(t *testing.T) {
	s := record.DefaultSchema(16)
	cfg := DefaultConfig()
	sum := MustNew(s, cfg)
	size0 := sum.SizeBytes()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		r := record.New(s, strconv.Itoa(i), "o")
		for j := 0; j < 16; j++ {
			r.SetNum(j, rng.Float64())
		}
		sum.AddRecord(r)
	}
	if sum.SizeBytes() != size0 {
		t.Fatalf("numeric-only summary size changed with records: %d -> %d", size0, sum.SizeBytes())
	}
	// The paper's key constant: 16 attrs x (16 + 4*1000) + 24 header.
	want := 24 + 16*(16+4*1000)
	if sum.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d; want %d", sum.SizeBytes(), want)
	}
}

// Property: aggregation preserves query evaluation soundness — if a record
// is in any input summary, the merged summary matches a range around it.
func TestSummaryMergeSoundnessQuick(t *testing.T) {
	s := record.DefaultSchema(4)
	cfg := DefaultConfig()
	cfg.Buckets = 64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := make([]*Summary, 3)
		var recs []*record.Record
		for p := range parts {
			parts[p] = MustNew(s, cfg)
			for i := 0; i < 5; i++ {
				r := record.New(s, "r", "o")
				for j := 0; j < 4; j++ {
					r.SetNum(j, rng.Float64())
				}
				parts[p].AddRecord(r)
				recs = append(recs, r)
			}
		}
		merged := MustNew(s, cfg)
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				return false
			}
		}
		for _, r := range recs {
			for j := 0; j < 4; j++ {
				v := r.Num(j)
				if !merged.MatchRange(j, v-0.01, v+0.01) {
					return false
				}
			}
		}
		return merged.Records == 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
