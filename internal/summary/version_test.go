package summary

import (
	"fmt"
	"testing"

	"roads/internal/record"
)

func versionRecords(s *record.Schema, n int, salt float64) []*record.Record {
	recs := make([]*record.Record, n)
	for i := range recs {
		r := record.New(s, fmt.Sprintf("r%d", i), "own")
		for a := 0; a < s.NumAttrs(); a++ {
			switch s.Attr(a).Kind {
			case record.Numeric:
				r.SetNum(a, float64(i%10)/10+salt/100)
			case record.Categorical:
				r.SetStr(a, fmt.Sprintf("v%d", i%3))
			}
		}
		recs[i] = r
	}
	return recs
}

// TestComputeVersionContentHash pins the version contract the delta
// dissemination relies on: identical content hashes identically regardless
// of metadata, any content change moves the hash, and a stamped version is
// never zero.
func TestComputeVersionContentHash(t *testing.T) {
	s := mixedSchema()
	cfg := DefaultConfig()
	cfg.Buckets = 64

	recs := versionRecords(s, 50, 0)
	a, err := FromRecords(s, cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromRecords(s, cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version == 0 || b.Version == 0 {
		t.Fatalf("stamped versions must be non-zero: %d %d", a.Version, b.Version)
	}
	if a.Version != b.Version {
		t.Fatalf("identical content hashed differently: %d vs %d", a.Version, b.Version)
	}

	// Metadata must not participate.
	b.Origin = "elsewhere"
	if b.ComputeVersion() != a.Version {
		t.Fatal("origin metadata changed the content hash")
	}

	// Content changes must.
	c, err := FromRecords(s, cfg, versionRecords(s, 50, 7))
	if err != nil {
		t.Fatal(err)
	}
	if c.Version == a.Version {
		t.Fatal("different content produced the same version")
	}
	d, err := FromRecords(s, cfg, recs[:49])
	if err != nil {
		t.Fatal(err)
	}
	if d.Version == a.Version {
		t.Fatal("dropping a record left the version unchanged")
	}

	// Merging changes content, and re-stamping tracks it.
	merged := a.Clone()
	if err := merged.Merge(c); err != nil {
		t.Fatal(err)
	}
	if merged.ComputeVersion() == a.Version {
		t.Fatal("merge left the version unchanged")
	}

	// A policy revision is content: it moves the hash, adds up through
	// merges, survives a clone and tells two summaries apart — and a zero
	// one leaves the hash where it was.
	p := a.Clone()
	p.PolicyRev = 3
	if p.ComputeVersion() == a.Version {
		t.Fatal("a policy revision left the version unchanged")
	}
	if p.Equal(a) || !p.Equal(p.Clone()) {
		t.Fatal("Equal ignores the policy revision, or Clone drops it")
	}
	p2 := a.Clone()
	p2.PolicyRev = 4
	if err := p.Merge(p2); err != nil {
		t.Fatal(err)
	}
	if p.PolicyRev != 7 {
		t.Fatalf("merged policy revision %d; want 7", p.PolicyRev)
	}
	p2.PolicyRev = 0
	if p2.ComputeVersion() != a.Version {
		t.Fatal("a zero policy revision changed the content hash")
	}

	// An empty summary still stamps non-zero.
	e := MustNew(s, cfg)
	if e.ComputeVersion() == 0 {
		t.Fatal("empty summary stamped version 0")
	}
}

// TestComputeVersionBloomMode covers the Bloom-filter leg of the hash.
func TestComputeVersionBloomMode(t *testing.T) {
	s := mixedSchema()
	cfg := DefaultConfig()
	cfg.Buckets = 32
	cfg.Categorical = UseBloom

	a, err := FromRecords(s, cfg, versionRecords(s, 20, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromRecords(s, cfg, versionRecords(s, 20, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != b.Version || a.Version == 0 {
		t.Fatalf("bloom-mode versions: %d vs %d", a.Version, b.Version)
	}
	c, err := FromRecords(s, cfg, versionRecords(s, 21, 0))
	if err != nil {
		t.Fatal(err)
	}
	if c.Version == a.Version {
		t.Fatal("bloom-mode content change kept the version")
	}
}
