package policy

import (
	"slices"
	"testing"

	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
)

func camSchema() *record.Schema {
	return record.MustSchema([]record.Attribute{
		{Name: "rate", Kind: record.Numeric},
		{Name: "tier", Kind: record.Categorical},
	})
}

func rec(s *record.Schema, id string, rate float64, tier string) *record.Record {
	r := record.New(s, id, "orgA")
	r.SetNum(0, rate)
	r.SetStr(1, tier)
	return r
}

func TestExportModeString(t *testing.T) {
	if ExportSummary.String() != "summary" || ExportRecords.String() != "records" {
		t.Fatal("ExportMode String mismatch")
	}
}

func TestOwnerAnswerAppliesViews(t *testing.T) {
	s := camSchema()
	pol := NewPolicy(ExportSummary)
	// Public requesters only see "public"-tier records; partners see all.
	pol.DefaultView = View{Name: "public", Filter: func(r *record.Record) bool { return r.Str(1) == "public" }}
	pol.SetView("partner", View{Name: "partner"})

	o := NewOwner("orgA", s, pol)
	o.SetRecords([]*record.Record{
		rec(s, "r1", 0.5, "public"),
		rec(s, "r2", 0.6, "internal"),
	})

	q := query.New("q", query.NewRange("rate", 0, 1))
	q.Requester = "stranger"
	got, err := o.Answer(q)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if len(got) != 1 || got[0].ID != "r1" {
		t.Fatalf("stranger sees %d records; want only r1", len(got))
	}

	q2 := query.New("q2", query.NewRange("rate", 0, 1))
	q2.Requester = "partner"
	got, err = o.Answer(q2)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("partner sees %d records; want 2", len(got))
	}
}

func TestOwnerAnswerMatchesQueryFirst(t *testing.T) {
	s := camSchema()
	o := NewOwner("orgA", s, nil)
	o.SetRecords([]*record.Record{
		rec(s, "r1", 0.1, "public"),
		rec(s, "r2", 0.9, "public"),
	})
	q := query.New("q", query.NewRange("rate", 0.5, 1))
	got, err := o.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "r2" {
		t.Fatalf("got %d records; want only r2", len(got))
	}
}

func TestOwnerAnswerBindError(t *testing.T) {
	s := camSchema()
	o := NewOwner("orgA", s, nil)
	q := query.New("q", query.NewRange("missing", 0, 1))
	if _, err := o.Answer(q); err == nil {
		t.Fatal("expected bind error")
	}
}

func TestExportSummaryCoversAllRecords(t *testing.T) {
	s := camSchema()
	o := NewOwner("orgA", s, nil)
	o.SetRecords([]*record.Record{
		rec(s, "r1", 0.25, "internal"),
	})
	cfg := summary.DefaultConfig()
	cfg.Buckets = 100
	sum, err := o.ExportSummary(cfg)
	if err != nil {
		t.Fatalf("ExportSummary: %v", err)
	}
	if sum.Origin != "orgA" {
		t.Fatalf("Origin = %q; want orgA", sum.Origin)
	}
	if sum.Records != 1 {
		t.Fatalf("Records = %d; want 1", sum.Records)
	}
	if !sum.MatchRange(0, 0.2, 0.3) {
		t.Fatal("summary must cover the record")
	}
	// Even internal-tier records appear in the summary: control happens at
	// answer time, not summary time.
	if !sum.MatchEq(1, "internal") {
		t.Fatal("summary covers all records regardless of views")
	}
	// What a view change does to the export is re-version it.
	if sum.PolicyRev != 0 {
		t.Fatalf("PolicyRev = %d before any view was set; want 0", sum.PolicyRev)
	}
	o.Policy.SetView("guest", View{Name: "public"})
	flipped, err := o.ExportSummary(cfg)
	if err != nil {
		t.Fatalf("ExportSummary: %v", err)
	}
	if flipped.PolicyRev != 1 || flipped.Version == sum.Version {
		t.Fatalf("after SetView: PolicyRev %d, version %d (was %d); want revision 1 under a new version",
			flipped.PolicyRev, flipped.Version, sum.Version)
	}
}

func TestExportRecordsRespectsMode(t *testing.T) {
	s := camSchema()
	summaryOnly := NewOwner("orgA", s, NewPolicy(ExportSummary))
	if _, err := summaryOnly.ExportRecords(); err == nil {
		t.Fatal("summary-mode owner must refuse raw export")
	}
	trusting := NewOwner("orgB", s, NewPolicy(ExportRecords))
	trusting.SetRecords([]*record.Record{rec(s, "r1", 0.5, "public")})
	recs, err := trusting.ExportRecords()
	if err != nil {
		t.Fatalf("ExportRecords: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("exported %d records; want 1", len(recs))
	}
}

func TestPolicyApplyNilFilter(t *testing.T) {
	p := NewPolicy(ExportSummary)
	s := camSchema()
	recs := []*record.Record{rec(s, "r1", 0.5, "x")}
	if got := p.Apply("anyone", recs); len(got) != 1 {
		t.Fatal("nil filter must pass everything")
	}
}

func TestViewForFallsBackToDefault(t *testing.T) {
	p := NewPolicy(ExportSummary)
	p.DefaultView = View{Name: "fallback"}
	p.SetView("known", View{Name: "special"})
	if p.ViewFor("known").Name != "special" {
		t.Fatal("known requester should get its view")
	}
	if p.ViewFor("unknown").Name != "fallback" {
		t.Fatal("unknown requester should get the default view")
	}
}

func TestOwnerAddRecords(t *testing.T) {
	s := camSchema()
	o := NewOwner("orgA", s, nil)
	o.AddRecords(rec(s, "r1", 0.1, "x"))
	o.AddRecords(rec(s, "r2", 0.2, "x"))
	if len(o.Records()) != 2 {
		t.Fatalf("%d records; want 2", len(o.Records()))
	}
}

// TestOwnerChangeHooks: every hook runs once per write, after the write is
// visible, and a removal that removed nothing is no write.
func TestOwnerChangeHooks(t *testing.T) {
	s := camSchema()
	o := NewOwner("orgA", s, nil)
	var seen []int
	o.OnChange(func() { seen = append(seen, len(o.Records())) })
	calls := 0
	o.OnChange(func() { calls++ })
	o.SetRecords([]*record.Record{rec(s, "r1", 0.1, "x")})
	o.AddRecords(rec(s, "r2", 0.2, "x"))
	o.UpdateRecords(rec(s, "r2", 0.3, "y"))
	o.RemoveRecords("absent")
	o.RemoveRecords("r1")
	if want := []int{1, 2, 2, 1}; !slices.Equal(seen, want) || calls != len(want) {
		t.Fatalf("hooks saw record counts %v in %d calls; want %v, one call per write", seen, calls, want)
	}
}
