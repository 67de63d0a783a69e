package policy

import (
	"fmt"
	"slices"
	"sync"
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

// TestExportSummaryCache pins the owner's one export cache: the export is
// shared while nothing it depends on moves, and a write, a view change or
// another config each give a new pointer with the right content.
func TestExportSummaryCache(t *testing.T) {
	s := camSchema()
	o := NewOwner("orgA", s, nil)
	o.SetRecords([]*record.Record{rec(s, "r1", 0.25, "public"), rec(s, "r2", 0.75, "internal")})
	cfg := summary.DefaultConfig()
	cfg.Buckets = 100
	export := func(cfg summary.Config) *summary.Summary {
		t.Helper()
		sum, err := o.ExportSummary(cfg)
		if err != nil {
			t.Fatalf("ExportSummary: %v", err)
		}
		return sum
	}

	first := export(cfg)
	if again := export(cfg); again != first {
		t.Fatal("unchanged owner exported a new summary; want the cached one")
	}

	o.UpdateRecords(rec(s, "r3", 0.5, "public"))
	written := export(cfg)
	want, err := summary.FromRecords(s, cfg, o.Records())
	if err != nil {
		t.Fatal(err)
	}
	if written == first || written.Version != want.Version || written.Records != 3 {
		t.Fatalf("after a write: same pointer %v, version %d, %d records; want a new export at version %d over 3 records",
			written == first, written.Version, written.Records, want.Version)
	}
	if export(cfg) != written {
		t.Fatal("the export after a write is not cached")
	}

	o.Policy.SetView("guest", View{Name: "public"})
	viewed := export(cfg)
	if viewed == written || viewed.PolicyRev != written.PolicyRev+1 || viewed.Version == written.Version {
		t.Fatalf("after SetView: same pointer %v, PolicyRev %d (was %d), version changed %v; want a new export, revision +1, new version",
			viewed == written, viewed.PolicyRev, written.PolicyRev, viewed.Version != written.Version)
	}

	coarse := cfg
	coarse.Buckets = 10
	if other := export(coarse); other == viewed || other.Hists[0].Buckets() != 10 {
		t.Fatal("another config must give a new export in its own geometry")
	}
}

// TestExportSummaryCacheRace runs exports against concurrent writes (go test
// -race): every export must be a consistent snapshot, and once the writers
// stop the cached export must cover the final record set.
func TestExportSummaryCacheRace(t *testing.T) {
	s := camSchema()
	o := NewOwner("orgA", s, nil)
	cfg := summary.DefaultConfig()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o.UpdateRecords(rec(s, fmt.Sprintf("w%d-%d", w, i%20), float64(i%10)/10, "x"))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sum, err := o.ExportSummary(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if sum.Records > 40 || sum.Hists[0].Total != sum.Records {
					t.Errorf("export covers %d records with %d histogram entries; want a consistent snapshot of at most 40",
						sum.Records, sum.Hists[0].Total)
					return
				}
			}
		}()
	}
	wg.Wait()
	sum, err := o.ExportSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 40 {
		t.Fatalf("final export covers %d records; want 40", sum.Records)
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
