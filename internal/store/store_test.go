package store

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"roads/internal/query"
	"roads/internal/record"
)

func mixedSchema() *record.Schema {
	return record.MustSchema([]record.Attribute{
		{Name: "cpu", Kind: record.Numeric},
		{Name: "mem", Kind: record.Numeric},
		{Name: "os", Kind: record.Categorical},
	})
}

func fill(st *Store, n int, seed int64) {
	s := st.Schema()
	rng := rand.New(rand.NewSource(seed))
	oses := []string{"linux", "bsd", "solaris"}
	recs := make([]*record.Record, n)
	for i := range recs {
		r := record.New(s, "r"+strconv.Itoa(i), "o")
		r.SetNum(0, rng.Float64())
		r.SetNum(1, rng.Float64())
		r.SetStr(2, oses[rng.Intn(len(oses))])
		recs[i] = r
	}
	st.Add(recs...)
}

func TestSearchRangeAndEq(t *testing.T) {
	st := New(mixedSchema(), CostModel{})
	fill(st, 1000, 1)
	q := query.New("q", query.NewRange("cpu", 0.2, 0.4), query.NewEq("os", "linux"))
	res, err := st.Search(q)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	// Verify against brute force.
	want := 0
	for _, r := range st.Records() {
		if q.MatchRecord(r) {
			want++
		}
	}
	if len(res.Records) != want {
		t.Fatalf("Search found %d; brute force %d", len(res.Records), want)
	}
	if want == 0 {
		t.Fatal("test needs non-empty result; adjust seed")
	}
}

func TestSearchUsesMostSelectiveIndex(t *testing.T) {
	st := New(mixedSchema(), CostModel{})
	fill(st, 1000, 2)
	// cpu in tiny range (selective) AND mem in [0,1] (everything): candidate
	// scan should be driven by cpu, so Scanned must be well below 1000.
	q := query.New("q", query.NewRange("cpu", 0.50, 0.52), query.NewRange("mem", 0, 1))
	res, err := st.Search(q)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if res.Scanned > 100 {
		t.Fatalf("Scanned = %d; index selection not working", res.Scanned)
	}
}

func TestSearchEmptyStore(t *testing.T) {
	st := New(mixedSchema(), DefaultCostModel())
	q := query.New("q", query.NewRange("cpu", 0, 1))
	res, err := st.Search(q)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(res.Records) != 0 {
		t.Fatal("empty store must return no records")
	}
	if res.Cost != DefaultCostModel().PerQuery {
		t.Fatalf("empty store cost = %v; want PerQuery only", res.Cost)
	}
}

func TestSearchBindsUnboundQuery(t *testing.T) {
	st := New(mixedSchema(), CostModel{})
	fill(st, 10, 3)
	q := query.New("q", query.NewRange("cpu", 0, 1))
	if q.Bound() {
		t.Fatal("precondition: unbound")
	}
	if _, err := st.Search(q); err != nil {
		t.Fatalf("Search should bind: %v", err)
	}
	bad := query.New("q", query.NewRange("nope", 0, 1))
	if _, err := st.Search(bad); err == nil {
		t.Fatal("expected bind error for unknown attribute")
	}
}

func TestCostModelCharges(t *testing.T) {
	cm := CostModel{PerQuery: time.Millisecond, PerRecord: time.Microsecond, PerScan: time.Nanosecond}
	st := New(mixedSchema(), cm)
	fill(st, 500, 4)
	q := query.New("q", query.NewRange("cpu", 0, 1))
	res, err := st.Search(q)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	want := cm.PerQuery + time.Duration(res.Scanned)*cm.PerScan + time.Duration(len(res.Records))*cm.PerRecord
	if res.Cost != want {
		t.Fatalf("Cost = %v; want %v", res.Cost, want)
	}
	if len(res.Records) != 500 {
		t.Fatalf("full-range query found %d; want 500", len(res.Records))
	}
}

func TestCategoricalIndexExact(t *testing.T) {
	st := New(mixedSchema(), CostModel{})
	fill(st, 300, 6)
	q := query.New("q", query.NewEq("os", "bsd"))
	res, err := st.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.Str(2) != "bsd" {
			t.Fatal("categorical search returned wrong value")
		}
	}
	// The index should scan only bsd rows.
	if res.Scanned != len(res.Records) {
		t.Fatalf("Scanned %d != matched %d for exact index", res.Scanned, len(res.Records))
	}
	missing := query.New("q2", query.NewEq("os", "plan9"))
	res2, err := st.Search(missing)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Records) != 0 || res2.Scanned != 0 {
		t.Fatal("absent categorical value should scan nothing")
	}
}

func TestCountMatchesSearch(t *testing.T) {
	st := New(mixedSchema(), CostModel{})
	fill(st, 200, 7)
	q := query.New("q", query.NewRange("mem", 0.3, 0.6))
	n, err := st.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := st.Search(q)
	if n != len(res.Records) {
		t.Fatalf("Count = %d; Search = %d", n, len(res.Records))
	}
}

func TestConcurrentSearches(t *testing.T) {
	st := New(mixedSchema(), CostModel{})
	fill(st, 1000, 8)
	done := make(chan int, 8)
	for g := 0; g < 8; g++ {
		go func() {
			total := 0
			for i := 0; i < 50; i++ {
				q := query.New("q", query.NewRange("cpu", 0.1, 0.9))
				res, err := st.Search(q)
				if err != nil {
					done <- -1
					return
				}
				total += len(res.Records)
			}
			done <- total
		}()
	}
	first := <-done
	if first < 0 {
		t.Fatal("concurrent search failed")
	}
	for g := 1; g < 8; g++ {
		if got := <-done; got != first {
			t.Fatalf("concurrent searches disagree: %d vs %d", got, first)
		}
	}
}
