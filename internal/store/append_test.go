package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"roads/internal/query"
	"roads/internal/record"
)

// appendSchema has three numeric attributes and one categorical, so the
// tests cover both index families.
func appendSchema() *record.Schema {
	return record.MustSchema([]record.Attribute{
		{Name: "a0", Kind: record.Numeric},
		{Name: "a1", Kind: record.Numeric},
		{Name: "a2", Kind: record.Numeric},
		{Name: "enc", Kind: record.Categorical},
	})
}

var encValues = []string{"h264", "mpeg2", "av1", "vp9"}

func mixedRecord(schema *record.Schema, id string, rng *rand.Rand) *record.Record {
	r := record.New(schema, id, "owner")
	for j := 0; j < 3; j++ {
		r.SetNum(j, rng.Float64())
	}
	r.SetStr(3, encValues[rng.Intn(len(encValues))])
	return r
}

// TestConcurrentAddAndSearch hammers a store with concurrent readers
// (Search, Count, Records) while one writer appends. It asserts nothing
// beyond internal consistency — its value is running under the race
// detector in the tier-1 gate, where any unlocked store state surfaces.
func TestConcurrentAddAndSearch(t *testing.T) {
	schema := appendSchema()
	st := New(schema, CostModel{})
	seedRng := rand.New(rand.NewSource(7))
	recs := make([]*record.Record, 200)
	for i := range recs {
		recs[i] = mixedRecord(schema, fmt.Sprintf("seed%03d", i), seedRng)
	}
	st.Add(recs...)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				q := query.New("q", query.NewRange("a0", 0.2, 0.7))
				if _, err := st.Search(q); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.Count(query.New("c", query.NewEq("enc", encValues[rng.Intn(len(encValues))]))); err != nil {
					t.Error(err)
					return
				}
				_ = st.Records()
			}
		}(int64(w + 1))
	}

	wrng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		st.Add(mixedRecord(schema, fmt.Sprintf("w%04d", i), wrng))
	}
	close(done)
	wg.Wait()
	if st.Len() != 500 {
		t.Fatalf("final size %d, want 500", st.Len())
	}
}

// TestBulkIngestLinearAllocs pins the bulk-ingest property: N one-record
// Adds must allocate O(N) total, not O(N²). A store that copied the full
// record slice on every call would copy ~1.6 GB at 20k records; the
// copy-on-write headroom discipline brings it under a few MB. The bound
// below is ~25× looser than measured so scheduler noise cannot flake it
// while still sitting three orders of magnitude under quadratic.
func TestBulkIngestLinearAllocs(t *testing.T) {
	schema := record.DefaultSchema(8)
	rng := rand.New(rand.NewSource(3))
	const n = 20000
	recs := make([]*record.Record, n)
	for i := range recs {
		r := record.New(schema, fmt.Sprintf("r%05d", i), "o")
		for j := 0; j < 8; j++ {
			r.SetNum(j, rng.Float64())
		}
		recs[i] = r
	}
	st := New(schema, CostModel{})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range recs {
		st.Add(r)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > 64<<20 {
		t.Fatalf("ingesting %d records one at a time allocated %d MB; quadratic copying is back",
			n, allocated>>20)
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
}

func addBatch(st *Store, schema *record.Schema, start, n int, rng *rand.Rand) {
	recs := make([]*record.Record, n)
	for i := range recs {
		recs[i] = mixedRecord(schema, fmt.Sprintf("r%05d", start+i), rng)
	}
	st.Add(recs...)
}

// TestIncrementalIndexAppend verifies appends extend built indexes in
// place: after the first search builds them, further Adds must not rebuild
// — new numeric values land in the pending tail and searches still see
// every record.
func TestIncrementalIndexAppend(t *testing.T) {
	schema := appendSchema()
	st := New(schema, CostModel{})
	rng := rand.New(rand.NewSource(5))
	addBatch(st, schema, 0, 400, rng)

	q := query.New("q", query.NewRange("a0", 0, 1))
	res, err := st.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 400 {
		t.Fatalf("warm search matched %d of 400", len(res.Records))
	}

	addBatch(st, schema, 400, 50, rng)
	st.mu.RLock()
	sorted, pending := len(st.num[0].vals), len(st.num[0].pvals)
	st.mu.RUnlock()
	// 50 appends stay below pendingMergeMin, so every new value must still
	// sit in the pending tail and the sorted run must be the one the first
	// search built.
	if sorted != 400 || pending != 50 {
		t.Fatalf("numeric index holds %d sorted and %d pending values, want 400 and 50", sorted, pending)
	}

	res, err = st.Search(query.New("q2", query.NewRange("a0", 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 450 {
		t.Fatalf("post-append search matched %d of 450", len(res.Records))
	}
	res, err = st.Search(query.New("q3", query.NewEq("enc", "av1")))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range st.Records() {
		if r.Str(3) == "av1" {
			want++
		}
	}
	if len(res.Records) != want || res.Scanned != want {
		t.Fatalf("categorical search after appends matched %d, scanned %d; want %d of each", len(res.Records), res.Scanned, want)
	}
}
