package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"roads/internal/query"
	"roads/internal/record"
)

// TestSearchSeesIndexesOfTheSliceItWalks pins that a search's indexes and
// the record slice it walks come from one lock hold. A writer appends
// records one at a time, every other one matching the query, while
// searchers race it; the first search builds the indexes under the write
// lock while appends are landing. Every search must return at least the
// matching records whose Add returned before it started: a search that
// walked a newer slice with older indexes, or the reverse, would miss
// appended records or index past the slice it holds.
func TestSearchSeesIndexesOfTheSliceItWalks(t *testing.T) {
	const (
		n         = 1000
		searchers = 4
	)
	schema := record.DefaultSchema(1)
	st := New(schema, CostModel{})
	q := query.New("q", query.NewRange("a0", -0.5, 0.5))
	if err := q.Bind(schema); err != nil { // searchers share it read-only
		t.Fatal(err)
	}

	var added atomic.Int64 // matching records whose Add has returned
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := int(added.Load())
				res, err := st.Search(q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Records) < floor {
					t.Errorf("search returned %d records; %d matching records were added before it started", len(res.Records), floor)
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		r := record.New(schema, fmt.Sprintf("r%04d", i), "o")
		r.SetNum(0, float64(i%2)) // even: 0, matches; odd: 1, does not
		st.Add(r)
		if i%2 == 0 {
			added.Add(1)
		}
	}
	close(done)
	wg.Wait()
	if res, _ := st.Search(q); len(res.Records) != n/2 {
		t.Fatalf("final search matched %d, want %d", len(res.Records), n/2)
	}
}
