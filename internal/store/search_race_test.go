package store

import (
	"fmt"
	"sync"
	"testing"

	"roads/internal/query"
	"roads/internal/record"
)

// TestSearchSeesIndexesOfTheSliceItWalks is the regression for Search
// checking the indexes under one lock hold and searching under another. A
// writer keeps removing the shard's first record and appending it again, so
// every removal shifts every record down one position and dirties the
// indexes; every other record matches the query. A search that walks the
// slice with the positions of a slice one mutation older either indexes
// past its end or lands on the non-matching neighbours and returns almost
// nothing. With one lock hold per search every result has all the matching
// records but the one in flight.
func TestSearchSeesIndexesOfTheSliceItWalks(t *testing.T) {
	const (
		n         = 64
		rotations = 1500
		searchers = 4
	)
	schema := record.DefaultSchema(1)
	st := NewWithOptions(schema, CostModel{}, Options{Shards: 1})
	recs := make([]*record.Record, n)
	for i := range recs {
		recs[i] = record.New(schema, fmt.Sprintf("r%02d", i), "o")
		recs[i].SetNum(0, float64(i%2)) // even: 0, matches; odd: 1, does not
	}
	st.Add(recs...)
	q := query.New("q", query.NewRange("a0", -0.5, 0.5))
	if err := q.Bind(schema); err != nil { // searchers share it read-only
		t.Fatal(err)
	}

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
				res, err := st.Search(q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Records) < n/2-1 {
					t.Errorf("search returned %d records; at least %d always match", len(res.Records), n/2-1)
					return
				}
			}
		}()
	}
	for i := 0; i < rotations; i++ {
		r := recs[i%n]
		st.Remove(r.ID)
		st.Add(r)
	}
	close(done)
	wg.Wait()
}
