package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"roads/internal/record"
)

// TestRecordsCopyOnWrite proves the contract behind the zero-copy
// Records(): a snapshot taken at any moment is immutable. Two writers
// append while readers walk their snapshots twice; both walks must see the
// same records, and appending to a snapshot must not reach the store.
// Under -race this also proves the readers share no written memory with
// the writers.
func TestRecordsCopyOnWrite(t *testing.T) {
	schema := record.DefaultSchema(1)
	st := New(schema, CostModel{})
	mk := func(i int) *record.Record {
		return record.New(schema, fmt.Sprintf("r%06d", i), "own")
	}
	st.Add(mk(0))

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; !stop.Load() && i < 100000; i++ {
				st.Add(mk(w*1000000 + i))
			}
		}(w)
	}

	var reads atomic.Uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap := st.Records()
				first := append([]*record.Record(nil), snap...)
				_ = append(snap, nil) // must reallocate, not write into the store
				for i, r := range snap {
					if r == nil || r != first[i] {
						t.Errorf("snapshot of %d records changed at %d", len(snap), i)
						return
					}
				}
				reads.Add(1)
			}
		}()
	}
	for reads.Load() < 2000 && !t.Failed() {
	}
	stop.Store(true)
	wg.Wait()
}
