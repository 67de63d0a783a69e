package store

import (
	"math/rand"
	"strconv"
	"testing"

	"roads/internal/query"
	"roads/internal/record"
)

func benchStore(b *testing.B, indexed bool, n int) *Store {
	b.Helper()
	schema := record.DefaultSchema(8)
	var st *Store
	if indexed {
		st = New(schema, CostModel{})
	} else {
		st = NewScan(schema, CostModel{})
	}
	rng := rand.New(rand.NewSource(1))
	recs := make([]*record.Record, n)
	for i := range recs {
		r := record.New(schema, strconv.Itoa(i), "o")
		for j := 0; j < 8; j++ {
			r.SetNum(j, rng.Float64())
		}
		recs[i] = r
	}
	st.Add(recs...)
	return st
}

func benchQuery(b *testing.B, st *Store) {
	b.Helper()
	q := query.New("q",
		query.NewRange("a0", 0.4, 0.45),
		query.NewRange("a3", 0.1, 0.9),
	)
	if _, err := st.Search(q); err != nil { // warm indexes
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchIndexed10k(b *testing.B) { benchQuery(b, benchStore(b, true, 10000)) }
func BenchmarkSearchScan10k(b *testing.B)    { benchQuery(b, benchStore(b, false, 10000)) }
func BenchmarkSearchIndexed1k(b *testing.B)  { benchQuery(b, benchStore(b, true, 1000)) }
func BenchmarkSearchScan1k(b *testing.B)     { benchQuery(b, benchStore(b, false, 1000)) }

// BenchmarkIndexRebuild10k times the first search over 10k records: the
// index build it runs under the write lock plus the search itself.
func BenchmarkIndexRebuild10k(b *testing.B) {
	built := benchStore(b, true, 10000)
	recs := built.Records()
	q := query.New("q", query.NewRange("a0", 0, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := New(built.Schema(), CostModel{})
		st.Add(recs...)
		b.StartTimer()
		if _, err := st.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}
