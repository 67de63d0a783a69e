package summary

import (
	"math/rand"
	"strconv"
	"testing"

	"roads/internal/record"
)

func benchRecords(n int, schema *record.Schema, rng *rand.Rand) []*record.Record {
	recs := make([]*record.Record, n)
	for i := range recs {
		r := record.New(schema, strconv.Itoa(i), "o")
		for j := 0; j < schema.NumAttrs(); j++ {
			r.SetNum(j, rng.Float64())
		}
		recs[i] = r
	}
	return recs
}

func BenchmarkSummaryFromRecords(b *testing.B) {
	schema := record.DefaultSchema(16)
	rng := rand.New(rand.NewSource(1))
	recs := benchRecords(500, schema, rng)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromRecords(schema, cfg, recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummaryMerge(b *testing.B) {
	schema := record.DefaultSchema(16)
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	a, _ := FromRecords(schema, cfg, benchRecords(500, schema, rng))
	c, _ := FromRecords(schema, cfg, benchRecords(500, schema, rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := a.Clone()
		if err := dst.Merge(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := MustHistogram(1000, 0, 1)
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(vals[i%len(vals)])
	}
}

func BenchmarkHistogramMatchRange(b *testing.B) {
	h := MustHistogram(1000, 0, 1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		h.Add(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MatchRange(0.25, 0.5)
	}
}

func BenchmarkBloomAddContains(b *testing.B) {
	bl := MustBloom(4096, 4)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i)
		bl.Add(keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.Contains(keys[i%len(keys)])
	}
}
