package wire

import (
	"math/rand"
	"strconv"
	"testing"

	"roads/internal/record"
	"roads/internal/summary"
)

func benchSummaryDTO(b *testing.B, buckets int) *Message {
	b.Helper()
	schema := record.DefaultSchema(16)
	cfg := summary.DefaultConfig()
	cfg.Buckets = buckets
	sum := summary.MustNew(schema, cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		r := record.New(schema, strconv.Itoa(i), "o")
		for j := 0; j < 16; j++ {
			r.SetNum(j, rng.Float64())
		}
		sum.AddRecord(r)
	}
	return &Message{
		Kind:   KindSummaryReport,
		From:   "bench",
		Report: &SummaryReport{Summary: FromSummary(sum)},
	}
}

func BenchmarkEncodeSummary1000Buckets(b *testing.B) {
	msg := benchSummaryDTO(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

func BenchmarkDecodeSummary1000Buckets(b *testing.B) {
	msg := benchSummaryDTO(b, 1000)
	data, err := Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummaryDTORoundTrip(b *testing.B) {
	schema := record.DefaultSchema(16)
	msg := benchSummaryDTO(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := msg.Report.Summary.ToSummary(schema, msg.Report.Version); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSink keeps benchmark results alive.
var benchSink *Message

// BenchmarkDecodeQueryReply decodes the two reply shapes of a broad
// resolve: a leaf's answer (records of one owner, 16 numeric attributes
// each) and the entry server's (no records, a redirect per branch).
func BenchmarkDecodeQueryReply(b *testing.B) {
	records := &QueryReply{}
	for i := 0; i < 8; i++ {
		vals := make([]record.Value, 16)
		for j := range vals {
			vals[j].Num = float64(i*16+j) / 128
		}
		records.Records = append(records.Records, RecordDTO{ID: "n17-r" + strconv.Itoa(i), Owner: "owner17", Values: vals})
	}
	redirects := &QueryReply{}
	for i := 0; i < 55; i++ {
		id := "srv" + strconv.Itoa(i)
		redirects.Redirects = append(redirects.Redirects, RedirectInfo{
			ID: id, Addr: "127.0.0.1:" + strconv.Itoa(21000+i), Records: 40,
			Alternates: []RedirectInfo{{ID: id + "a", Addr: "127.0.0.1:" + strconv.Itoa(22000+i), Records: 20}},
		})
	}
	for _, shape := range []struct {
		name string
		rep  *QueryReply
	}{{"records", records}, {"redirects", redirects}} {
		b.Run(shape.name, func(b *testing.B) {
			data, err := Encode(&Message{Kind: KindQueryReply, From: "srv17", Addr: "127.0.0.1:21017", QueryRep: shape.rep})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchSink, err = Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
