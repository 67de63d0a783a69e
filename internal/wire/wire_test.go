package wire

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
)

func testSchema() *record.Schema {
	return record.MustSchema([]record.Attribute{
		{Name: "cpu", Kind: record.Numeric},
		{Name: "os", Kind: record.Categorical},
	})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msg := &Message{
		Kind: KindJoin,
		From: "a",
		Addr: "addr-a",
		Join: &Join{ID: "a", Addr: "addr-a"},
	}
	data, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindJoin || got.From != "a" || got.Join == nil || got.Join.Addr != "addr-a" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a message")); err == nil {
		t.Fatal("garbage must fail to decode")
	}
}

func TestSummaryDTORoundTrip(t *testing.T) {
	schema := testSchema()
	cfg := summary.DefaultConfig()
	cfg.Buckets = 50
	sum := summary.MustNew(schema, cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		r := record.New(schema, strconv.Itoa(i), "o")
		r.SetNum(0, rng.Float64())
		r.SetStr(1, []string{"linux", "bsd"}[rng.Intn(2)])
		sum.AddRecord(r)
	}
	sum.Version = 7

	dto := FromSummary(sum)
	data, err := Encode(&Message{Kind: KindSummaryReport, From: "server-x",
		Report: &SummaryReport{Summary: dto, Version: sum.Version}})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Report.Summary.ToSummary(schema, decoded.Report.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(back) {
		t.Fatal("summary changed across the wire")
	}
	if back.Version != 7 {
		t.Fatalf("decoded summary has version %d, want the report's 7", back.Version)
	}
}

func TestSummaryDTOBloomRoundTrip(t *testing.T) {
	schema := testSchema()
	cfg := summary.DefaultConfig()
	cfg.Buckets = 20
	cfg.Categorical = summary.UseBloom
	cfg.BloomBits = 256
	cfg.BloomHashes = 3
	sum := summary.MustNew(schema, cfg)
	r := record.New(schema, "r", "o")
	r.SetNum(0, 0.5)
	r.SetStr(1, "linux")
	sum.AddRecord(r)

	back, err := FromSummary(sum).ToSummary(schema, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !back.MatchEq(1, "linux") {
		t.Fatal("bloom content lost across the wire")
	}
	if !sum.Equal(back) {
		t.Fatal("bloom summary changed across the wire")
	}
}

func TestSummaryDTONil(t *testing.T) {
	if FromSummary(nil) != nil {
		t.Fatal("nil summary must map to nil DTO")
	}
	var dto *SummaryDTO
	s, err := dto.ToSummary(testSchema(), 1)
	if err != nil || s != nil {
		t.Fatal("nil DTO must map to nil summary")
	}
}

func TestSummaryDTOValidation(t *testing.T) {
	schema := testSchema()
	dto := &SummaryDTO{Buckets: 10, Min: 0, Max: 1, Hists: []HistDTO{{Attr: 5, Counts: make([]uint32, 10)}}}
	if _, err := dto.ToSummary(schema, 1); err == nil {
		t.Fatal("histogram for invalid attr must fail")
	}
	dto = &SummaryDTO{Buckets: 10, Min: 0, Max: 1, Hists: []HistDTO{{Attr: 0, Counts: make([]uint32, 99)}}}
	if _, err := dto.ToSummary(schema, 1); err == nil {
		t.Fatal("bucket count mismatch must fail")
	}
	dto = &SummaryDTO{Buckets: 10, Min: 0, Max: 1, Sets: []SetDTO{{Attr: 0}}}
	if _, err := dto.ToSummary(schema, 1); err == nil {
		t.Fatal("value set on numeric attr must fail")
	}
}

func TestQueryDTORoundTrip(t *testing.T) {
	q := query.New("q1", query.NewRange("cpu", 0.2, 0.8), query.NewEq("os", "linux"))
	q.Requester = "alice"
	dto := FromQuery(q, true)
	data, err := Encode(&Message{Kind: KindQuery, Query: dto})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	back := decoded.Query.ToQuery()
	if back.ID != "q1" || back.Requester != "alice" || back.Dims() != 2 {
		t.Fatalf("query changed: %+v", back)
	}
	if !decoded.Query.Start {
		t.Fatal("start flag lost")
	}
	if err := back.Bind(testSchema()); err != nil {
		t.Fatal(err)
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	schema := testSchema()
	r := record.New(schema, "r1", "orgA")
	r.SetNum(0, 0.25)
	r.SetStr(1, "linux")
	dtos := AppendRecords(nil, []*record.Record{r})
	back := ToRecords(dtos)
	if len(back) != 1 || back[0].ID != "r1" || back[0].Num(0) != 0.25 || back[0].Str(1) != "linux" {
		t.Fatalf("records changed: %+v", back)
	}
}

func TestRemoteError(t *testing.T) {
	em := ErrorMessage("srv", errors.New("boom"))
	if err := RemoteError(em); err == nil {
		t.Fatal("error message must produce an error")
	}
	if err := RemoteError(&Message{Kind: KindAck}); err != nil {
		t.Fatal("non-error message must not produce an error")
	}
	if err := RemoteError(nil); err == nil {
		t.Fatal("nil message must produce an error")
	}
}

// TestFailoverFieldsRoundTrip covers the deadline/failover additions: the
// query's Budget, redirects with record estimates and alternates, child
// lists on summary reports, and fallback holders on replica pushes all
// survive the codec.
func TestFailoverFieldsRoundTrip(t *testing.T) {
	q := query.New("q2", query.NewRange("cpu", 0, 1))
	dto := FromQuery(q, true)
	dto.Budget = 750 * time.Millisecond
	msg := &Message{
		Kind:  KindQueryReply,
		Query: dto,
		QueryRep: &QueryReply{
			Redirects: []RedirectInfo{{
				ID: "b", Addr: "addr-b", Records: 42,
				Alternates: []RedirectInfo{
					{ID: "b1", Addr: "addr-b1", Records: 20},
					{ID: "b2", Addr: "addr-b2", Records: 22},
				},
			}},
		},
		Report: &SummaryReport{
			Kids:     true,
			Children: []RedirectInfo{{ID: "c", Addr: "addr-c", Records: 7}},
		},
		Batch: &ReplicaBatch{Pushes: []*ReplicaPush{{
			OriginID: "b", OriginAddr: "addr-b",
			Fallbacks: []RedirectInfo{{ID: "b1", Addr: "addr-b1", Records: 20}},
		}}},
		Status: &Status{QueriesShed: 3},
	}
	data, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Query.Budget != 750*time.Millisecond {
		t.Fatalf("budget changed: %v", got.Query.Budget)
	}
	rd := got.QueryRep.Redirects[0]
	if rd.Records != 42 || len(rd.Alternates) != 2 || rd.Alternates[1].Addr != "addr-b2" {
		t.Fatalf("redirect alternates changed: %+v", rd)
	}
	if len(got.Report.Children) != 1 || got.Report.Children[0].Records != 7 {
		t.Fatalf("report children changed: %+v", got.Report.Children)
	}
	if fb := got.Batch.Pushes[0].Fallbacks; len(fb) != 1 || fb[0].ID != "b1" {
		t.Fatalf("replica fallbacks changed: %+v", fb)
	}
	if got.Status.QueriesShed != 3 {
		t.Fatalf("queries-shed count changed: %d", got.Status.QueriesShed)
	}
}
