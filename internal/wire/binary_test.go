package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
)

// sampleSummaryDTO builds a realistic summary DTO (histogram + value set)
// for codec tests and benchmarks.
func sampleSummaryDTO(tb testing.TB, buckets, recs int) *SummaryDTO {
	tb.Helper()
	schema := testSchema()
	cfg := summary.DefaultConfig()
	cfg.Buckets = buckets
	sum := summary.MustNew(schema, cfg)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < recs; i++ {
		r := record.New(schema, strconv.Itoa(i), "owner")
		r.SetNum(0, rng.Float64())
		r.SetStr(1, []string{"linux", "bsd", "plan9"}[rng.Intn(3)])
		sum.AddRecord(r)
	}
	sum.Origin = "bench"
	sum.Version = 9
	return FromSummary(sum)
}

// sampleMessages returns one representative message per wire kind,
// exercising every payload field the codec must carry.
func sampleMessages(tb testing.TB) []*Message {
	tb.Helper()
	dto := sampleSummaryDTO(tb, 40, 30)
	bloomed := func() *SummaryDTO {
		schema := testSchema()
		cfg := summary.DefaultConfig()
		cfg.Buckets = 16
		cfg.Categorical = summary.UseBloom
		cfg.BloomBits = 128
		cfg.BloomHashes = 3
		sum := summary.MustNew(schema, cfg)
		r := record.New(schema, "r", "o")
		r.SetNum(0, 0.5)
		r.SetStr(1, "linux")
		sum.AddRecord(r)
		return FromSummary(sum)
	}()
	alt := []RedirectInfo{{ID: "alt1", Addr: "a1", Records: 3}, {ID: "alt2", Addr: "a2"}}
	return []*Message{
		{Kind: KindJoin, From: "n1", Addr: "addr1", Join: &Join{ID: "n1", Addr: "addr1"}},
		{Kind: KindJoinReply, From: "n2", JoinReply: &JoinReply{
			Accepted: true, ParentID: "n2", ParentAddr: "addr2",
			Children: []ChildInfo{{ID: "c", Addr: "ca", Depth: 2, Descendants: 5}},
		}},
		{Kind: KindSummaryReport, From: "n3", Addr: "addr3", Report: &SummaryReport{
			Summary: dto, Depth: 3, Descendants: 9,
			Children: []RedirectInfo{{ID: "k", Addr: "ka", Records: 11, Alternates: alt}},
			Version:  77,
		}},
		// Version-only heartbeat report (v3): summary omitted, version set.
		{Kind: KindSummaryReport, From: "n3b", Report: &SummaryReport{
			Depth: 3, Descendants: 9, Version: 78,
			Children: []RedirectInfo{{ID: "k", Addr: "ka", Records: 11}},
		}},
		{Kind: KindReplicaPush, From: "n4", Replica: &ReplicaPush{
			OriginID: "o", OriginAddr: "oa", Branch: dto, Local: bloomed,
			Ancestor: true, Level: 2, Fallbacks: alt, Version: 88,
		}},
		{Kind: KindReplicaBatch, From: "n5", Batch: &ReplicaBatch{Pushes: []*ReplicaPush{
			{OriginID: "p1", OriginAddr: "pa1", Branch: dto, Level: 1},
			{OriginID: "p2", OriginAddr: "pa2", Branch: bloomed, Level: 3, Fallbacks: alt},
			// Version-only TTL refresh entry (v3): no summaries at all.
			{OriginID: "p3", OriginAddr: "pa3", Level: 2, Version: 99},
		}}},
		{Kind: KindQuery, From: "cli", Query: &QueryDTO{
			ID: "q1", Requester: "alice", Start: true, Scope: -1, Budget: 750 * time.Millisecond,
			Preds: []query.Predicate{
				{Attr: "cpu", Op: query.Range, Lo: 0.25, Hi: math.Inf(1)},
				{Attr: "os", Op: query.Eq, Str: "linux"},
			},
			TraceID: "74ace5f00d15c0de", Trace: true, Path: []string{"root", "mid"},
		}},
		{Kind: KindQueryReply, From: "n6", QueryRep: &QueryReply{
			Records: []RecordDTO{
				{ID: "r1", Owner: "orgA", Values: []record.Value{{Num: 0.5}, {Str: "linux"}}},
				{ID: "r2", Owner: "orgB", Values: []record.Value{{Num: 0.75}, {Str: "bsd"}}},
			},
			Redirects: []RedirectInfo{{ID: "t", Addr: "ta", Records: 42, Alternates: alt}},
			Trace: &TraceInfo{
				ServerID: "n6", EvalMicros: 180, LocalRecords: 2, Children: 3, Replicas: 5,
				MatchedChildren: []string{"t"}, MatchedReplicas: []string{"rep1", "rep2"},
			},
		}},
		{Kind: KindHeartbeat, From: "n7", Heartbeat: &Heartbeat{
			RootPath: []string{"root", "mid", "n7"}, PathAddrs: []string{"ra", "ma", "na"},
		}},
		{Kind: KindHeartbeatReply, From: "n8", Heartbeat: &Heartbeat{RootPath: []string{"n8"}},
			QueryRep: &QueryReply{Redirects: []RedirectInfo{{ID: "sib", Addr: "sa"}}}},
		{Kind: KindLeave, From: "n9", Addr: "addr9"},
		{Kind: KindAck, From: "n10"},
		// Ack carrying delta-dissemination feedback (v3).
		{Kind: KindAck, From: "n10b", Ack: &AckInfo{
			HaveVersion: 42, NeedFull: true, NeedFullOrigins: []string{"o1", "o2"},
		}},
		{Kind: KindError, From: "n11", Error: "live: something broke"},
		{Kind: KindStatus, From: "mon"},
		{Kind: KindStatusReply, From: "n12", Status: &Status{
			ID: "n12", Addr: "addr12", ParentID: "n2", IsRoot: false,
			Children: 4, Replicas: 7, Owners: 2, BranchRecords: 100, LocalRecords: 25,
			RootPath: []string{"root", "n2", "n12"}, QueriesServed: 9, RedirectsIssued: 17,
			SummariesRecv: 5, QueriesShed: 1, SummaryErrors: 2,
			Transport: &TransportStatus{Dials: 1, Reuses: 8, Calls: 9, BytesSent: 1000, BytesRecv: 2000, P50Micros: 120, P99Micros: 900},
			SummaryRebuildsSkipped: 30, ReportsSuppressed: 12,
			ReplicaPushDelta: 40, ReplicaPushFull: 6, AntiEntropyRounds: 3,
		}},
	}
}

// TestBinaryRoundTripAllKinds checks every message kind survives the
// binary codec exactly, and that both codecs decode to the same message.
func TestBinaryRoundTripAllKinds(t *testing.T) {
	for _, msg := range sampleMessages(t) {
		data, err := Encode(msg)
		if err != nil {
			t.Fatalf("kind %d: %v", msg.Kind, err)
		}
		if !IsBinary(data) {
			t.Fatalf("kind %d: Encode did not produce the binary codec", msg.Kind)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("kind %d: %v", msg.Kind, err)
		}
		if !reflect.DeepEqual(msg, got) {
			t.Fatalf("kind %d changed across the binary codec:\nsent %+v\ngot  %+v", msg.Kind, msg, got)
		}

		gobData, err := EncodeGob(msg)
		if err != nil {
			t.Fatalf("kind %d gob: %v", msg.Kind, err)
		}
		if IsBinary(gobData) {
			t.Fatalf("kind %d: gob payload sniffed as binary", msg.Kind)
		}
		viaGob, err := Decode(gobData)
		if err != nil {
			t.Fatalf("kind %d gob decode: %v", msg.Kind, err)
		}
		// Gob drops empty-vs-nil distinctions; compare through a second
		// binary trip so both sides are normalized the same way.
		a, _ := Encode(got)
		b, _ := Encode(viaGob)
		if !bytes.Equal(a, b) {
			t.Fatalf("kind %d: gob and binary decode disagree:\nbinary %+v\ngob    %+v", msg.Kind, got, viaGob)
		}
	}
}

// TestBinaryDeterministic checks identical messages encode to identical
// bytes (value-set maps are sorted), so payloads are cache- and
// diff-friendly.
func TestBinaryDeterministic(t *testing.T) {
	msg := &Message{Kind: KindSummaryReport, From: "x", Report: &SummaryReport{Summary: sampleSummaryDTO(t, 30, 50)}}
	a, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("binary encoding is not deterministic")
	}
}

// encodeV1 hand-builds a version-1 binary payload — the envelope plus a
// query or query-reply payload exactly as the v1 encoder wrote them,
// without the v2 trace fields — so the compat test does not depend on the
// current encoder being able to write old versions.
func encodeV1(kind Kind, from string, q *QueryDTO, qr *QueryReply) []byte {
	b := []byte{binMagic, 1, byte(kind)}
	b = appendString(b, from)
	b = appendString(b, "") // Addr
	b = appendString(b, "") // Error
	var bits uint64
	if q != nil {
		bits |= hasQuery
	}
	if qr != nil {
		bits |= hasQueryRep
	}
	b = appendUvarint(b, bits)
	if q != nil {
		b = appendString(b, q.ID)
		b = appendString(b, q.Requester)
		b = appendBool(b, q.Start)
		b = appendVarint(b, int64(q.Scope))
		b = appendVarint(b, int64(q.Budget))
		b = appendUvarint(b, uint64(len(q.Preds)))
		for i := range q.Preds {
			p := &q.Preds[i]
			b = appendString(b, p.Attr)
			b = append(b, byte(p.Op))
			b = appendF64(b, p.Lo)
			b = appendF64(b, p.Hi)
			b = appendString(b, p.Str)
		}
	}
	if qr != nil {
		b = appendUvarint(b, uint64(len(qr.Records)))
		for i := range qr.Records {
			rec := &qr.Records[i]
			b = appendString(b, rec.ID)
			b = appendString(b, rec.Owner)
			b = appendUvarint(b, uint64(len(rec.Values)))
			for j := range rec.Values {
				b = appendF64(b, rec.Values[j].Num)
				b = appendString(b, rec.Values[j].Str)
			}
		}
		b = appendRedirects(b, qr.Redirects)
	}
	return b
}

// TestBinaryV1Compat checks the v2 decoder still accepts version-1
// payloads — the appended-fields compatibility rule in action: trace
// fields simply decode to their zero values.
func TestBinaryV1Compat(t *testing.T) {
	q := &QueryDTO{
		ID: "q1", Requester: "alice", Start: true, Scope: -1, Budget: time.Second,
		Preds: []query.Predicate{{Attr: "os", Op: query.Eq, Str: "linux"}},
	}
	got, err := Decode(encodeV1(KindQuery, "cli", q, nil))
	if err != nil {
		t.Fatalf("v1 query: %v", err)
	}
	if !reflect.DeepEqual(got.Query, q) {
		t.Fatalf("v1 query decoded wrong:\nwant %+v\ngot  %+v", q, got.Query)
	}
	if got.Query.Trace || got.Query.TraceID != "" || got.Query.Path != nil {
		t.Fatalf("v1 query grew trace fields: %+v", got.Query)
	}

	qr := &QueryReply{
		Records:   []RecordDTO{{ID: "r1", Owner: "o", Values: []record.Value{{Num: 0.5, Str: "x"}}}},
		Redirects: []RedirectInfo{{ID: "t", Addr: "ta", Records: 7}},
	}
	got, err = Decode(encodeV1(KindQueryReply, "srv", nil, qr))
	if err != nil {
		t.Fatalf("v1 query reply: %v", err)
	}
	if !reflect.DeepEqual(got.QueryRep, qr) {
		t.Fatalf("v1 query reply decoded wrong:\nwant %+v\ngot  %+v", qr, got.QueryRep)
	}
	if got.QueryRep.Trace != nil {
		t.Fatalf("v1 query reply grew a trace: %+v", got.QueryRep.Trace)
	}

	// A v1 payload with v2 trailing bytes must be rejected (no optional
	// suffix within one version).
	withTail := append(encodeV1(KindQuery, "cli", q, nil), 0)
	if _, err := Decode(withTail); err == nil {
		t.Fatal("v1 payload with trailing bytes must fail")
	}
}

// TestBinaryRejectsCorruptInput feeds the decoder truncations and
// mutations of every valid message: each must error (or decode cleanly,
// for mutations that happen to stay well-formed) — never panic.
func TestBinaryRejectsCorruptInput(t *testing.T) {
	for _, msg := range sampleMessages(t) {
		data, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		// Every truncation must fail: the codec has no optional suffix.
		for cut := 0; cut < len(data); cut++ {
			if _, err := Decode(data[:cut]); err == nil {
				t.Fatalf("kind %d: truncation at %d/%d decoded cleanly", msg.Kind, cut, len(data))
			}
		}
		// Single-byte mutations must not panic (they may still decode).
		for i := 0; i < len(data); i++ {
			mutated := append([]byte(nil), data...)
			mutated[i] ^= 0xff
			_, _ = Decode(mutated)
		}
	}
	// Unknown codec version.
	if _, err := Decode([]byte{binMagic, 99}); err == nil {
		t.Fatal("unknown binary version must fail")
	}
	// Trailing garbage after a valid message.
	data, _ := Encode(&Message{Kind: KindAck, From: "a"})
	if _, err := Decode(append(data, 0x00)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	// A length prefix far beyond the buffer must error, not allocate.
	huge := []byte{binMagic, binVersion, byte(KindAck)}
	huge = appendUvarint(huge, 1<<40) // From-string "length"
	if _, err := Decode(huge); err == nil {
		t.Fatal("oversized length prefix must fail")
	}
}

// TestBinaryRedirectDepthBound checks pathological alternate nesting is
// rejected instead of recursing without bound.
func TestBinaryRedirectDepthBound(t *testing.T) {
	ri := RedirectInfo{ID: "x", Addr: "y"}
	for i := 0; i < 2*maxRedirectDepth; i++ {
		ri = RedirectInfo{ID: "x", Addr: "y", Alternates: []RedirectInfo{ri}}
	}
	msg := &Message{Kind: KindQueryReply, QueryRep: &QueryReply{Redirects: []RedirectInfo{ri}}}
	data, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Fatal("over-deep alternate nesting must be rejected")
	}
}

// FuzzDecode fuzzes the sniffing decoder: arbitrary input must never
// panic, and any input that decodes must reach a fixed point after one
// re-encode (decode(encode(decode(x))) == decode(x)).
func FuzzDecode(f *testing.F) {
	for _, msg := range sampleMessages(f) {
		data, err := Encode(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		gobData, err := EncodeGob(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(gobData)
	}
	f.Add([]byte{})
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, binVersion})
	// Version-1 payloads: the decoder must keep accepting them.
	f.Add(encodeV1(KindQuery, "cli", &QueryDTO{ID: "q", Preds: []query.Predicate{{Attr: "a", Op: query.Eq, Str: "v"}}}, nil))
	f.Add(encodeV1(KindQueryReply, "srv", nil, &QueryReply{Redirects: []RedirectInfo{{ID: "t", Addr: "ta"}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		re2, err := Encode(m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("codec has no fixed point:\nfirst  %x\nsecond %x", re, re2)
		}
	})
}

// BenchmarkCodec compares the binary codec against the gob baseline on the
// hot replica-push shape (a 200-bucket summary with value sets), measuring
// Encode, Decode, and the full round trip. The binary encode path uses the
// pooled buffer exactly as the transports do.
func BenchmarkCodec(b *testing.B) {
	msg := &Message{
		Kind: KindReplicaPush,
		From: "srv001", Addr: "10.0.0.1:7000",
		Replica: &ReplicaPush{
			OriginID: "srv002", OriginAddr: "10.0.0.2:7000",
			Branch: sampleSummaryDTO(b, 200, 100), Level: 1,
			Fallbacks: []RedirectInfo{{ID: "srv003", Addr: "10.0.0.3:7000", Records: 50}},
		},
	}
	binData, err := Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	gobData, err := EncodeGob(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("payload bytes: binary=%d gob=%d", len(binData), len(gobData))

	b.Run("encode/gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EncodeGob(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bp := GetBuf()
			data, err := AppendEncode((*bp)[:0], msg)
			if err != nil {
				b.Fatal(err)
			}
			*bp = data
			PutBuf(bp)
		}
	})
	b.Run("decode/gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(gobData); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(binData); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("roundtrip/gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := EncodeGob(msg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("roundtrip/binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bp := GetBuf()
			data, err := AppendEncode((*bp)[:0], msg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
			*bp = data
			PutBuf(bp)
		}
	})
}

// TestDecodedMessagesSurviveFrameReuse pins what transports rely on when
// they return a frame buffer to the pool right after Decode: for every
// message kind, in both codecs, overwriting the input afterwards leaves the
// decoded message exactly as it was.
func TestDecodedMessagesSurviveFrameReuse(t *testing.T) {
	for _, msg := range sampleMessages(t) {
		for name, encode := range map[string]func(*Message) ([]byte, error){"binary": Encode, "gob": EncodeGob} {
			data, err := encode(msg)
			if err != nil {
				t.Fatalf("kind %d %s: %v", msg.Kind, name, err)
			}
			want, err := Decode(bytes.Clone(data))
			if err != nil {
				t.Fatalf("kind %d %s: %v", msg.Kind, name, err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("kind %d %s: %v", msg.Kind, name, err)
			}
			for i := range data {
				data[i] ^= 0xa5
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("kind %d %s: the decoded message changed with its input buffer:\ngot  %+v\nwant %+v", msg.Kind, name, got, want)
			}
		}
	}
}

// TestQueryReplyValueSlab: a reply's record values are decoded into shared
// backing storage, so appending to one record's values must not reach into
// the next record's, and records of differing widths still decode exactly.
func TestQueryReplyValueSlab(t *testing.T) {
	msg := &Message{Kind: KindQueryReply, From: "s", QueryRep: &QueryReply{Records: []RecordDTO{
		{ID: "r1", Owner: "o", Values: []record.Value{{Num: 1}, {Str: "a"}}},
		{ID: "r2", Owner: "o", Values: []record.Value{{Num: 2}, {Str: "b"}}},
		{ID: "r3", Owner: "p"},
		{ID: "r4", Owner: "p", Values: []record.Value{{Num: 4}, {Str: "d"}, {Num: 5}, {Str: "e"}, {Num: 6}}},
	}}}
	data, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("decoded %+v; want %+v", got.QueryRep, msg.QueryRep)
	}
	recs := got.QueryRep.Records
	recs[0].Values = append(recs[0].Values, record.Value{Num: 99})
	if recs[1].Values[0].Num != 2 {
		t.Fatal("appending to one record's values overwrote the next record's")
	}
}
