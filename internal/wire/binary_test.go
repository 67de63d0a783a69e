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
	return FromSummary(sum)
}

// setAndBloomSummaryDTO builds a summary DTO with every section: a
// histogram, a value set and a Bloom filter, the Bloom section last.
func setAndBloomSummaryDTO() *SummaryDTO {
	return &SummaryDTO{
		Records: 120, Buckets: 32, Min: 0, Max: 1,
		Hists: []HistDTO{{Attr: 0, Total: 120, Counts: []uint32{60, 60}}},
		Sets: []SetDTO{{Attr: 1, Counts: map[string]uint32{
			"s1.m2": 80, "s3.v9": 40,
		}}},
		Blooms: []BloomDTO{{Attr: 2, NumBit: 128, Hashes: 3, N: 120, Bits: []uint64{0xdead, 0xbeef}}},
	}
}

// sampleMessages is the codec's one table: every wire kind and every
// payload field the codec must carry appears in at least one row.
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
			Summary: dto, Depth: 3, Descendants: 9, Kids: true,
			Children: []RedirectInfo{{ID: "k", Addr: "ka", Records: 11, Alternates: alt}},
			Version:  77,
		}},
		// Version-only report: summary omitted, version and the hash of the
		// ancestry held set, epoch-stamped like everything a server sends.
		{Kind: KindSummaryReport, From: "n3b", Epoch: 12, Report: &SummaryReport{
			Depth: 3, Descendants: 9, Version: 0xfeedbeef, Have: 0xa1b2c3d4e5f60718, Kids: true,
			Children: []RedirectInfo{{ID: "k", Addr: "ka", Records: 11}},
		}},
		// The steady-state report: version only, children absent (the parent
		// holds them).
		{Kind: KindSummaryReport, From: "n3g", Epoch: 12, Report: &SummaryReport{
			Depth: 2, Descendants: 4, Version: 0xfeedbeef, Have: 0xa1b2c3d4e5f60718,
		}},
		// A reporter whose last child left: the children stated, and empty.
		{Kind: KindSummaryReport, From: "n3h", Epoch: 12, Report: &SummaryReport{
			Depth: 1, Version: 0xfeedbeef, Have: 0xa1b2c3d4e5f60718, Kids: true,
		}},
		// A reporter whose replicas did not match the digest its last ack
		// stated asks for the list.
		{Kind: KindSummaryReport, From: "n3i", Epoch: 12, Report: &SummaryReport{
			Depth: 1, Version: 0xfeedbeef, Have: 0xa1b2c3d4e5f60718, NeedList: true,
		}},
		// The first report after a join: the summary in full and the hash of
		// whatever ancestry the joiner still holds.
		{Kind: KindSummaryReport, From: "n3d", Addr: "addr3", Epoch: 2, Report: &SummaryReport{
			Summary: dto, Depth: 1, Version: 5, Have: 0x0102030405060708,
		}},
		// A full report that names its children and asks for the list: every
		// presence bit a report has.
		{Kind: KindSummaryReport, From: "n3u", Addr: "addr3", Epoch: 4, Report: &SummaryReport{
			Summary: dto, Depth: 2, Descendants: 1, Version: 78, Have: 0x1112131415161718,
			Kids: true, Children: []RedirectInfo{{ID: "k", Addr: "ka", Records: 3}}, NeedList: true,
		}},
		// A value set beside a Bloom filter: every summary section.
		{Kind: KindSummaryReport, From: "n3c", Report: &SummaryReport{
			Version: 41, Depth: 2, Summary: setAndBloomSummaryDTO(),
		}},
		// A branch over owners with view revisions: the summed revision rides
		// in the summary header.
		{Kind: KindSummaryReport, From: "n3e", Epoch: 3, Report: &SummaryReport{
			Version: 9, Depth: 1, Summary: func() *SummaryDTO {
				s := *dto
				s.PolicyRev = 1<<40 + 7
				return &s
			}(),
		}},
		{Kind: KindReplicaBatch, From: "n5", Epoch: 7, Batch: &ReplicaBatch{Pushes: []*ReplicaPush{
			{OriginID: "p1", OriginAddr: "pa1", Summary: dto, Level: 1, Version: 5},
			// A full entry with fallbacks, three levels away.
			{OriginID: "p2", OriginAddr: "pa2", Summary: bloomed, Level: 3, Fallbacks: alt, Version: 2},
			// Tag-only entry: origin and tag, nothing else.
			{OriginID: "p3", Tag: 0xfeedfacecafebeef},
			// Ancestor push: the origin's local summary.
			{OriginID: "p4", OriginAddr: "pa4", Summary: bloomed,
				Ancestor: true, Level: 2, Fallbacks: alt, Version: 88},
			{OriginID: "p5", OriginAddr: "pa5", Version: 41, Level: 1, Summary: setAndBloomSummaryDTO()},
			nil,
		}}},
		// Histogram counts at the uvarint boundaries: one byte up to 127,
		// two from 128, four at 2^21, five at the top of uint32.
		{Kind: KindSummaryReport, From: "n3f", Report: &SummaryReport{Version: 6, Depth: 1, Summary: &SummaryDTO{
			Records: 255, Buckets: 4, Max: 1,
			Hists: []HistDTO{{Attr: 0, Total: 255, Counts: []uint32{0, 127, 128, 0}}},
		}}},
		{Kind: KindReplicaBatch, From: "n5c", Batch: &ReplicaBatch{Pushes: []*ReplicaPush{{
			OriginID: "p7", OriginAddr: "pa7", Level: 1, Version: 8, Summary: &SummaryDTO{
				Records: 1<<21 + 1<<32 - 1, Buckets: 2, Max: 1,
				Hists: []HistDTO{{Attr: 0, Total: 1<<21 + 1<<32 - 1, Counts: []uint32{1 << 21, math.MaxUint32}}},
			}}}}},
		// An empty list: the sender refreshes nothing here any more.
		{Kind: KindReplicaBatch, From: "n5b", Addr: "addr5", Epoch: 7, Batch: &ReplicaBatch{}},
		{Kind: KindQuery, From: "cli", Query: &QueryDTO{
			ID: "q1", Requester: "alice", Start: true, Scope: -1, Budget: 750 * time.Millisecond,
			Preds: []query.Predicate{
				{Attr: "cpu", Op: query.Range, Lo: 0.25, Hi: math.Inf(1)},
				{Attr: "os", Op: query.Eq, Str: "linux"},
			},
			TraceID: "74ace5f00d15c0de", Trace: true, Path: []string{"root", "mid"},
		}},
		// Client-cache fingerprint request and revalidation.
		{Kind: KindQuery, From: "cli", Addr: "ca", Query: &QueryDTO{
			ID: "q2", Requester: "tenant-a", Start: true, Scope: -1,
			WantFingerprint: true,
		}},
		{Kind: KindQuery, From: "cli", Query: &QueryDTO{
			ID: "q3", Requester: "tenant-b", Scope: 2,
			CacheFingerprint: 0xdeadbeef,
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
			Fingerprint: 17,
		}},
		// Coarse answer (the estimate rides behind the Coarse bit) and the
		// NotModified revalidation answer.
		{Kind: KindQueryReply, From: "n6b", Addr: "sa", QueryRep: &QueryReply{
			Coarse: true, CoarseEstimate: 41.25, Fingerprint: 0xcafe,
		}},
		{Kind: KindQueryReply, From: "n6c", QueryRep: &QueryReply{
			NotModified: true, Fingerprint: 0xdeadbeef,
		}},
		// A reserved kind is still an envelope that round-trips: the transport
		// tests send KindHeartbeat as their no-op message.
		{Kind: KindHeartbeat, From: "n7", Epoch: 3},
		{Kind: KindLeave, From: "n9", Addr: "addr9"},
		{Kind: KindAck, From: "n10"},
		// Acks carrying delta-dissemination feedback.
		{Kind: KindAck, From: "n10b", Epoch: 2, Ack: &AckInfo{
			HaveVersion: 42, NeedFull: true, NeedFullOrigins: []string{"o1", "o2"},
		}},
		{Kind: KindAck, From: "n10c", Ack: &AckInfo{HaveVersion: 0xfeedbeef}},
		// The steady-state report ack: the version held and the digest of
		// the replica set the acker refreshes at the reporter.
		{Kind: KindAck, From: "n10g", Epoch: 4, Ack: &AckInfo{
			HaveVersion: 0xfeedbeef, HeldCount: 11, HeldDigest: 0x8899aabbccddeeff,
		}},
		// Report acks whose ancestry verdict is the content: the report's
		// Have did not match. n10c above is the matching case.
		{Kind: KindAck, From: "n10d", Epoch: 4, Ack: &AckInfo{HaveVersion: 7, Ancestry: &Ancestry{
			RootPath: []string{"root", "mid", "n10d"}, PathAddrs: []string{"ra", "ma", "na"},
			Siblings: []RedirectInfo{{ID: "sib", Addr: "sa"}},
		}}},
		{Kind: KindAck, From: "n10e", Epoch: 4, Ack: &AckInfo{NeedFull: true, Ancestry: &Ancestry{
			RootPath: []string{"n10e"}, PathAddrs: []string{"na"},
		}}},
		// Present but empty: the presence byte, not the content, says "apply".
		{Kind: KindAck, From: "n10f", Ack: &AckInfo{Ancestry: &Ancestry{}}},
		// Split-brain probe and its reply.
		{Kind: KindRootProbe, From: "r2", Addr: "r2a", Epoch: 5,
			RootProbe: &RootProbe{RootID: "r2", RootAddr: "r2a"}},
		{Kind: KindRootProbeReply, From: "n", Addr: "na", Epoch: 9,
			RootProbe: &RootProbe{RootID: "r1", RootAddr: "r1a"}},
		{Kind: KindError, From: "n11", Error: "live: something broke"},
		{Kind: KindStatus, From: "mon"},
		{Kind: KindStatusReply, From: "n12", Status: &Status{
			ID: "n12", Addr: "addr12", ParentID: "n2", IsRoot: false,
			Children: 4, Replicas: 7, Owners: 2, BranchRecords: 100, LocalRecords: 25,
			RootPath: []string{"root", "n2", "n12"}, QueriesServed: 9, RedirectsIssued: 17,
			SummariesRecv: 5, QueriesShed: 1, SummaryErrors: 2,
			Transport:              &TransportStatus{Dials: 1, Reuses: 8, Calls: 9, BytesSent: 1000, BytesRecv: 2000, P50Micros: 120, P99Micros: 900},
			SummaryRebuildsSkipped: 30, ReportsSuppressed: 12,
			ReplicaPushDelta: 40, ReplicaPushFull: 6,
		}},
	}
}

// TestBinaryRoundTripAllKinds checks every row of the table survives the
// codec exactly, stamped with the one version.
func TestBinaryRoundTripAllKinds(t *testing.T) {
	for i, msg := range sampleMessages(t) {
		data, err := Encode(msg)
		if err != nil {
			t.Fatalf("row %d kind %d: %v", i, msg.Kind, err)
		}
		if data[0] != binMagic || data[1] != binVersion {
			t.Fatalf("row %d kind %d: header % x, want magic %#x version %d", i, msg.Kind, data[:2], binMagic, binVersion)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("row %d kind %d: %v", i, msg.Kind, err)
		}
		if !reflect.DeepEqual(msg, got) {
			t.Fatalf("row %d kind %d changed across the codec:\nsent %+v\ngot  %+v", i, msg.Kind, msg, got)
		}
	}
}

// TestCoarseEstimateRidesBehindCoarse: the estimate is written only on
// coarse answers, so a full answer does not pay its eight bytes.
func TestCoarseEstimateRidesBehindCoarse(t *testing.T) {
	full, err := Encode(&Message{Kind: KindQueryReply, QueryRep: &QueryReply{}})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Encode(&Message{Kind: KindQueryReply, QueryRep: &QueryReply{Coarse: true, CoarseEstimate: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse)-len(full) != 8 {
		t.Fatalf("coarse reply is %d bytes, full reply %d: want exactly the 8-byte estimate between them", len(coarse), len(full))
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

// TestBinaryRejectsOtherVersions: there is one version. Every other version
// byte and a payload in another codec altogether (gob's framing starts with
// a byte count, never binMagic) are errors, each counted.
func TestBinaryRejectsOtherVersions(t *testing.T) {
	valid, err := Encode(&Message{Kind: KindAck, From: "n", Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("setup: %v", err)
	}
	inputs := map[string][]byte{}
	for _, ver := range []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18} {
		relabelled := bytes.Clone(valid)
		relabelled[1] = ver
		inputs["version "+strconv.Itoa(int(ver))] = relabelled
	}
	// The opening bytes of what the deleted gob codec wrote for a Message
	// (captured at commit c2cbb4a): a byte count, then type descriptors.
	inputs["gob"] = []byte{
		0xff, 0xd9, 0x7f, 0x03, 0x01, 0x01, 0x07, 'M', 'e', 's', 's', 'a', 'g', 'e', 0x01, 0xff,
		0x80, 0x00, 0x01, 0x11, 0x01, 0x04, 'K', 'i', 'n', 'd', 0x01, 0x06, 0x00, 0x01, 0x04, 'F',
		'r', 'o', 'm', 0x01, 0x0c, 0x00, 0x01, 0x04, 'A', 'd', 'd', 'r', 0x01, 0x0c, 0x00, 0x01,
	}
	for name, data := range inputs {
		before := codecCounters.decodeErrors.Load()
		if m, err := Decode(data); err == nil {
			t.Errorf("%s: decoded as %+v, want an error", name, m)
		}
		if got := codecCounters.decodeErrors.Load() - before; got != 1 {
			t.Errorf("%s: roads_wire_decode_errors_total moved by %d, want 1", name, got)
		}
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

// TestBinaryCorruptSummaryTail flips bytes inside a summary's tail (the
// Bloom bits that end it) one at a time: the decoder must never panic, and
// whatever decodes must re-encode cleanly (the fuzz fixed-point property,
// pinned here for that section specifically).
func TestBinaryCorruptSummaryTail(t *testing.T) {
	// Version 0 keeps the report's trailing version varint to one byte, so
	// the summary's tail sits right before it.
	msg := &Message{Kind: KindSummaryReport, From: "srv",
		Report: &SummaryReport{Summary: setAndBloomSummaryDTO()}}
	data, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupting the last 24 bytes covers the Bloom bits and the few
	// envelope bytes after them.
	for i := len(data) - 24; i < len(data); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := bytes.Clone(data)
			mut[i] ^= flip
			m, err := Decode(mut)
			if err != nil {
				continue
			}
			if _, err := Encode(m); err != nil {
				t.Fatalf("byte %d^%#x: decoded message failed to re-encode: %v", i, flip, err)
			}
		}
	}
}

// TestBinaryRejectsRetiredUrgentBits: up to version 15 a report's presence
// byte and a full replica entry's flags had an urgent bit. A frame setting
// either is a decode error, counted like any other.
func TestBinaryRejectsRetiredUrgentBits(t *testing.T) {
	report, err := Encode(&Message{Kind: KindSummaryReport, From: "p", Epoch: 1,
		Report: &SummaryReport{Depth: 1, Version: 3, Summary: &SummaryDTO{Buckets: 4, Max: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := Encode(&Message{Kind: KindReplicaBatch, From: "p", Epoch: 1,
		Batch: &ReplicaBatch{Pushes: []*ReplicaPush{{OriginID: "o", OriginAddr: "a", Level: 1, Version: 3,
			Summary: &SummaryDTO{Buckets: 4, Max: 1}}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Where the flags sit: after the envelope, and in a batch after the
	// entry count, the presence byte and the origin.
	reportAt := len(envelope(KindSummaryReport, hasReport))
	entryAt := len(envelope(KindReplicaBatch, hasBatch)) + 1 + 1 + 2
	for _, tc := range []struct {
		name string
		data []byte
		at   int
		bit  byte
	}{
		{"report's urgent bit", report, reportAt, reportRetired},
		{"full entry's urgent bit", entry, entryAt, pushRetired},
	} {
		if _, err := Decode(tc.data); err != nil {
			t.Fatalf("%s: setup frame does not decode: %v", tc.name, err)
		}
		data := bytes.Clone(tc.data)
		data[tc.at] |= tc.bit
		before := codecCounters.decodeErrors.Load()
		if m, err := Decode(data); err == nil {
			t.Errorf("%s: decoded as %+v, want an error", tc.name, m)
		}
		if got := codecCounters.decodeErrors.Load() - before; got != 1 {
			t.Errorf("%s: roads_wire_decode_errors_total moved by %d, want 1", tc.name, got)
		}
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

// FuzzDecode fuzzes the decoder: arbitrary input must never panic, and any
// input that decodes must reach a fixed point after one re-encode
// (decode(encode(decode(x))) == decode(x)). Seeds: every row of the table,
// each also truncated by a byte and relabelled with the neighbouring version
// bytes, to steer the fuzzer at the tail parsing and the version check.
func FuzzDecode(f *testing.F) {
	for _, msg := range sampleMessages(f) {
		data, err := Encode(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])
		for _, ver := range []byte{binVersion - 1, binVersion + 1} {
			relabel := bytes.Clone(data)
			relabel[1] = ver
			f.Add(relabel)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, binVersion})
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

// BenchmarkCodec measures the codec on the hot replica shape (one push
// carrying a 200-bucket summary with value sets): Encode, Decode, and the
// full round trip. The encode path uses the pooled buffer exactly as the
// transports do. The sub-benchmarks keep the names their archived runs used;
// the gob arms ended with the gob codec (EXPERIMENTS.md, "Archived baselines").
func BenchmarkCodec(b *testing.B) {
	msg := &Message{
		Kind: KindReplicaBatch,
		From: "srv001", Addr: "10.0.0.1:7000",
		Batch: &ReplicaBatch{Pushes: []*ReplicaPush{{
			OriginID: "srv002", OriginAddr: "10.0.0.2:7000",
			Summary: sampleSummaryDTO(b, 200, 100), Level: 1,
			Fallbacks: []RedirectInfo{{ID: "srv003", Addr: "10.0.0.3:7000", Records: 50}},
		}}},
	}
	binData, err := Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("payload bytes: %d", len(binData))

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
	b.Run("decode/binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(binData); err != nil {
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
// they return a frame buffer to the pool right after Decode: for every row
// of the table, overwriting the input afterwards leaves the decoded message
// exactly as it was.
func TestDecodedMessagesSurviveFrameReuse(t *testing.T) {
	for _, msg := range sampleMessages(t) {
		data, err := Encode(msg)
		if err != nil {
			t.Fatalf("kind %d: %v", msg.Kind, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("kind %d: %v", msg.Kind, err)
		}
		for i := range data {
			data[i] ^= 0xa5
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("kind %d: the decoded message changed with its input buffer:\ngot  %+v\nwant %+v", msg.Kind, got, msg)
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
