package wire

import (
	"bytes"
	"testing"
)

// envelope is the bytes every golden message below starts with: magic,
// version, kind, then From "p", empty Addr and Error, and the presence bits.
func envelope(kind Kind, bits uint64) []byte {
	return appendUvarint([]byte{binMagic, binVersion, byte(kind), 1, 'p', 0, 0}, bits)
}

// goldenSummary is the encoding of SummaryDTO{Origin: "o", Version: 3,
// Buckets: 4, Max: 1}.
var goldenSummary = []byte{
	1, 'o', // Origin
	3, 0, 0, 8, // Version, Records, PolicyRev, Buckets 4 zigzag
	0, 0, 0, 0, 0, 0, 0, 0, // Min
	0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // Max 1.0
	0, 0, 0, // no histograms, value sets or Bloom filters
	0, // Mode
}

// TestBinaryGoldenBytes pins the exact bytes of the steady-state
// maintenance frames — the version-only report with its ancestry hash and
// without its children, the report ack with the replica-set digest, with and
// without ancestry, and the tag-only entry of a list batch — of a summary's
// header, of where the urgent, kids and need-list bits sit on a report and
// the urgent bit on a full entry, and of a query's fields in order, so a
// layout change cannot go in without this table (and binVersion) changing in
// the same commit.
func TestBinaryGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  *Message
		want []byte
	}{
		{"report ack stating the replica-set digest",
			&Message{Kind: KindAck, From: "p", Epoch: 1,
				Ack: &AckInfo{HaveVersion: 3, HeldCount: 5, HeldDigest: 0x0807060504030201}},
			append(envelope(KindAck, hasAckInfo),
				3,                      // HaveVersion
				0,                      // NeedFull
				0,                      // no NeedFullOrigins
				0,                      // no ancestry
				5,                      // HeldCount
				1, 2, 3, 4, 5, 6, 7, 8, // HeldDigest, little-endian
				1, // Epoch
			)},
		{"list batch of one tag-only entry",
			&Message{Kind: KindReplicaBatch, From: "p", Epoch: 1,
				Batch: &ReplicaBatch{Pushes: []*ReplicaPush{{OriginID: "o", Tag: 0x1817161514131211}}}},
			append(envelope(KindReplicaBatch, hasBatch),
				1,      // one entry
				1,      // present
				1, 'o', // OriginID
				0,                                              // flags: no body
				0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // Tag
				1, // Epoch
			)},
		{"version-only report",
			&Message{Kind: KindSummaryReport, From: "p", Epoch: 1,
				Report: &SummaryReport{Depth: 1, Version: 3, Have: 0x2827262524232221}},
			append(envelope(KindSummaryReport, hasReport),
				0,    // no summary, no children
				2, 0, // Depth 1 and Descendants 0, zigzag
				3,                                              // Version
				0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, // Have
				1, // Epoch
			)},
		{"version-only report naming one child and asking for the list",
			&Message{Kind: KindSummaryReport, From: "p", Epoch: 1,
				Report: &SummaryReport{Depth: 2, Descendants: 1, Version: 3, Kids: true, NeedList: true,
					Children: []RedirectInfo{{ID: "k", Addr: "a", Records: 2}}}},
			append(envelope(KindSummaryReport, hasReport),
				reportKids|reportNeedList, // presence byte: children, need list
				4, 2,                      // Depth 2 and Descendants 1, zigzag
				1, 1, 'k', 1, 'a', 2, 0, // one child: ID, Addr, Records, no alternates
				3,                      // Version
				0, 0, 0, 0, 0, 0, 0, 0, // Have
				1, // Epoch
			)},
		{"full report, summary header",
			&Message{Kind: KindSummaryReport, From: "p", Epoch: 1,
				Report: &SummaryReport{Depth: 1, Version: 3, Summary: &SummaryDTO{
					Origin: "o", Version: 3, Records: 2, PolicyRev: 5, Buckets: 4, Min: 0, Max: 1}}},
			append(envelope(KindSummaryReport, hasReport),
				1,      // summary present
				1, 'o', // Origin
				3,                      // Version
				2,                      // Records
				5,                      // PolicyRev
				8,                      // Buckets 4, zigzag
				0, 0, 0, 0, 0, 0, 0, 0, // Min
				0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // Max 1.0, little-endian
				0, 0, 0, // no histograms, value sets or Bloom filters
				0,    // Mode
				2, 0, // Depth 1 and Descendants 0, zigzag
				3,                      // Version
				0, 0, 0, 0, 0, 0, 0, 0, // Have
				1, // Epoch
			)},
		{"full report, histogram counts",
			&Message{Kind: KindSummaryReport, From: "p", Epoch: 1,
				Report: &SummaryReport{Depth: 1, Version: 3, Summary: &SummaryDTO{
					Origin: "o", Version: 3, Buckets: 4, Max: 1,
					Hists: []HistDTO{{Attr: 0, Total: 1<<21 + 255, Counts: []uint32{0, 127, 128, 1 << 21}}}}}},
			append(envelope(KindSummaryReport, hasReport),
				1,      // summary present
				1, 'o', // Origin
				3, 0, 0, 8, // Version, Records, PolicyRev, Buckets 4 zigzag
				0, 0, 0, 0, 0, 0, 0, 0, // Min
				0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // Max 1.0
				1,                      // one histogram
				0,                      // Attr 0, zigzag
				0xff, 0x81, 0x80, 0x01, // Total 2^21+255, uvarint
				4,          // four buckets
				0x00,       // 0
				0x7f,       // 127: the largest one-byte count
				0x80, 0x01, // 128
				0x80, 0x80, 0x80, 0x01, // 2^21
				0, 0, // no value sets or Bloom filters
				0,       // Mode
				2, 0, 3, // Depth, Descendants, Version
				0, 0, 0, 0, 0, 0, 0, 0, // Have
				1, // Epoch
			)},
		{"urgent full report",
			&Message{Kind: KindSummaryReport, From: "p", Epoch: 1,
				Report: &SummaryReport{Depth: 1, Version: 3, Urgent: true, Summary: &SummaryDTO{
					Origin: "o", Version: 3, Buckets: 4, Max: 1}}},
			append(append(envelope(KindSummaryReport, hasReport),
				reportSummary|reportUrgent), // presence byte: summary, urgent
				append(goldenSummary,
					2, 0, 3, // Depth, Descendants, Version
					0, 0, 0, 0, 0, 0, 0, 0, // Have
					1, // Epoch
				)...)},
		{"list batch of one urgent full entry",
			&Message{Kind: KindReplicaBatch, From: "p", Epoch: 1,
				Batch: &ReplicaBatch{Pushes: []*ReplicaPush{{OriginID: "o", OriginAddr: "a", Level: 1, Version: 3, Urgent: true,
					Summary: &SummaryDTO{Origin: "o", Version: 3, Buckets: 4, Max: 1}}}}},
			append(append(envelope(KindReplicaBatch, hasBatch),
				1,      // one entry
				1,      // present
				1, 'o', // OriginID
				pushSummary|pushBody|pushUrgent, // flags
				1, 'a',                          // OriginAddr
			), append(goldenSummary,
				2, // Level 1, zigzag
				0, // no fallbacks
				3, // Version
				1, // Epoch
			)...)},
		{"report ack, ancestry held",
			&Message{Kind: KindAck, From: "p", Epoch: 1, Ack: &AckInfo{HaveVersion: 3}},
			append(envelope(KindAck, hasAckInfo),
				3, // HaveVersion
				0, // NeedFull
				0, // no NeedFullOrigins
				0, // no ancestry
				0, // HeldCount 0: no digest stated
				1, // Epoch
			)},
		{"report ack with ancestry",
			&Message{Kind: KindAck, From: "p", Epoch: 1, Ack: &AckInfo{HaveVersion: 3, Ancestry: &Ancestry{
				RootPath: []string{"r"}, PathAddrs: []string{"a"}, Siblings: []RedirectInfo{{ID: "s", Addr: "b"}}}}},
			append(envelope(KindAck, hasAckInfo),
				3, 0, 0, // HaveVersion, NeedFull, NeedFullOrigins
				1,         // ancestry present
				1, 1, 'r', // RootPath
				1, 1, 'a', // PathAddrs
				1, 1, 's', 1, 'b', 0, 0, // Siblings: ID, Addr, Records, no alternates
				0, // HeldCount 0
				1, // Epoch
			)},
		{"query, no priority byte between the path and the fingerprint",
			&Message{Kind: KindQuery, From: "p", Query: &QueryDTO{
				ID: "q", Requester: "r", Start: true, Scope: -1, Budget: 2, WantFingerprint: true}},
			append(envelope(KindQuery, hasQuery),
				1, 'q', // ID
				1, 'r', // Requester
				1,    // Start
				1,    // Scope -1, zigzag
				4,    // Budget 2ns, zigzag
				0,    // no predicates
				0, 0, // TraceID, Trace
				0, // no path
				0, // CacheFingerprint
				1, // WantFingerprint
				0, // Epoch
			)},
	} {
		got, err := Encode(tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s encodes as\n  % x\nwant\n  % x", tc.name, got, tc.want)
		}
	}
}

// TestBinaryHostileMaintenanceFields: the counts and fixed-width values of
// the maintenance frames are guarded like the rest — a count the remaining
// bytes cannot hold fails before anything is allocated, and a digest, tag,
// Have or histogram count cut short is a truncation, not a zero.
func TestBinaryHostileMaintenanceFields(t *testing.T) {
	huge := appendUvarint(nil, 1<<40)
	// A full report up to the bucket count of its summary's one histogram.
	hist := func(tail ...byte) []byte {
		b := append(envelope(KindSummaryReport, hasReport), 1, 1, 'o', 3, 0, 0, 8)
		b = append(b, make([]byte, 16)...) // Min, Max
		return append(append(b, 1, 0, 4), tail...)
	}
	for name, data := range map[string][]byte{
		"histogram bucket count":       hist(huge...),
		"histogram count cut short":    hist(2, 0x05, 0x80),
		"histogram count over 32 bits": hist(1, 0x80, 0x80, 0x80, 0x80, 0x10),
		"batch entry count":            append(envelope(KindReplicaBatch, hasBatch), huge...),
		"digest cut short":             append(envelope(KindAck, hasAckInfo), 3, 0, 0, 0, 5, 1, 2, 3),
		"tag cut short":                append(envelope(KindReplicaBatch, hasBatch), 1, 1, 1, 'o', 0, 0x11, 0x12),
		"fallback count":               append(append(envelope(KindReplicaBatch, hasBatch), 1, 1, 1, 'o', pushBody, 0, 0), huge...),
		"have cut short":               append(envelope(KindSummaryReport, hasReport), 0, 2, 0, 3, 1, 2, 3, 4),
		"children count":               append(append(envelope(KindSummaryReport, hasReport), reportKids, 2, 0), huge...),
		"root path count":              append(append(envelope(KindAck, hasAckInfo), 3, 0, 0, 1), huge...),
		"path address count":           append(append(envelope(KindAck, hasAckInfo), 3, 0, 0, 1, 0), huge...),
		"sibling count":                append(append(envelope(KindAck, hasAckInfo), 3, 0, 0, 1, 0, 0), huge...),
		"ancestry flag, no content":    append(envelope(KindAck, hasAckInfo), 3, 0, 0, 1),
	} {
		if m, err := Decode(data); err == nil {
			t.Errorf("%s: decoded as %+v, want an error", name, m)
		}
	}
}

// TestTagOnlyEntryIsOriginAndTag: whatever else a tag-only entry is given,
// the size of a list batch that confirms n held replicas grows by the
// origin, one flag byte and the eight tag bytes per entry.
func TestTagOnlyEntryIsOriginAndTag(t *testing.T) {
	size := func(n int) int {
		b := &ReplicaBatch{}
		for i := 0; i < n; i++ {
			b.Pushes = append(b.Pushes, &ReplicaPush{OriginID: "srv001", Tag: uint64(i) + 1})
		}
		data, err := Encode(&Message{Kind: KindReplicaBatch, From: "p", Batch: b})
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	const perEntry = 1 + (1 + len("srv001")) + 1 + 8 // present, origin, flags, tag
	if got := size(9) - size(1); got != 8*perEntry {
		t.Fatalf("eight more tag-only entries cost %d bytes; want %d", got, 8*perEntry)
	}
}
