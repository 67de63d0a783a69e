package wire

import (
	"testing"

	"roads/internal/summary"
)

// TestKindValuesStable pins the wire values of the message kinds
// (KindReplicaPush is reserved but keeps its number).
func TestKindValuesStable(t *testing.T) {
	want := map[Kind]uint8{
		KindJoin: 1, KindJoinReply: 2, KindSummaryReport: 3, KindReplicaPush: 4,
		KindQuery: 5, KindQueryReply: 6, KindHeartbeat: 7, KindHeartbeatReply: 8,
		KindLeave: 9, KindAck: 10, KindError: 11, KindStatus: 12,
		KindStatusReply: 13, KindReplicaBatch: 14, KindRootProbe: 15, KindRootProbeReply: 16,
	}
	for k, v := range want {
		if uint8(k) != v {
			t.Fatalf("kind %d moved to %d; wire values must stay stable", v, uint8(k))
		}
	}
}

// TestReplicaBatchRoundTrip encodes a batch of pushes and checks it
// survives the round trip intact.
func TestReplicaBatchRoundTrip(t *testing.T) {
	schema := testSchema()
	s, err := summary.New(schema, summary.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Records = 42
	dto := FromSummary(s)
	msg := &Message{
		Kind: KindReplicaBatch,
		From: "parent",
		Addr: "parent-addr",
		Batch: &ReplicaBatch{Pushes: []*ReplicaPush{
			{OriginID: "sib", OriginAddr: "sib-addr", Summary: dto, Level: 1},
			{OriginID: "anc", OriginAddr: "anc-addr", Summary: dto, Ancestor: true, Level: 2},
		}},
	}
	data, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindReplicaBatch || got.Batch == nil || len(got.Batch.Pushes) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	p0, p1 := got.Batch.Pushes[0], got.Batch.Pushes[1]
	if p0.OriginID != "sib" || p0.Level != 1 || p0.Ancestor || p0.Summary == nil {
		t.Fatalf("push 0 mismatch: %+v", p0)
	}
	if p1.OriginID != "anc" || p1.Level != 2 || !p1.Ancestor || p1.Summary == nil {
		t.Fatalf("push 1 mismatch: %+v", p1)
	}
	if p1.Summary.Records != 42 {
		t.Fatalf("summary payload lost: %+v", p1.Summary)
	}
	if _, err := p1.Summary.ToSummary(schema, p1.Version); err != nil {
		t.Fatalf("decoded summary must rebuild: %v", err)
	}
}

// TestTransportStatusRoundTrip checks the Status message carries the
// transport counter block.
func TestTransportStatusRoundTrip(t *testing.T) {
	msg := &Message{
		Kind: KindStatusReply,
		From: "srv",
		Status: &Status{
			ID: "srv",
			Transport: &TransportStatus{
				Dials: 3, Reuses: 97, Calls: 100, BytesSent: 4096, BytesRecv: 8192,
				P50Micros: 500, P99Micros: 2500,
			},
		},
	}
	data, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	tr := got.Status.Transport
	if tr == nil || tr.Reuses != 97 || tr.P99Micros != 2500 {
		t.Fatalf("transport status lost: %+v", tr)
	}
}
