// Package wire defines the messages ROADS servers exchange in the live
// prototype and the one codec that carries them: a compact positional
// binary format in a single version (see binary.go). Summaries, queries and
// records travel as explicit DTOs so the wire format is independent of the
// in-memory types (which hold unexported fields and shared pointers).
//
// The package also counts its own codec activity (encodes, decodes and
// decode failures) as process-wide atomics; RegisterMetrics exposes them as
// roads_wire_* series on an obs.Registry.
package wire

import (
	"fmt"
	"slices"
	"time"

	"roads/internal/obs"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
)

// Kind discriminates message types.
type Kind uint8

const (
	// KindJoin asks a server to adopt the sender as a child.
	KindJoin Kind = iota + 1
	// KindJoinReply answers a join: accepted, or redirect to children.
	KindJoinReply
	// KindSummaryReport carries a child's branch summary to its parent.
	KindSummaryReport
	// KindReplicaPush is reserved: the single-replica push that
	// KindReplicaBatch replaced. No server sends or handles it; the number
	// stays taken so the kinds after it keep theirs.
	KindReplicaPush
	// KindQuery asks a server to evaluate a query.
	KindQuery
	// KindQueryReply returns matching records and redirect targets.
	KindQueryReply
	// KindHeartbeat and KindHeartbeatReply are reserved: the separate
	// liveness exchange that the summary report and its ack absorbed. No
	// server sends or handles them; the numbers stay taken so the kinds
	// after them keep theirs.
	KindHeartbeat
	KindHeartbeatReply
	// KindLeave announces a graceful departure to parent and children.
	KindLeave
	// KindAck is a generic acknowledgement.
	KindAck
	// KindError carries a remote error.
	KindError
	// KindStatus requests a server's status snapshot; KindStatusReply
	// returns it.
	KindStatus
	KindStatusReply
	// KindReplicaBatch carries all of a parent's replica pushes for one
	// child in a single message — one frame instead of O(replicas) calls
	// per aggregation tick.
	KindReplicaBatch
	// KindRootProbe asks a server which root it currently follows; roots
	// exchange probes to detect a split brain after a partition heals.
	// KindRootProbeReply answers with the receiver's root view.
	KindRootProbe
	KindRootProbeReply
)

// Message is the envelope every exchange uses.
type Message struct {
	Kind Kind
	From string // sender server ID
	Addr string // sender's listen address

	Join      *Join
	JoinReply *JoinReply
	Report    *SummaryReport
	Batch     *ReplicaBatch
	Query     *QueryDTO
	QueryRep  *QueryReply
	Status    *Status
	Error     string
	// Ack carries delta-dissemination feedback on the KindAck replies to
	// summary reports and replica batches; nil on plain acks.
	Ack *AckInfo
	// Epoch is the sender's membership epoch. Epochs are monotonically
	// increasing per federation: every recovery action (parent failover,
	// root election, tree merge) bumps them, and receivers fence
	// relationship messages that carry an epoch lower than the one they
	// last recorded for that relationship, so a healed partition cannot
	// resurrect a dead parent/child edge. Every server stamps every
	// message; zero means the sender is a client, not a server.
	Epoch uint64
	// RootProbe carries the split-brain probe payload on
	// KindRootProbe/KindRootProbeReply messages.
	RootProbe *RootProbe
}

// RootProbe is the split-brain detection payload. On a
// KindRootProbe request it names the probing root; on the reply it names
// the root the receiver currently follows (its rootPath head). Two live
// roots that learn of each other this way resolve the split: the
// higher-epoch root (tie: smaller ID) wins and the loser joins it.
type RootProbe struct {
	RootID   string
	RootAddr string
}

// AckInfo is the delta-dissemination feedback piggybacked on acks.
// Receivers of summary reports and replica batches use it to tell the
// sender what they hold, so the sender can ship a version or a tag instead
// of full summaries — and to ask for content again when what the sender
// referenced is not what they hold.
type AckInfo struct {
	// HaveVersion echoes the branch-summary version the acker now holds
	// for the sender (summary-report acks). Zero means none/unknown.
	HaveVersion uint64
	// NeedFull, on a summary-report ack, says the acker does not hold the
	// version a version-only report named (or the reporter's children), so
	// the next report carries the summary and the children.
	NeedFull bool
	// NeedFullOrigins lists replica origins whose tag-only entries in a
	// list batch named a tag the acker doesn't hold; the sender ships
	// those origins in full on the next tick.
	NeedFullOrigins []string
	// Ancestry, on a summary-report ack, is what the reporter should hold of
	// its position in the tree. Nil means the report's Have matches it, so
	// the ack carries none of it.
	Ancestry *Ancestry
	// HeldCount and HeldDigest, on a summary-report ack, fold the replica set
	// the acker refreshes at the reporter while it is what the reporter last
	// acknowledged; the reporter renews what it holds via the acker when its
	// own fold matches, and says NeedList when not. Zero HeldCount: no fold.
	HeldCount  int
	HeldDigest uint64
}

// Ancestry is a parent's statement of a child's position: the parent's root
// path (IDs and addresses from the root down, which the child uses for
// rejoin and loop avoidance) and the child's siblings (for root election).
// It rarely changes, so a report carries a hash of what the child holds and
// the ack carries the content only when the parent would say otherwise.
type Ancestry struct {
	RootPath  []string
	PathAddrs []string
	// Siblings are the parent's other children (ID and address).
	Siblings []RedirectInfo
}

// Status is a server's operational snapshot, for monitoring tools.
type Status struct {
	ID            string
	Addr          string
	ParentID      string
	IsRoot        bool
	Children      int
	Replicas      int
	Owners        int
	BranchRecords uint64
	LocalRecords  uint64
	RootPath      []string
	// QueriesServed and RedirectsIssued count since startup; the root-
	// bottleneck story is visible by comparing them across servers.
	QueriesServed   uint64
	RedirectsIssued uint64
	SummariesRecv   uint64
	// QueriesShed counts queries abandoned because their deadline budget
	// ran out mid-evaluation (overload/deadline shedding).
	QueriesShed uint64
	// SummaryErrors counts summary-refresh failures (local FromRecords or
	// an owner's ExportSummary): the server keeps serving its previous
	// summaries, so a non-zero, growing value means the advertised state
	// is going stale even though queries still succeed.
	SummaryErrors uint64
	// Transport carries the server's transport counters when its
	// transport exposes them (pooled TCP and the in-process Chan both do).
	Transport *TransportStatus

	// Change-driven dissemination counters. SummaryRebuildsSkipped counts
	// refresh ticks that reused
	// cached summaries because nothing mutated; ReportsSuppressed counts
	// version-only reports sent in place of full branch summaries;
	// ReplicaPushDelta/ReplicaPushFull split pushed replica entries by
	// form: confirmed by tag or digest, or shipped with their summaries.
	SummaryRebuildsSkipped uint64
	ReportsSuppressed      uint64
	ReplicaPushDelta       uint64
	ReplicaPushFull        uint64
}

// TransportStatus is the wire form of a transport's counter snapshot:
// connection pooling effectiveness (dials vs reuses), traffic volume, and
// call-latency percentiles derived from the transport's histogram.
type TransportStatus struct {
	Dials     uint64
	Reuses    uint64
	InFlight  uint64
	Calls     uint64
	Errors    uint64
	Retries   uint64
	BytesSent uint64
	BytesRecv uint64
	P50Micros uint64
	P99Micros uint64
}

// SummaryReport carries a child's branch summary to its parent, with the
// branch shape piggybacked so the parent can answer join redirects with
// accurate depth/descendant counts.
type SummaryReport struct {
	Summary     *SummaryDTO
	Depth       int
	Descendants int
	// Children lists the reporter's own children (with their branch record
	// counts). The parent stores them as failover alternates: should the
	// reporter die mid-query, its children can still route the query into
	// the reporter's subtree. They travel only under Kids, set when they
	// differ from what this parent last acked; without it, it keeps those.
	Children []RedirectInfo
	Kids     bool
	// Version is the reporter's branch-summary content version. A report
	// with Version set and Summary nil is a version-only report: the parent
	// already confirmed holding this version, so the report refreshes
	// liveness and branch-shape metadata without retransmitting or
	// re-decoding the summary.
	Version uint64
	// Have is the reporter's hash of the Ancestry it took from this parent's
	// acks. Zero means it holds nothing and wants the content.
	Have uint64
	// Urgent marks a Summary that carries a record write (or a join) the
	// parent has not confirmed: the parent passes it on in an early round
	// instead of at its next aggregation period.
	Urgent bool
	// NeedList says the reporter's replicas did not fold to the digest its
	// last ack stated: the parent's next round sends it a list batch.
	NeedList bool
}

// Join asks to become a child.
type Join struct {
	ID   string
	Addr string
}

// ChildInfo describes one child branch for join redirects.
type ChildInfo struct {
	ID          string
	Addr        string
	Depth       int
	Descendants int
}

// JoinReply either accepts the joiner or redirects it to children.
type JoinReply struct {
	Accepted bool
	// Parent identifies the accepting server.
	ParentID   string
	ParentAddr string
	// Children to try next when not accepted, least-depth first.
	Children []ChildInfo
}

// ReplicaPush is one entry of a list batch: an origin the sender refreshes
// at the receiver. A full entry distributes the one summary of the origin the
// receiver routes on, with its routing metadata; a tag-only entry (Summary
// nil) is the origin and Tag alone and confirms the replica the receiver
// already holds.
type ReplicaPush struct {
	OriginID   string
	OriginAddr string
	// Summary is the origin's branch summary on a sibling-class entry, and
	// its local-data summary on an ancestor entry: a redirect to an ancestor
	// covers only the ancestor's own data.
	Summary *SummaryDTO
	// Ancestor marks pushes whose origin is an ancestor of the receiver.
	Ancestor bool
	// Level is the origin's distance from the receiver in hierarchy
	// levels: 1 for the receiver's own siblings and parent, 2 for the
	// grandparent and its siblings, and so on. Scoped queries use it to
	// bound their search radius.
	Level int
	// Fallbacks lists the origin's children: servers that can route a
	// query into the origin's branch when the origin itself is
	// unreachable. Propagated into redirect Alternates.
	Fallbacks []RedirectInfo
	// Version is the content version of Summary; it travels on full entries
	// only. Zero marks unversioned content, which is never confirmed by tag
	// and ships in full every time.
	Version uint64
	// Tag is what a tag-only entry carries instead of all the above: the
	// sender's hash of everything the full entry would store besides the
	// summary itself — Version, Ancestor, Level, OriginAddr and Fallbacks.
	// The receiver hashes the replica it holds the same way, renews its
	// soft-state lifetime when the two agree and answers NeedFullOrigins
	// otherwise, so nothing a full entry would change can differ between the
	// two sides while the tags agree. A full entry carries no tag; the
	// receiver derives it from what it stores.
	Tag uint64
	// Urgent marks a full entry whose Summary carries a record write: a
	// receiver that takes it in passes it on in an early round.
	Urgent bool
}

// ReplicaBatch is what a parent sends a child in a round in which the set
// of origins it refreshes there moved. It names every origin in that set —
// full entries where the receiver's acknowledged tag differs, tag-only
// entries elsewhere — and thereby defines the set: a replica the receiver
// holds via this sender that the list leaves out is no longer refreshed by
// it. Receivers apply the whole list under a single lock acquisition, making
// the overlay update atomic. While the set stays put no batch goes out: the
// ack to the child's summary report states the set's digest instead
// (AckInfo.HeldDigest).
type ReplicaBatch struct {
	Pushes []*ReplicaPush
}

// MaxTracePath caps QueryDTO.Path: a trace records at most this many
// routing steps, so a pathological redirect chain cannot grow the hop log
// without bound. 32 covers a hierarchy far deeper than the paper's
// evaluation (depth ≤ 5) ever produces.
const MaxTracePath = 32

// QueryDTO is the wire form of a query.
type QueryDTO struct {
	ID        string
	Requester string
	Preds     []query.Predicate
	// Start marks the first contact of a resolution: only then may the
	// receiving server use its overlay replicas for redirects.
	Start bool
	// Scope bounds the search to the branch of the start server's
	// ancestor Scope levels up (paper §III-C scope control); negative
	// means the whole hierarchy.
	Scope int
	// Budget is the remaining time the client allows for this contact
	// (relative, so clock skew between federated sites cannot cause
	// early shedding). A server that cannot finish inside the budget
	// sheds the query instead of returning an answer the client will
	// have already abandoned. Zero means no budget.
	Budget time.Duration
	// TraceID names the resolution this contact belongs to; the client
	// stamps every contact of one resolve with the same ID so hop logs
	// and server-side trace lines can be correlated across the
	// federation. Empty when tracing is off.
	TraceID string
	// Trace asks the receiving server to return its evaluation detail
	// (TraceInfo) on the reply and log the contact. Off by default: the
	// hot path pays nothing for the machinery it does not use.
	Trace bool
	// Path is the bounded hop log: the IDs of the servers this query was
	// routed through to reach the receiver, oldest first (the redirect
	// chain from the start server). Capped at MaxTracePath entries.
	Path []string
	// CacheFingerprint revalidates a client-cached resolve: the
	// fingerprint the client got with its last full answer from this
	// server. When it still matches the server's current routing state the
	// server answers NotModified instead of re-evaluating, and the client
	// reuses its cached records — a repeat query then costs one RPC and
	// zero descent. Zero means "no cached answer to revalidate".
	CacheFingerprint uint64
	// WantFingerprint asks the server to stamp its current fingerprint on
	// the reply so the client can cache the resolved answer and revalidate
	// it later.
	WantFingerprint bool
}

// ToQuery converts to the in-memory form.
func (q *QueryDTO) ToQuery() *query.Query {
	out := query.New(q.ID, q.Preds...)
	out.Requester = q.Requester
	return out
}

// FromQuery builds the DTO with whole-hierarchy scope.
func FromQuery(q *query.Query, start bool) *QueryDTO {
	return &QueryDTO{ID: q.ID, Requester: q.Requester, Preds: q.Preds, Start: start, Scope: -1}
}

// RedirectInfo names one server the client should query next.
type RedirectInfo struct {
	ID   string
	Addr string
	// Records estimates how many records the target's region (branch or,
	// for ancestor redirects, local data) covers, from the redirecting
	// server's summaries. Clients weight coverage accounting with it.
	Records uint64
	// Alternates lists servers holding replicas of the target's branch —
	// its children, learned through summary reports and replica pushes —
	// which a client can fail over to when the target is unreachable.
	// Alternates carry no nested alternates of their own.
	Alternates []RedirectInfo
}

// RecordDTO is the wire form of a record.
type RecordDTO struct {
	ID     string
	Owner  string
	Values []record.Value
}

// QueryReply returns local matches plus redirect targets.
type QueryReply struct {
	Records   []RecordDTO
	Redirects []RedirectInfo
	// Trace carries the server's evaluation detail when the query asked
	// for it (QueryDTO.Trace); nil otherwise.
	Trace *TraceInfo
	// Coarse marks a degraded summary-only answer: the query's deadline
	// budget ran out and the evaluation was shed, so the reply carries no
	// records or redirects — only CoarseEstimate. Clients must not treat a
	// coarse answer as "no matches"; it means "not evaluated, roughly this
	// many matches exist".
	Coarse bool
	// CoarseEstimate is the server's summary-derived estimate of how many
	// records under its branch match the query. It travels only on coarse
	// answers; on the wire Coarse is its presence bit.
	CoarseEstimate float64
	// NotModified answers a CacheFingerprint revalidation: the fingerprint
	// still matches, the client's cached records are current, and the
	// reply intentionally carries no records or redirects.
	NotModified bool
	// Fingerprint is the server's current routing-state fingerprint,
	// stamped when the query asked via WantFingerprint (or
	// revalidated one). It covers the branch summary version, every
	// child/replica routing dependency and the owners' generations and
	// view revisions — any change that could alter this server's answer
	// changes the fingerprint. Zero means "unavailable, don't cache".
	Fingerprint uint64
}

// TraceInfo is one server's evaluation detail for a traced query: how the
// summary-match decisions went (which child branches and overlay replicas
// matched, out of how many candidates), how many local records the server
// itself contributed, and how long the evaluation took. Together with the
// client-side hop log this reconstructs the paper's hops/messages numbers
// (Fig. 8) for one real query.
type TraceInfo struct {
	// ServerID identifies the evaluating server (redundant with the
	// enclosing Message.From, but keeps the trace self-contained once
	// detached from the envelope).
	ServerID string
	// EvalMicros is the server-side evaluation time in microseconds.
	EvalMicros uint64
	// LocalRecords is how many local matches this server returned.
	LocalRecords int
	// Children and Replicas count the redirect candidates held: child
	// branch summaries, and overlay replicas eligible for this contact
	// (replicas are only candidates on the first contact of a resolve).
	Children int
	Replicas int
	// MatchedChildren and MatchedReplicas list the candidate IDs whose
	// summaries matched the query — the positive summary-match decisions
	// that became redirects.
	MatchedChildren []string
	MatchedReplicas []string
}

// ToRecords converts wire records to in-memory records.
func ToRecords(dtos []RecordDTO) []*record.Record {
	out := make([]*record.Record, len(dtos))
	for i, d := range dtos {
		out[i] = &record.Record{ID: d.ID, Owner: d.Owner, Values: d.Values}
	}
	return out
}

// AppendRecords appends the wire form of in-memory records to dst, growing
// it at most once.
func AppendRecords(dst []RecordDTO, recs []*record.Record) []RecordDTO {
	dst = slices.Grow(dst, len(recs))
	for _, r := range recs {
		dst = append(dst, RecordDTO{ID: r.ID, Owner: r.Owner, Values: r.Values})
	}
	return dst
}

// SummaryModeCondensed is the one summary mode bit: it marks value sets
// holding condensed prefix wildcards ("a.b.*"). A summary with Mode 0 is
// wildcard-free. Bit 0 is retired (it marked per-attribute geometry, which
// summaries no longer carry) and, like every other bit, fails the decode.
const SummaryModeCondensed uint8 = 1 << 1

// SummaryDTO is the wire form of a summary. Histograms carry their bucket
// counts; categorical attributes carry either the value-set counts or the
// Bloom bits.
type SummaryDTO struct {
	Origin    string
	Version   uint64
	Records   uint64
	PolicyRev uint64
	Buckets   int
	Min       float64
	Max       float64

	Hists  []HistDTO
	Sets   []SetDTO
	Blooms []BloomDTO

	// Mode carries SummaryModeCondensed; zero for summaries without
	// wildcards.
	Mode uint8
}

// HistDTO is one histogram (Attr = schema position).
type HistDTO struct {
	Attr   int
	Counts []uint32
	Total  uint64
}

// SetDTO is one value set.
type SetDTO struct {
	Attr   int
	Counts map[string]uint32
}

// BloomDTO is one Bloom filter.
type BloomDTO struct {
	Attr   int
	Bits   []uint64
	NumBit uint32
	Hashes uint32
	N      uint64
}

// FromSummary converts a summary to wire form. Condensed wildcards stamp
// SummaryModeCondensed.
func FromSummary(s *summary.Summary) *SummaryDTO {
	if s == nil {
		return nil
	}
	dto := &SummaryDTO{
		Origin:    s.Origin,
		Version:   s.Version,
		Records:   s.Records,
		PolicyRev: s.PolicyRev,
		Buckets:   s.Cfg.Buckets,
		Min:       s.Cfg.Min,
		Max:       s.Cfg.Max,
	}
	for i := range s.Hists {
		if h := s.Hists[i]; h != nil {
			dto.Hists = append(dto.Hists, HistDTO{Attr: i, Counts: h.Counts, Total: h.Total})
		}
		if vs := s.Sets[i]; vs != nil {
			dto.Sets = append(dto.Sets, SetDTO{Attr: i, Counts: vs.Counts})
			if vs.HasWildcards() {
				dto.Mode |= SummaryModeCondensed
			}
		}
		if b := s.Blooms[i]; b != nil {
			dto.Blooms = append(dto.Blooms, BloomDTO{Attr: i, Bits: b.Bits, NumBit: b.NumBit, Hashes: b.Hashes, N: b.N})
		}
	}
	return dto
}

// ToSummary reconstructs a summary against the shared schema. The summary
// config is rebuilt from the DTO's header and first Bloom filter: one
// geometry for every attribute, checked strictly below.
func (dto *SummaryDTO) ToSummary(schema *record.Schema) (*summary.Summary, error) {
	if dto == nil {
		return nil, nil
	}
	cfg := summary.Config{
		Buckets:     dto.Buckets,
		Min:         dto.Min,
		Max:         dto.Max,
		Categorical: summary.UseValueSet,
	}
	if len(dto.Blooms) > 0 {
		cfg.Categorical = summary.UseBloom
		cfg.BloomBits = int(dto.Blooms[0].NumBit)
		cfg.BloomHashes = int(dto.Blooms[0].Hashes)
	}
	s, err := summary.New(schema, cfg)
	if err != nil {
		return nil, err
	}
	s.Origin = dto.Origin
	s.Version = dto.Version
	s.Records = dto.Records
	s.PolicyRev = dto.PolicyRev
	for _, h := range dto.Hists {
		if h.Attr < 0 || h.Attr >= schema.NumAttrs() || s.Hists[h.Attr] == nil {
			return nil, fmt.Errorf("wire: histogram for invalid attr %d", h.Attr)
		}
		if len(h.Counts) != cfg.Buckets {
			return nil, fmt.Errorf("wire: histogram attr %d has %d buckets; geometry says %d", h.Attr, len(h.Counts), cfg.Buckets)
		}
		copy(s.Hists[h.Attr].Counts, h.Counts)
		s.Hists[h.Attr].Total = h.Total
	}
	for _, vs := range dto.Sets {
		if vs.Attr < 0 || vs.Attr >= schema.NumAttrs() || s.Sets[vs.Attr] == nil {
			return nil, fmt.Errorf("wire: value set for invalid attr %d", vs.Attr)
		}
		for v, c := range vs.Counts {
			// SetCount keeps the set's wildcard index accurate, so
			// condensed summaries keep matching after a wire round trip.
			s.Sets[vs.Attr].SetCount(v, c)
		}
	}
	for _, b := range dto.Blooms {
		if b.Attr < 0 || b.Attr >= schema.NumAttrs() || s.Blooms[b.Attr] == nil {
			return nil, fmt.Errorf("wire: bloom for invalid attr %d", b.Attr)
		}
		if int(b.NumBit) != 64*len(s.Blooms[b.Attr].Bits) || len(b.Bits)*64 != int(b.NumBit) {
			return nil, fmt.Errorf("wire: bloom attr %d has %d bits; geometry says %d", b.Attr, b.NumBit, 64*len(s.Blooms[b.Attr].Bits))
		}
		copy(s.Blooms[b.Attr].Bits, b.Bits)
		s.Blooms[b.Attr].Hashes = b.Hashes
		s.Blooms[b.Attr].N = b.N
	}
	return s, nil
}

// codecCounters tracks the process's codec activity: every transport in
// the process funnels through AppendEncode/Decode, so one set of
// package-level counters covers them all. Growing decode errors mean corrupt
// frames, or frames in another codec version, are arriving.
var codecCounters struct {
	binaryEncodes obs.Counter
	binaryDecodes obs.Counter
	decodeErrors  obs.Counter
}

// RegisterMetrics exposes the process-wide codec counters as roads_wire_*
// series on reg. Safe to call once per registry; the counters themselves
// are shared across registries.
func RegisterMetrics(reg *obs.Registry) {
	c := &codecCounters
	reg.CounterFunc("roads_wire_binary_encodes_total",
		"Messages encoded with the binary codec (process-wide).", c.binaryEncodes.Load)
	reg.CounterFunc("roads_wire_binary_decodes_total",
		"Messages decoded from the binary codec (process-wide).", c.binaryDecodes.Load)
	reg.CounterFunc("roads_wire_decode_errors_total",
		"Messages that failed to decode: corrupt, truncated, or not in this codec version (process-wide).", c.decodeErrors.Load)
}

// Encode serializes a message with the binary codec (see binary.go).
func Encode(m *Message) ([]byte, error) {
	return AppendEncode(nil, m)
}

// Decode deserializes a binary-codec message. Anything else — another codec
// version, a payload that does not start with binMagic, corrupt or truncated
// input — is an error, counted in roads_wire_decode_errors_total.
func Decode(data []byte) (*Message, error) {
	m, err := decodeBinary(data)
	if err != nil {
		codecCounters.decodeErrors.Inc()
		return nil, err
	}
	codecCounters.binaryDecodes.Inc()
	return m, nil
}

// ErrorMessage builds a KindError reply.
func ErrorMessage(from string, err error) *Message {
	return &Message{Kind: KindError, From: from, Error: err.Error()}
}

// RemoteError converts a KindError message back into an error.
func RemoteError(m *Message) error {
	if m == nil {
		return fmt.Errorf("wire: nil reply")
	}
	if m.Kind != KindError {
		return nil
	}
	return fmt.Errorf("wire: remote %s: %s", m.From, m.Error)
}

// Deadline is the default per-call timeout for live transports.
const Deadline = 10 * time.Second
