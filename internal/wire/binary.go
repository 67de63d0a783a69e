package wire

// The binary codec. It writes fields positionally with varint integers
// (histogram bucket counts included), length-prefixed strings, and raw
// little-endian arrays for Bloom bitsets, so the hot query and replica-batch
// paths move only payload bytes and allocate next to nothing.
//
// Layout: every payload starts with binMagic and then binVersion. There is
// one version. Every server in a federation runs the same code, so the
// encoder writes exactly binVersion and the decoder rejects every other
// version byte, and every payload that does not start with binMagic, with an
// error — that check is input validation, not negotiation. To change the
// format, change the layout and bump binVersion: the two sides of a rolling
// upgrade then fail each other's calls visibly instead of misparsing.
//
// The version is 17 because sixteen layouts came before it (the git history
// and EXPERIMENTS.md have them); 1–16 are rejected like any other byte.
// Version 17 dropped a summary's origin, version and mode byte: a summary
// carries its content only, and the envelope states its origin and version.
// Version 16 retired version 12's urgent bits (reportRetired, pushRetired):
// a frame with either set is a decode error. Version 15 dropped the
// per-attribute geometry plan from a summary's tail, which then ended at its
// mode byte, and retired that byte's bit 0.
// Version 14 moved the replica-set digest from the batch's tail to the report
// ack's (HeldCount, HeldDigest) and gave the report's presence byte the
// reportKids bit, without which the children are left out, and reportNeedList.
// Version 13 is version 12 without the query's priority byte, which went with
// admission control; no other frame changed. Version 12 added an urgent bit
// to the summary report's presence byte and to a full replica entry's flags.
// Version 11 wrote histogram bucket counts as uvarints instead of four-byte
// words and gave a replica push one summary instead of a branch and a local
// one.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"roads/internal/query"
	"roads/internal/record"
)

const (
	// binMagic marks a binary-codec payload.
	binMagic = 0xb5
	// binVersion is the one codec revision written and accepted.
	binVersion = 17
	// Version is binVersion for other packages: the documents name it, and
	// cmd/docscheck holds them to it.
	Version = binVersion
	// valueMinBytes is the least a record.Value takes on the wire: its
	// float plus the length byte of an empty string.
	valueMinBytes = 9
	// maxRedirectDepth bounds RedirectInfo.Alternates nesting on decode.
	// Real messages nest one level (alternates carry no alternates); the
	// bound stops crafted input from recursing the decoder off the stack.
	maxRedirectDepth = 8
)

// presence bits for Message's optional payload pointers.
const (
	hasJoin = 1 << iota
	hasJoinReply
	hasReport
	hasBatch
	hasQuery
	hasQueryRep
	hasStatus
	hasAckInfo
	hasRootProbe
)

// --- Buffer pool ---

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetBuf returns a pooled scratch buffer for AppendEncode. Callers own it
// until PutBuf; typical use is `data, err := AppendEncode((*bp)[:0], m)`
// followed by `*bp = data` before PutBuf so grown capacity is retained.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a buffer to the pool. The caller must not retain any
// slice aliasing it afterwards.
func PutBuf(bp *[]byte) {
	if cap(*bp) > 1<<20 {
		return // don't let one huge message pin a huge buffer forever
	}
	bufPool.Put(bp)
}

// --- Encoding primitives ---

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendU64 writes a fixed-width value: hashes are uniformly spread, so a
// varint would take nine or ten bytes for most of them.
func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// --- Decoding primitives ---

// binReader walks a binary payload with sticky error state: after the
// first malformed field every subsequent read returns zero values, so
// decoders need no per-field error plumbing and corrupt input can never
// panic.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: binary decode: "+format, args...)
	}
}

func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) bool() bool { return r.u8() != 0 }

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("truncated 8-byte value at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }

// strBytes returns the next length-prefixed string's bytes, still aliasing
// the input; callers copy them.
func (r *binReader) strBytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("string of %d bytes exceeds %d remaining", n, r.remaining())
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *binReader) str() string {
	return string(r.strBytes()) // copies: decoded messages never alias the input
}

// strOr reads a string that often repeats the previous one of its column
// (a reply's records mostly share an owner) and returns prev itself when
// it does, instead of another copy.
func (r *binReader) strOr(prev string) string {
	b := r.strBytes()
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// count reads a collection length and validates it against the remaining
// bytes (each element costs at least elemSize bytes), so corrupt input
// cannot trigger a huge allocation.
func (r *binReader) count(elemSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(r.remaining()/elemSize) {
		r.fail("collection of %d elements exceeds %d remaining bytes", n, r.remaining())
		return 0
	}
	return int(n)
}

// --- Message ---

// AppendEncode appends m's binary encoding to buf and returns the grown
// slice. Pair with GetBuf/PutBuf to run the hot path allocation-free.
func AppendEncode(buf []byte, m *Message) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("wire: encode nil message")
	}
	b := append(buf, binMagic, binVersion, byte(m.Kind))
	b = appendString(b, m.From)
	b = appendString(b, m.Addr)
	b = appendString(b, m.Error)

	var bits uint64
	if m.Join != nil {
		bits |= hasJoin
	}
	if m.JoinReply != nil {
		bits |= hasJoinReply
	}
	if m.Report != nil {
		bits |= hasReport
	}
	if m.Batch != nil {
		bits |= hasBatch
	}
	if m.Query != nil {
		bits |= hasQuery
	}
	if m.QueryRep != nil {
		bits |= hasQueryRep
	}
	if m.Status != nil {
		bits |= hasStatus
	}
	if m.Ack != nil {
		bits |= hasAckInfo
	}
	if m.RootProbe != nil {
		bits |= hasRootProbe
	}
	b = appendUvarint(b, bits)

	if m.Join != nil {
		b = appendString(b, m.Join.ID)
		b = appendString(b, m.Join.Addr)
	}
	if m.JoinReply != nil {
		b = appendJoinReply(b, m.JoinReply)
	}
	if m.Report != nil {
		b = appendReport(b, m.Report)
	}
	if m.Batch != nil {
		b = appendBatch(b, m.Batch)
	}
	if m.Query != nil {
		b = appendQuery(b, m.Query)
	}
	if m.QueryRep != nil {
		b = appendQueryReply(b, m.QueryRep)
	}
	if m.Status != nil {
		b = appendStatus(b, m.Status)
	}
	if m.Ack != nil {
		b = appendUvarint(b, m.Ack.HaveVersion)
		b = appendBool(b, m.Ack.NeedFull)
		b = appendStrings(b, m.Ack.NeedFullOrigins)
		b = appendAncestry(b, m.Ack.Ancestry)
		b = appendUvarint(b, uint64(m.Ack.HeldCount))
		if m.Ack.HeldCount != 0 {
			b = appendU64(b, m.Ack.HeldDigest)
		}
	}
	b = appendUvarint(b, m.Epoch)
	if m.RootProbe != nil {
		b = appendString(b, m.RootProbe.RootID)
		b = appendString(b, m.RootProbe.RootAddr)
	}
	codecCounters.binaryEncodes.Inc()
	return b, nil
}

// decodeBinary parses a binary payload into a Message. It never panics on
// malformed input and rejects trailing bytes, so fuzzing can assert a
// strict decode/encode/decode fixed point.
func decodeBinary(data []byte) (*Message, error) {
	r := &binReader{b: data}
	if r.u8() != binMagic {
		return nil, fmt.Errorf("wire: not a binary payload")
	}
	if ver := r.u8(); ver != binVersion && r.err == nil {
		return nil, fmt.Errorf("wire: unknown binary codec version %d (this build speaks %d)", ver, binVersion)
	}
	kind, from, addr, errText := Kind(r.u8()), r.str(), r.str(), r.str()
	bits := r.uvarint()
	m := newMessage(bits)
	m.Kind, m.From, m.Addr, m.Error = kind, from, addr, errText

	if bits&hasJoin != 0 {
		m.Join = &Join{ID: r.str(), Addr: r.str()}
	}
	if bits&hasJoinReply != 0 {
		m.JoinReply = readJoinReply(r)
	}
	if bits&hasReport != 0 {
		m.Report = readReport(r)
	}
	if bits&hasBatch != 0 {
		m.Batch = readBatch(r)
	}
	if bits&hasQuery != 0 {
		readQuery(r, m.Query)
	}
	if bits&hasQueryRep != 0 {
		if m.QueryRep == nil { // beside a Query, which newMessage favours
			m.QueryRep = &QueryReply{}
		}
		readQueryReply(r, m.QueryRep)
	}
	if bits&hasStatus != 0 {
		m.Status = readStatus(r)
	}
	if bits&hasAckInfo != 0 {
		m.Ack = &AckInfo{
			HaveVersion:     r.uvarint(),
			NeedFull:        r.bool(),
			NeedFullOrigins: readStrings(r),
			Ancestry:        readAncestry(r),
			HeldCount:       int(r.uvarint()),
		}
		if m.Ack.HeldCount != 0 {
			m.Ack.HeldDigest = r.u64()
		}
	}
	m.Epoch = r.uvarint()
	if bits&hasRootProbe != 0 {
		m.RootProbe = &RootProbe{RootID: r.str(), RootAddr: r.str()}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("wire: binary decode: %d trailing bytes", len(r.b)-r.off)
	}
	return m, nil
}

// newMessage allocates the Message of a payload with these presence bits.
// Queries and their replies are nearly all the traffic of a resolve, so
// their payload struct comes in the same object as the Message.
func newMessage(bits uint64) *Message {
	switch {
	case bits&hasQuery != 0:
		x := &struct {
			Message
			q QueryDTO
		}{}
		x.Query = &x.q
		return &x.Message
	case bits&hasQueryRep != 0:
		x := &struct {
			Message
			qr QueryReply
		}{}
		x.QueryRep = &x.qr
		return &x.Message
	}
	return &Message{}
}

// --- Sub-structures ---

func appendStrings(b []byte, ss []string) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func readStrings(r *binReader) []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

func appendJoinReply(b []byte, jr *JoinReply) []byte {
	b = appendBool(b, jr.Accepted)
	b = appendString(b, jr.ParentID)
	b = appendString(b, jr.ParentAddr)
	b = appendUvarint(b, uint64(len(jr.Children)))
	for _, c := range jr.Children {
		b = appendString(b, c.ID)
		b = appendString(b, c.Addr)
		b = appendVarint(b, int64(c.Depth))
		b = appendVarint(b, int64(c.Descendants))
	}
	return b
}

func readJoinReply(r *binReader) *JoinReply {
	jr := &JoinReply{
		Accepted:   r.bool(),
		ParentID:   r.str(),
		ParentAddr: r.str(),
	}
	n := r.count(4)
	if n > 0 {
		jr.Children = make([]ChildInfo, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		jr.Children = append(jr.Children, ChildInfo{
			ID:          r.str(),
			Addr:        r.str(),
			Depth:       int(r.varint()),
			Descendants: int(r.varint()),
		})
	}
	return jr
}

func appendRedirects(b []byte, rs []RedirectInfo) []byte {
	b = appendUvarint(b, uint64(len(rs)))
	for i := range rs {
		b = appendString(b, rs[i].ID)
		b = appendString(b, rs[i].Addr)
		b = appendUvarint(b, rs[i].Records)
		b = appendRedirects(b, rs[i].Alternates)
	}
	return b
}

func readRedirects(r *binReader, depth int) []RedirectInfo {
	if depth > maxRedirectDepth {
		r.fail("redirect alternates nested deeper than %d", maxRedirectDepth)
		return nil
	}
	n := r.count(3)
	if n == 0 {
		return nil
	}
	out := make([]RedirectInfo, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, RedirectInfo{
			ID:         r.str(),
			Addr:       r.str(),
			Records:    r.uvarint(),
			Alternates: readRedirects(r, depth+1),
		})
	}
	return out
}

// A report opens with its presence byte: reportSummary and reportKids when
// the summary and the children follow, and reportNeedList. reportRetired was
// the urgent bit up to version 15.
const (
	reportSummary = 1 << iota
	reportRetired
	reportKids
	reportNeedList
)

func appendReport(b []byte, rep *SummaryReport) []byte {
	var flags byte
	if rep.Summary != nil {
		flags |= reportSummary
	}
	if rep.Kids {
		flags |= reportKids
	}
	if rep.NeedList {
		flags |= reportNeedList
	}
	b = append(b, flags)
	if rep.Summary != nil {
		b = appendSummary(b, rep.Summary)
	}
	b = appendVarint(b, int64(rep.Depth))
	b = appendVarint(b, int64(rep.Descendants))
	if rep.Kids {
		b = appendRedirects(b, rep.Children)
	}
	b = appendUvarint(b, rep.Version)
	return appendU64(b, rep.Have)
}

func readReport(r *binReader) *SummaryReport {
	flags := r.u8()
	if flags&reportRetired != 0 {
		r.fail("report sets the retired urgent bit")
	}
	rep := &SummaryReport{Kids: flags&reportKids != 0, NeedList: flags&reportNeedList != 0}
	if flags&reportSummary != 0 {
		rep.Summary = readSummary(r)
	}
	rep.Depth = int(r.varint())
	rep.Descendants = int(r.varint())
	if rep.Kids {
		rep.Children = readRedirects(r, 0)
	}
	rep.Version = r.uvarint()
	rep.Have = r.u64()
	return rep
}

// A batch is its entry count and entries.
func appendBatch(b []byte, batch *ReplicaBatch) []byte {
	b = appendUvarint(b, uint64(len(batch.Pushes)))
	for _, p := range batch.Pushes {
		if p == nil {
			b = appendBool(b, false)
			continue
		}
		b = appendBool(b, true)
		b = appendReplicaPush(b, p)
	}
	return b
}

func readBatch(r *binReader) *ReplicaBatch {
	n := r.count(1)
	batch := &ReplicaBatch{}
	if n > 0 {
		batch.Pushes = make([]*ReplicaPush, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		if !r.bool() {
			batch.Pushes = append(batch.Pushes, nil)
			continue
		}
		batch.Pushes = append(batch.Pushes, readReplicaPush(r))
	}
	return batch
}

// Replica push flag bits. An entry is its origin and then either a body
// (pushBody: everything but Tag) or, on a tag-only entry, the eight Tag bytes.
// pushRetired was the urgent bit up to version 15.
const (
	pushSummary = 1 << iota
	pushAncestor
	pushBody
	pushRetired
)

func appendReplicaPush(b []byte, p *ReplicaPush) []byte {
	var flags byte
	if p.Summary != nil {
		flags |= pushSummary
	}
	if p.Ancestor {
		flags |= pushAncestor
	}
	if flags != 0 || p.OriginAddr != "" || p.Level != 0 || len(p.Fallbacks) > 0 || p.Version != 0 {
		flags |= pushBody
	}
	b = appendString(b, p.OriginID)
	b = append(b, flags)
	if flags&pushBody == 0 {
		return appendU64(b, p.Tag)
	}
	b = appendString(b, p.OriginAddr)
	if p.Summary != nil {
		b = appendSummary(b, p.Summary)
	}
	b = appendVarint(b, int64(p.Level))
	b = appendRedirects(b, p.Fallbacks)
	return appendUvarint(b, p.Version)
}

func readReplicaPush(r *binReader) *ReplicaPush {
	p := &ReplicaPush{OriginID: r.str()}
	flags := r.u8()
	if flags&pushRetired != 0 {
		r.fail("replica entry sets the retired urgent bit")
	}
	if flags&pushBody == 0 {
		p.Tag = r.u64()
		return p
	}
	p.OriginAddr = r.str()
	p.Ancestor = flags&pushAncestor != 0
	if flags&pushSummary != 0 {
		p.Summary = readSummary(r)
	}
	p.Level = int(r.varint())
	p.Fallbacks = readRedirects(r, 0)
	p.Version = r.uvarint()
	return p
}

// An ack's ancestry is a presence byte and, behind it, the two paths and
// the siblings.
func appendAncestry(b []byte, a *Ancestry) []byte {
	b = appendBool(b, a != nil)
	if a != nil {
		b = appendStrings(b, a.RootPath)
		b = appendStrings(b, a.PathAddrs)
		b = appendRedirects(b, a.Siblings)
	}
	return b
}

func readAncestry(r *binReader) *Ancestry {
	if !r.bool() {
		return nil
	}
	return &Ancestry{
		RootPath:  readStrings(r),
		PathAddrs: readStrings(r),
		Siblings:  readRedirects(r, 0),
	}
}

func appendQuery(b []byte, q *QueryDTO) []byte {
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
	b = appendString(b, q.TraceID)
	b = appendBool(b, q.Trace)
	b = appendStrings(b, q.Path)
	b = appendUvarint(b, q.CacheFingerprint)
	return appendBool(b, q.WantFingerprint)
}

func readQuery(r *binReader, q *QueryDTO) {
	q.ID = r.str()
	q.Requester = r.str()
	q.Start = r.bool()
	q.Scope = int(r.varint())
	q.Budget = time.Duration(r.varint())
	n := r.count(19) // attr len + op + two floats + str len
	if n > 0 {
		q.Preds = make([]query.Predicate, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		q.Preds = append(q.Preds, query.Predicate{
			Attr: r.str(),
			Op:   query.Op(r.u8()),
			Lo:   r.f64(),
			Hi:   r.f64(),
			Str:  r.str(),
		})
	}
	q.TraceID = r.str()
	q.Trace = r.bool()
	q.Path = readStrings(r)
	q.CacheFingerprint = r.uvarint()
	q.WantFingerprint = r.bool()
}

func appendQueryReply(b []byte, qr *QueryReply) []byte {
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
	b = appendBool(b, qr.Trace != nil)
	if ti := qr.Trace; ti != nil {
		b = appendString(b, ti.ServerID)
		b = appendUvarint(b, ti.EvalMicros)
		b = appendVarint(b, int64(ti.LocalRecords))
		b = appendVarint(b, int64(ti.Children))
		b = appendVarint(b, int64(ti.Replicas))
		b = appendStrings(b, ti.MatchedChildren)
		b = appendStrings(b, ti.MatchedReplicas)
	}
	// Coarse is CoarseEstimate's presence bit: only a coarse answer pays
	// the estimate's eight bytes.
	b = appendBool(b, qr.Coarse)
	if qr.Coarse {
		b = appendF64(b, qr.CoarseEstimate)
	}
	b = appendBool(b, qr.NotModified)
	return appendUvarint(b, qr.Fingerprint)
}

func readQueryReply(r *binReader, qr *QueryReply) {
	n := r.count(3)
	if n > 0 {
		qr.Records = make([]RecordDTO, 0, n)
	}
	// Every record's values are carved from one slab instead of a slice
	// each. The first record that does not fit sizes the slab for the
	// records still to come at its own width (a reply's records share a
	// schema), never beyond what the remaining bytes could hold.
	var slab []record.Value
	var owner string
	for i := 0; i < n && r.err == nil; i++ {
		rec := RecordDTO{ID: r.str(), Owner: r.strOr(owner)}
		owner = rec.Owner
		nv := r.count(valueMinBytes)
		if nv > 0 {
			if nv > cap(slab)-len(slab) {
				room := r.remaining() / valueMinBytes // >= nv: count checked it
				if n-i <= room/nv {
					room = nv * (n - i)
				}
				slab = make([]record.Value, 0, room)
			}
			start := len(slab)
			for j := 0; j < nv && r.err == nil; j++ {
				slab = append(slab, record.Value{Num: r.f64(), Str: r.str()})
			}
			rec.Values = slab[start:len(slab):len(slab)]
		}
		qr.Records = append(qr.Records, rec)
	}
	qr.Redirects = readRedirects(r, 0)
	if r.bool() {
		qr.Trace = &TraceInfo{
			ServerID:        r.str(),
			EvalMicros:      r.uvarint(),
			LocalRecords:    int(r.varint()),
			Children:        int(r.varint()),
			Replicas:        int(r.varint()),
			MatchedChildren: readStrings(r),
			MatchedReplicas: readStrings(r),
		}
	}
	if qr.Coarse = r.bool(); qr.Coarse {
		qr.CoarseEstimate = r.f64()
	}
	qr.NotModified = r.bool()
	qr.Fingerprint = r.uvarint()
}

func appendStatus(b []byte, st *Status) []byte {
	b = appendString(b, st.ID)
	b = appendString(b, st.Addr)
	b = appendString(b, st.ParentID)
	b = appendBool(b, st.IsRoot)
	b = appendVarint(b, int64(st.Children))
	b = appendVarint(b, int64(st.Replicas))
	b = appendVarint(b, int64(st.Owners))
	b = appendUvarint(b, st.BranchRecords)
	b = appendUvarint(b, st.LocalRecords)
	b = appendStrings(b, st.RootPath)
	b = appendUvarint(b, st.QueriesServed)
	b = appendUvarint(b, st.RedirectsIssued)
	b = appendUvarint(b, st.SummariesRecv)
	b = appendUvarint(b, st.QueriesShed)
	b = appendUvarint(b, st.SummaryErrors)
	b = appendBool(b, st.Transport != nil)
	if tr := st.Transport; tr != nil {
		b = appendUvarint(b, tr.Dials)
		b = appendUvarint(b, tr.Reuses)
		b = appendUvarint(b, tr.InFlight)
		b = appendUvarint(b, tr.Calls)
		b = appendUvarint(b, tr.Errors)
		b = appendUvarint(b, tr.Retries)
		b = appendUvarint(b, tr.BytesSent)
		b = appendUvarint(b, tr.BytesRecv)
		b = appendUvarint(b, tr.P50Micros)
		b = appendUvarint(b, tr.P99Micros)
	}
	b = appendUvarint(b, st.SummaryRebuildsSkipped)
	b = appendUvarint(b, st.ReportsSuppressed)
	b = appendUvarint(b, st.ReplicaPushDelta)
	return appendUvarint(b, st.ReplicaPushFull)
}

func readStatus(r *binReader) *Status {
	st := &Status{
		ID:              r.str(),
		Addr:            r.str(),
		ParentID:        r.str(),
		IsRoot:          r.bool(),
		Children:        int(r.varint()),
		Replicas:        int(r.varint()),
		Owners:          int(r.varint()),
		BranchRecords:   r.uvarint(),
		LocalRecords:    r.uvarint(),
		RootPath:        readStrings(r),
		QueriesServed:   r.uvarint(),
		RedirectsIssued: r.uvarint(),
		SummariesRecv:   r.uvarint(),
		QueriesShed:     r.uvarint(),
		SummaryErrors:   r.uvarint(),
	}
	if r.bool() {
		st.Transport = &TransportStatus{
			Dials:     r.uvarint(),
			Reuses:    r.uvarint(),
			InFlight:  r.uvarint(),
			Calls:     r.uvarint(),
			Errors:    r.uvarint(),
			Retries:   r.uvarint(),
			BytesSent: r.uvarint(),
			BytesRecv: r.uvarint(),
			P50Micros: r.uvarint(),
			P99Micros: r.uvarint(),
		}
	}
	st.SummaryRebuildsSkipped = r.uvarint()
	st.ReportsSuppressed = r.uvarint()
	st.ReplicaPushDelta = r.uvarint()
	st.ReplicaPushFull = r.uvarint()
	return st
}

// --- Summaries ---

// appendSummary writes a SummaryDTO: header fields, then histograms as
// uvarint bucket counts, value sets as sorted (value, count) pairs, and Bloom
// filters as raw little-endian uint64 bitsets. Almost every bucket count is
// below 128, so a count takes one byte instead of a four-byte word; bitset
// words are uniformly spread, so they stay raw. The Bloom section ends the
// summary.
func appendSummary(b []byte, s *SummaryDTO) []byte {
	b = appendUvarint(b, s.Records)
	b = appendUvarint(b, s.PolicyRev)
	b = appendVarint(b, int64(s.Buckets))
	b = appendF64(b, s.Min)
	b = appendF64(b, s.Max)

	b = appendUvarint(b, uint64(len(s.Hists)))
	for i := range s.Hists {
		h := &s.Hists[i]
		b = appendVarint(b, int64(h.Attr))
		b = appendUvarint(b, h.Total)
		b = appendUvarint(b, uint64(len(h.Counts)))
		// The one-byte case inline beats a plain AppendUvarint per count:
		// BenchmarkEncodeSummary1000Buckets 36.9 → 31.8 µs, 10 of 10 pairs.
		for _, c := range h.Counts {
			if c < 0x80 {
				b = append(b, byte(c))
			} else {
				b = binary.AppendUvarint(b, uint64(c))
			}
		}
	}

	b = appendUvarint(b, uint64(len(s.Sets)))
	for i := range s.Sets {
		vs := &s.Sets[i]
		b = appendVarint(b, int64(vs.Attr))
		b = appendUvarint(b, uint64(len(vs.Counts)))
		keys := make([]string, 0, len(vs.Counts))
		for k := range vs.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic bytes for identical sets
		for _, k := range keys {
			b = appendString(b, k)
			b = appendUvarint(b, uint64(vs.Counts[k]))
		}
	}

	b = appendUvarint(b, uint64(len(s.Blooms)))
	for i := range s.Blooms {
		bl := &s.Blooms[i]
		b = appendVarint(b, int64(bl.Attr))
		b = appendUvarint(b, uint64(bl.NumBit))
		b = appendUvarint(b, uint64(bl.Hashes))
		b = appendUvarint(b, bl.N)
		b = appendUvarint(b, uint64(len(bl.Bits)))
		for _, w := range bl.Bits {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

func readSummary(r *binReader) *SummaryDTO {
	s := &SummaryDTO{
		Records:   r.uvarint(),
		PolicyRev: r.uvarint(),
		Buckets:   int(r.varint()),
		Min:       r.f64(),
		Max:       r.f64(),
	}

	nh := r.count(3)
	if nh > 0 {
		s.Hists = make([]HistDTO, 0, nh)
	}
	for i := 0; i < nh && r.err == nil; i++ {
		h := HistDTO{Attr: int(r.varint()), Total: r.uvarint()}
		// A count takes at least one byte, which bounds the allocation. The
		// loop works on locals: one-byte counts are nearly all of them.
		if nc := r.count(1); nc > 0 {
			h.Counts = make([]uint32, nc)
			buf, off := r.b, r.off
			for j := range h.Counts {
				if off < len(buf) && buf[off] < 0x80 {
					h.Counts[j] = uint32(buf[off])
					off++
					continue
				}
				v, n := binary.Uvarint(buf[off:])
				if n <= 0 || v > math.MaxUint32 {
					r.fail("bad histogram count at byte %d", off)
					break
				}
				h.Counts[j] = uint32(v)
				off += n
			}
			r.off = off
		}
		s.Hists = append(s.Hists, h)
	}

	ns := r.count(2)
	if ns > 0 {
		s.Sets = make([]SetDTO, 0, ns)
	}
	for i := 0; i < ns && r.err == nil; i++ {
		vs := SetDTO{Attr: int(r.varint())}
		nv := r.count(2)
		vs.Counts = make(map[string]uint32, nv)
		for j := 0; j < nv && r.err == nil; j++ {
			k := r.str()
			vs.Counts[k] = uint32(r.uvarint())
		}
		s.Sets = append(s.Sets, vs)
	}

	nb := r.count(5)
	if nb > 0 {
		s.Blooms = make([]BloomDTO, 0, nb)
	}
	for i := 0; i < nb && r.err == nil; i++ {
		bl := BloomDTO{
			Attr:   int(r.varint()),
			NumBit: uint32(r.uvarint()),
			Hashes: uint32(r.uvarint()),
			N:      r.uvarint(),
		}
		nw := r.count(8)
		if nw > 0 {
			bl.Bits = make([]uint64, nw)
			for j := range bl.Bits {
				if r.remaining() < 8 {
					r.fail("truncated bloom bits")
					break
				}
				bl.Bits[j] = binary.LittleEndian.Uint64(r.b[r.off:])
				r.off += 8
			}
		}
		s.Blooms = append(s.Blooms, bl)
	}
	return s
}
