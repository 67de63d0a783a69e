package live

import (
	"container/list"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/transport"
	"roads/internal/wire"
)

// clientCacheBytes is the client result cache's byte budget.
const clientCacheBytes = 1 << 20

// retryBackoff is the base retry delay, doubled per attempt with ±25% jitter
// and capped at a second.
const retryBackoff = 20 * time.Millisecond

// Client resolves queries against a live ROADS deployment by following
// redirects, querying redirect targets concurrently — up to MaxConcurrent
// contacts at once, exactly the fan-out the overlay enables.
// Each attempt at a contact is bounded by Timeout, a failed one retried with
// exponential backoff, and a contact that stays unreachable failed over to
// alternate replica holders of the same branch, so a crashed or partitioned
// server costs retries rather than its whole subtree.
type Client struct {
	tr transport.Transport
	// Requester is the identity presented to owners' sharing policies.
	Requester string
	// MaxConcurrent bounds parallel contacts (default 16).
	MaxConcurrent int
	// Timeout bounds each attempt at a server contact (default
	// wire.Deadline); a retry gets a full Timeout of its own. The overall
	// resolve deadline comes from the caller's context; each attempt's
	// budget is the smaller of the two.
	Timeout time.Duration
	// Retries is how many times a failed contact is retried (on top of
	// the first attempt) before failing over to alternates. NewClient
	// sets 1; negative disables retries.
	Retries int
	// Trace enables per-hop query tracing: the client stamps each resolve
	// with a trace ID, asks every contacted server for its evaluation
	// trace (wire.TraceInfo), and records each contact as a HopTrace in
	// QueryStats.Hops — including the contacts that failed and the
	// failover stand-ins spawned for them. Tracing adds a few fields per
	// hop on the wire and is off by default.
	Trace bool
	// CacheResults caches each resolve's deduplicated record set keyed by
	// (entry address, normalized query) together with the entry server's
	// reply fingerprint. A repeat resolve then sends one revalidation
	// query carrying the fingerprint: if the entry server answers
	// NotModified the cached records are returned with zero descent — the
	// whole repeat costs exactly one RPC. Any fingerprint change falls
	// back to a full resolve. Off by default; the cache holds at most 1 MiB
	// (clientCacheBytes).
	CacheResults bool

	rngMu sync.Mutex
	rng   *rand.Rand

	// cacheMu guards the client-side result cache (an LRU over resolved
	// record sets).
	cacheMu    sync.Mutex
	cacheLRU   *list.List
	cacheByKey map[string]*list.Element
	cacheBytes int64
}

// NewClient creates a client over the transport.
func NewClient(tr transport.Transport, requester string) *Client {
	// Seed from the requester name AND the clock: the name alone would give
	// every process the same jitter and — worse — the same trace IDs, making
	// traces from separate runs indistinguishable in server logs.
	h := fnv.New64a()
	_, _ = h.Write([]byte(requester))
	return &Client{
		tr:            tr,
		Requester:     requester,
		MaxConcurrent: 16,
		Retries:       1,
		rng:           rand.New(rand.NewSource(int64(h.Sum64()) ^ time.Now().UnixNano())),
	}
}

// QueryStats reports how a resolution unfolded.
type QueryStats struct {
	// Contacted is the number of servers that answered.
	Contacted int
	// Failed is the number of contacts that errored mid-resolution
	// (counting a contact once, however many retry attempts it burned). A
	// resolve with Failed > 0 returned real records but may not have
	// covered the whole federation — callers needing completeness must
	// check it (a partial answer is not an error, so err stays nil once
	// any server has answered).
	Failed int
	// Retried counts retry attempts beyond each contact's first try.
	Retried int
	// FailedOver counts failed contacts whose alternate replica holders
	// were contacted in their stead.
	FailedOver int
	// Coverage estimates the fraction of known subtree records the
	// resolve reached: every redirect carries the target region's record
	// count, and targets that never answered (nor any alternate for them)
	// subtract theirs. 1.0 means every discovered region answered; it
	// cannot see regions no surviving server advertised.
	Coverage float64
	// Errors describes each failed contact ("addr: cause").
	Errors []string
	// Elapsed is the wall-clock total response time.
	Elapsed time.Duration
	// Servers lists contacted server IDs.
	Servers []string
	// TraceID identifies this resolve in server logs (set when the client
	// has Trace enabled).
	TraceID string
	// Hops records every server contact of a traced resolve, in completion
	// order (empty unless the client has Trace enabled).
	Hops []HopTrace
	// CacheHit reports the resolve was served from the client cache: the
	// entry server confirmed the cached fingerprint (NotModified), so the
	// records returned are the cached set and no descent happened.
	CacheHit bool
	// Coarse counts contacts that answered with a degraded summary-only
	// reply (shed over its deadline budget): no records, only an estimate.
	// CoarseEstimate sums those servers' estimated match counts.
	Coarse         int
	CoarseEstimate float64
}

// HopTrace is one server contact of a traced resolve: how the target was
// discovered, how the contact went, and — when the server answered — its
// own evaluation trace.
type HopTrace struct {
	// Kind is how the contact was discovered: "start" (the entry server),
	// "redirect" (named in a query reply) or "failover" (an alternate
	// stood in for a failed contact).
	Kind string
	// Addr is the address contacted; ServerID the responder's identity
	// (empty when the contact never answered).
	Addr     string
	ServerID string
	// Via is the server that named this target (empty for the start hop).
	Via string
	// Path is the redirect chain from the start server to this contact
	// (server IDs, excluding the contact itself), capped at
	// wire.MaxTracePath entries.
	Path []string
	// Attempts is how many attempts the contact burned (1 = no retries;
	// 0 = never sent, the resolve's deadline had already passed).
	Attempts int
	// RTT is the round-trip time of the final attempt.
	RTT time.Duration
	// Records and Redirects count what the reply carried.
	Records   int
	Redirects int
	// Err is the final error when the contact failed.
	Err string
	// Info is the server-side evaluation trace (eval latency, match
	// decisions), present when the server answered.
	Info *wire.TraceInfo
}

// Resolve runs the query starting at startAddr and gathers all matching
// records (deduplicated by record ID + owner), searching the whole
// hierarchy.
func (c *Client) Resolve(startAddr string, q *query.Query) ([]*record.Record, QueryStats, error) {
	return c.ResolveScopedContext(context.Background(), startAddr, q, -1)
}

// ResolveContext is Resolve bounded by ctx: the resolve returns once ctx
// expires, with whatever records had been gathered by then.
func (c *Client) ResolveContext(ctx context.Context, startAddr string, q *query.Query) ([]*record.Record, QueryStats, error) {
	return c.ResolveScopedContext(ctx, startAddr, q, -1)
}

// ResolveScoped is Resolve with the paper's §III-C scope control: the
// search is bounded to the branch of the start server's ancestor `scope`
// levels up (0 = only the start server's subtree, negative = everything).
func (c *Client) ResolveScoped(startAddr string, q *query.Query, scope int) ([]*record.Record, QueryStats, error) {
	return c.ResolveScopedContext(context.Background(), startAddr, q, scope)
}

// How a contact was discovered (HopTrace.Kind).
const (
	hopStart    = "start"
	hopRedirect = "redirect"
	hopFailover = "failover"
)

// batch is the contacts one reply added to a resolve: the servers it named
// that no earlier reply had, and how they were discovered. rds is the
// reply's own slice, filtered in place — a decoded reply belongs to the
// resolve that asked for it — so queueing a contact copies nothing.
type batch struct {
	rds  []wire.RedirectInfo // not yet started
	kind string
	via  string
	path []string
}

// target is one server contact the resolve owes: where, how many records
// its region covers (0 = unknown), and who can stand in for it. The trace
// fields (kind, via, path) ride along only so traced resolves can label
// the hop.
type target struct {
	addr       string
	records    uint64
	alternates []wire.RedirectInfo
	kind       string
	via        string
	path       []string
}

// extendPath returns path + next, shared-safely (fresh backing array) and
// capped at wire.MaxTracePath entries — beyond the cap the chain stops
// growing rather than the resolve stopping.
func extendPath(path []string, next string) []string {
	if len(path) >= wire.MaxTracePath {
		return path
	}
	out := make([]string, 0, len(path)+1)
	out = append(out, path...)
	return append(out, next)
}

// recKey identifies a record for deduplication across replies.
type recKey struct{ owner, id string }

// resolve is the state of one ResolveScopedContext call. Contacts owed sit
// in a queue that at most maxPar workers drain — the caller's goroutine is
// the first — so a resolve costs a goroutine per unit of parallelism it
// actually reaches, not one per contact. Everything below mu is shared by
// the workers.
type resolve struct {
	c       *Client
	ctx     context.Context
	q       *query.Query
	scope   int
	timeout time.Duration
	retries int
	maxPar  int
	// The client-cache entry for this (entry address, query), captured up
	// front so a NotModified answer always has the records it vouches for.
	cachedRecs []*record.Record
	cachedFP   uint64

	wg sync.WaitGroup
	mu sync.Mutex
	// queue holds the batches with contacts not yet started, queued their
	// total; workers counts the goroutines draining them and inflight those
	// inside a contact.
	queue    []batch
	queued   int
	workers  int
	inflight int
	entry    [1]wire.RedirectInfo // the start batch's backing
	visited  map[string]bool
	records  []*record.Record
	seenRec  map[recKey]bool
	firstEr  error
	// Coverage accounting: known sums the record estimates of every
	// discovered redirect region, reached those whose target (or a
	// stand-in alternate) answered.
	known, reached uint64
	// startFP is the fingerprint the entry server stamped on its full
	// answer; the resolve's record set is cached under it at the end.
	startFP uint64
	stats   QueryStats
}

// ResolveScopedContext is ResolveScoped bounded by ctx. Every attempt at a
// server contact gets at most min(Timeout, remaining deadline); failed
// contacts are retried with backoff and then failed over to the alternate
// replica holders the redirecting server named, so the resolve routes around
// dead or partitioned servers instead of silently dropping their subtrees.
//
// The timeout rides on the resolve's one context as a value the transport
// enforces (transport.WithCallTimeout), so nothing is armed per contact. Over
// the in-process Chan transport that leaves a handler that never returns
// unbounded unless ctx can be cancelled.
func (c *Client) ResolveScopedContext(ctx context.Context, startAddr string, q *query.Query, scope int) ([]*record.Record, QueryStats, error) {
	begin := time.Now()
	q = q.Clone()
	q.Requester = c.Requester
	r := &resolve{
		c:       c,
		q:       q,
		scope:   scope,
		timeout: c.Timeout,
		retries: c.Retries,
		maxPar:  c.MaxConcurrent,
		visited: map[string]bool{startAddr: true},
		stats:   QueryStats{Coverage: 1},
	}
	if c.Trace {
		r.stats.TraceID = c.newTraceID()
	}
	if r.maxPar <= 0 {
		r.maxPar = 16
	}
	if r.timeout <= 0 {
		r.timeout = wire.Deadline
	}
	if r.retries < 0 {
		r.retries = 0
	}
	r.ctx = transport.WithCallTimeout(ctx, r.timeout)
	var ckey string
	if c.CacheResults {
		var buf [256]byte
		kb := append(append(buf[:0], startAddr...), 0)
		ckey = string(appendCacheKey(kb, c.Requester, scope, q.Preds))
		r.cachedRecs, r.cachedFP = c.cacheGet(ckey)
	}

	r.entry[0].Addr = startAddr
	r.queue, r.queued = append(r.queue, batch{rds: r.entry[:], kind: hopStart}), 1
	r.workers = 1
	r.drain()
	r.wg.Wait()

	stats := r.stats
	stats.Elapsed = time.Since(begin)
	if r.known > 0 {
		stats.Coverage = float64(r.reached) / float64(r.known)
		if stats.Coverage > 1 {
			stats.Coverage = 1 // alternates can over-count a region
		}
	}
	if r.firstEr != nil && stats.Contacted == 0 {
		return nil, stats, r.firstEr
	}
	if c.CacheResults && !stats.CacheHit && r.startFP != 0 &&
		stats.Failed == 0 && stats.Coarse == 0 {
		// Cache only complete resolves: a partial or degraded answer
		// replayed through NotModified would pin its gaps until the
		// fingerprint happens to move.
		c.cacheStore(ckey, r.records, r.startFP)
	}
	return r.records, stats, nil
}

// drain runs queued contacts until none is left. A worker that finds the
// queue empty exits; absorbing a reply starts new ones as needed.
func (r *resolve) drain() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.queued > 0 {
		b := &r.queue[0]
		rd := &b.rds[0]
		t := target{
			addr: rd.Addr, records: rd.Records, alternates: rd.Alternates,
			kind: b.kind, via: b.via, path: b.path,
		}
		if b.rds = b.rds[1:]; len(b.rds) == 0 {
			r.queue = append(r.queue[:0], r.queue[1:]...) // a handful of batches at most
		}
		r.queued--
		r.inflight++
		r.mu.Unlock()
		rep, attempts, rtt, err := r.call(t)
		r.mu.Lock()
		r.inflight--
		r.absorb(t, rep, attempts, rtt, err)
	}
	r.workers--
}

// enqueueLocked queues the servers of b.rds that the resolve has not
// visited yet and starts workers for those no existing worker is about to
// take: each worker between contacts (the caller among them) takes one
// when it loops, and maxPar bounds the total. It returns how many servers
// it queued and their record estimates. Callers hold r.mu.
func (r *resolve) enqueueLocked(b batch) (n int, records uint64) {
	fresh := b.rds[:0]
	for _, rd := range b.rds {
		if !r.visited[rd.Addr] {
			r.visited[rd.Addr] = true
			records += rd.Records
			fresh = append(fresh, rd)
		}
	}
	if len(fresh) == 0 {
		return 0, 0
	}
	b.rds = fresh
	r.queue = append(r.queue, b)
	r.queued += len(fresh)
	for r.workers < r.maxPar && r.workers-r.inflight < r.queued {
		r.workers++
		r.wg.Add(1)
		go r.worker()
	}
	return len(fresh), records
}

func (r *resolve) worker() {
	defer r.wg.Done()
	r.drain()
}

// call makes one contact: the query to t, every attempt with a budget of
// its own, retried with backoff. It returns the final reply or error, the
// attempts sent and the last attempt's round-trip time.
func (r *resolve) call(t target) (rep *wire.Message, attempts int, lastRTT time.Duration, err error) {
	c := r.c
	start := t.kind == hopStart
	dto := wire.FromQuery(r.q, start)
	dto.Scope = r.scope
	if c.Trace {
		dto.Trace = true
		dto.TraceID = r.stats.TraceID
		dto.Path = t.path
	}
	if start && c.CacheResults {
		dto.WantFingerprint = true
		dto.CacheFingerprint = r.cachedFP
	}
	req := &wire.Message{Kind: wire.KindQuery, From: c.Requester, Query: dto}
	deadline, bounded := r.ctx.Deadline()
	for attempt := 0; ; attempt++ {
		sent := time.Now()
		// The budget the server sees is what the transport enforces on
		// this attempt — the per-contact timeout clipped by the overall
		// resolve deadline — so it can shed work the client has abandoned.
		dto.Budget = r.timeout
		if bounded {
			if left := deadline.Sub(sent); left < dto.Budget {
				dto.Budget = left
			}
		}
		if dto.Budget <= 0 {
			// Nothing is left to spend, and on the wire a budget of zero
			// or less would read as no limit.
			if err = r.ctx.Err(); err == nil {
				err = context.DeadlineExceeded // ctx may lag its deadline by a moment
			}
			return nil, attempts, lastRTT, fmt.Errorf("live: contact not attempted: %w", err)
		}
		attempts = attempt + 1
		rep, err = c.tr.CallContext(r.ctx, t.addr, req)
		lastRTT = time.Since(sent)
		if err == nil {
			err = wire.RemoteError(rep)
		}
		if err == nil && rep.QueryRep == nil {
			err = fmt.Errorf("live: %s returned %v to a query", rep.From, rep.Kind)
		}
		if err == nil || attempt >= r.retries || r.ctx.Err() != nil {
			return rep, attempts, lastRTT, err
		}
		r.mu.Lock()
		r.stats.Retried++
		r.mu.Unlock()
		if !c.backoff(r.ctx, attempt) {
			return rep, attempts, lastRTT, err
		}
	}
}

// absorb folds one finished contact into the resolve: its records, the
// contacts its redirects (or, on failure, its alternates) add to the queue,
// and the stats. Callers hold r.mu.
func (r *resolve) absorb(t target, rep *wire.Message, attempts int, lastRTT time.Duration, err error) {
	c, stats := r.c, &r.stats
	var hop *HopTrace
	if c.Trace {
		stats.Hops = append(stats.Hops, HopTrace{
			Kind:     t.kind,
			Addr:     t.addr,
			Via:      t.via,
			Path:     t.path,
			Attempts: attempts,
			RTT:      lastRTT,
		})
		hop = &stats.Hops[len(stats.Hops)-1]
	}
	if err != nil {
		if hop != nil {
			hop.Err = err.Error()
		}
		if r.firstEr == nil {
			r.firstEr = err
		}
		stats.Failed++
		stats.Errors = append(stats.Errors, fmt.Sprintf("%s: %v", t.addr, err))
		// Fail over: the redirecting server named other holders of
		// this branch (the target's children); contacting them keeps
		// the subtree covered minus only the target's own local data.
		if n, _ := r.enqueueLocked(batch{rds: t.alternates, kind: hopFailover, via: t.via, path: t.path}); n > 0 {
			stats.FailedOver++
		}
		return
	}
	qr := rep.QueryRep
	if hop != nil {
		hop.ServerID = rep.From
		hop.Records = len(qr.Records)
		hop.Redirects = len(qr.Redirects)
		hop.Info = qr.Trace
	}
	stats.Contacted++
	stats.Servers = append(stats.Servers, rep.From)
	r.reached += t.records
	if qr.NotModified {
		// The entry server confirmed the cached fingerprint: the cached
		// record set is current and there is nothing to descend into.
		// Only the entry server is asked, and it is the first contact,
		// so that set — deduplicated when it was stored — is the answer.
		stats.CacheHit = true
		r.records = append(r.records, r.cachedRecs...)
		return
	}
	if qr.Coarse {
		// Degraded summary-only answer: the server shed the
		// evaluation but vouches for roughly this many matches.
		stats.Coarse++
		stats.CoarseEstimate += qr.CoarseEstimate
		return
	}
	if t.kind == hopStart && qr.Fingerprint != 0 {
		r.startFP = qr.Fingerprint
	}
	// One slab holds the reply's records; duplicates are rare enough that
	// the slots they leave unused do not matter.
	recs := make([]record.Record, 0, len(qr.Records))
	r.records = slices.Grow(r.records, len(qr.Records))
	if r.seenRec == nil && len(qr.Records) > 0 {
		r.seenRec = make(map[recKey]bool, len(qr.Records))
	}
	for _, dto := range qr.Records {
		if key := (recKey{dto.Owner, dto.ID}); !r.seenRec[key] {
			r.seenRec[key] = true
			recs = append(recs, record.Record{ID: dto.ID, Owner: dto.Owner, Values: dto.Values})
			r.records = append(r.records, &recs[len(recs)-1])
		}
	}
	nextPath := t.path
	if c.Trace {
		nextPath = extendPath(t.path, rep.From)
	}
	_, records := r.enqueueLocked(batch{rds: qr.Redirects, kind: hopRedirect, via: rep.From, path: nextPath})
	r.known += records
}

// appendCacheKey appends a query's cache identity to b: the requester
// (owner views differ per requester), the scope, and the predicate set in
// canonical order so textually reordered conjunctions share one entry (the
// caller prefixes the entry address). Every field goes in exactly — strings
// length-prefixed, range bounds as their float bits — so two queries share
// a key only when they are the same query; a rendering of the bounds would
// merge ranges that differ past its precision and serve one the other's
// answer. The query ID is deliberately excluded — it does not change the
// answer.
func appendCacheKey(b []byte, requester string, scope int, preds []query.Predicate) []byte {
	b = binary.AppendUvarint(b, uint64(len(requester)))
	b = append(b, requester...)
	b = binary.AppendVarint(b, int64(scope))
	// Insertion sort over indexes: queries have a handful of predicates,
	// and this keeps the whole key off the heap.
	var orderBuf [8]int
	order := orderBuf[:0]
	if len(preds) > len(orderBuf) {
		order = make([]int, 0, len(preds))
	}
	for i := range preds {
		j := len(order)
		order = append(order, i)
		for ; j > 0 && predLess(&preds[i], &preds[order[j-1]]); j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	for _, i := range order {
		p := &preds[i]
		b = binary.AppendUvarint(b, uint64(len(p.Attr)))
		b = append(b, p.Attr...)
		b = append(b, byte(p.Op))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Lo))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Hi))
		b = binary.AppendUvarint(b, uint64(len(p.Str)))
		b = append(b, p.Str...)
	}
	return b
}

// predLess is the canonical predicate order of cache keys.
func predLess(a, b *query.Predicate) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	if la, lb := math.Float64bits(a.Lo), math.Float64bits(b.Lo); la != lb {
		return la < lb
	}
	if ha, hb := math.Float64bits(a.Hi), math.Float64bits(b.Hi); ha != hb {
		return ha < hb
	}
	return a.Str < b.Str
}

// clientCacheEntry is one cached resolve: the deduplicated record set and
// the entry-server fingerprint that vouches for it.
type clientCacheEntry struct {
	key     string
	records []*record.Record
	fp      uint64
	size    int64
}

// cacheGet returns the cached record set and fingerprint for the key
// (nil, 0 on miss), refreshing its LRU position.
func (c *Client) cacheGet(key string) ([]*record.Record, uint64) {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	el, ok := c.cacheByKey[key]
	if !ok {
		return nil, 0
	}
	c.cacheLRU.MoveToFront(el)
	e := el.Value.(*clientCacheEntry)
	return e.records, e.fp
}

// cacheStore caches a resolve's record set under the key, evicting LRU
// entries past the byte budget.
func (c *Client) cacheStore(key string, records []*record.Record, fp uint64) {
	size := int64(len(key)) + 128
	for _, r := range records {
		size += int64(len(r.ID)+len(r.Owner)+48) + int64(len(r.Values))*24
	}
	if size > clientCacheBytes {
		return
	}
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if c.cacheByKey == nil {
		c.cacheByKey = make(map[string]*list.Element)
		c.cacheLRU = list.New()
	}
	if el, ok := c.cacheByKey[key]; ok {
		c.cacheBytes -= el.Value.(*clientCacheEntry).size
		c.cacheLRU.Remove(el)
		delete(c.cacheByKey, key)
	}
	e := &clientCacheEntry{key: key, records: records, fp: fp, size: size}
	c.cacheByKey[key] = c.cacheLRU.PushFront(e)
	c.cacheBytes += size
	for c.cacheBytes > clientCacheBytes {
		back := c.cacheLRU.Back()
		if back == nil {
			break
		}
		old := back.Value.(*clientCacheEntry)
		c.cacheBytes -= old.size
		c.cacheLRU.Remove(back)
		delete(c.cacheByKey, old.key)
	}
}

// newTraceID draws a 64-bit hex trace ID from the client's seeded RNG —
// unique enough to grep a cluster's logs for one resolve, deterministic
// enough that replayed test runs produce the same IDs.
func (c *Client) newTraceID() string {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return fmt.Sprintf("%016x", c.rng.Uint64())
}

// backoff sleeps for the attempt's exponential backoff with ±25% jitter;
// it reports false when ctx expired instead.
func (c *Client) backoff(ctx context.Context, attempt int) bool {
	d := retryBackoff << uint(attempt)
	if d > time.Second {
		d = time.Second
	}
	c.rngMu.Lock()
	d = time.Duration(float64(d) * (0.75 + 0.5*c.rng.Float64()))
	c.rngMu.Unlock()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// Status fetches a server's operational snapshot.
func (c *Client) Status(addr string) (*wire.Status, error) {
	return c.StatusContext(context.Background(), addr)
}

// StatusContext is Status bounded by ctx.
func (c *Client) StatusContext(ctx context.Context, addr string) (*wire.Status, error) {
	rep, err := c.tr.CallContext(ctx, addr, &wire.Message{Kind: wire.KindStatus, From: c.Requester})
	if err != nil {
		return nil, err
	}
	if err := wire.RemoteError(rep); err != nil {
		return nil, err
	}
	if rep.Status == nil {
		return nil, fmt.Errorf("live: %s returned %v to a status request", rep.From, rep.Kind)
	}
	return rep.Status, nil
}
