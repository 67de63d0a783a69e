package live

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"roads/internal/query"
	"roads/internal/wire"
)

// DefaultResultCacheBytes is the result-cache byte budget applied when
// Config.ResultCacheBytes is zero.
const DefaultResultCacheBytes = 4 << 20

// resultCacheMaxEntryFrac caps a single entry at this fraction of the byte
// budget — one enormous answer must not evict the whole working set.
const resultCacheMaxEntryFrac = 4

// cacheDep is one routing dependency of a cached reply: the dep hash the
// snapshot computed for a child or replica, plus whether the entry's query
// matched it (matched targets contributed a redirect; unmatched ones
// contributed their absence).
type cacheDep struct {
	id      string
	dep     uint64
	matched bool
	// inScope is false for replica deps the query's scope filtered out
	// entirely — their content can change freely without touching the
	// answer.
	inScope bool
}

// cacheEntry is one cached query reply plus everything needed to prove it
// is still exactly what a fresh evaluation would produce.
type cacheEntry struct {
	key   string
	reply wire.QueryReply // never mutated; hits get a shallow copy
	size  int64

	// Local dependencies, revalidated against live state on every hit:
	// the server store's epoch and each summary-mode owner's record-set
	// generation and policy view revision (pointer identity pins the
	// owner set itself).
	storeEpoch uint64
	ownerDeps  []ownerDep

	// Routing dependencies, revalidated in lockstep against the current
	// snapshot's sorted children/replicas.
	children []cacheDep
	replicas []cacheDep
	start    bool
	scope    int

	insertedAt time.Time
	hits       uint64
}

// ownerDep versions one attached owner's contribution to a reply.
type ownerDep struct {
	gen uint64
	rev uint64
}

// resultCache is the server-side query result cache (ROADMAP item 4): a
// byte-bounded LRU of complete query replies keyed by (normalized
// predicates, requester, scope, start), each entry carrying the exact
// version set it was computed from. Lookups revalidate every dependency —
// store epoch, owner generations and view revisions, and the per-branch dep
// hashes the routing snapshot stamps — so a hit is byte-identical to a
// fresh evaluation by construction, and a churned branch kills precisely
// the entries whose answers it could have changed while every other entry
// survives.
type resultCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	lru     *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
}

// newResultCache sizes the cache from Config.ResultCacheBytes (zero =
// DefaultResultCacheBytes, negative = disabled → nil).
func newResultCache(budget int64) *resultCache {
	if budget < 0 {
		return nil
	}
	if budget == 0 {
		budget = DefaultResultCacheBytes
	}
	return &resultCache{
		max:     budget,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// appendCacheKey appends a query's cache identity to b: the requester
// (owner views differ per requester), scope and start flag, and the
// predicate set in canonical order so textually reordered conjunctions
// share one entry. Every field goes in exactly — strings length-prefixed,
// range bounds as their float bits — so two queries share a key only when
// they are the same query; a rendering of the bounds would merge ranges
// that differ past its precision and serve one the other's answer. The
// query ID is deliberately excluded — replies do not echo it.
func appendCacheKey(b []byte, requester string, scope int, start bool, preds []query.Predicate) []byte {
	b = binary.AppendUvarint(b, uint64(len(requester)))
	b = append(b, requester...)
	b = binary.AppendVarint(b, int64(scope))
	if start {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
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

// cacheKey is the server result cache's key for a query; built in a stack
// buffer, it costs the one allocation of the returned string.
func cacheKey(requester string, scope int, start bool, preds []query.Predicate) string {
	var buf [256]byte
	return string(appendCacheKey(buf[:0], requester, scope, start, preds))
}

// replySize estimates a reply's resident bytes for the LRU budget.
func replySize(key string, rep *wire.QueryReply) int64 {
	size := int64(len(key)) + 256 // entry struct, map slot, list element
	for _, r := range rep.Records {
		size += int64(len(r.ID) + len(r.Owner) + 48)
		for _, v := range r.Values {
			size += int64(len(v.Str)) + 16
		}
	}
	var redirects func(rds []wire.RedirectInfo)
	redirects = func(rds []wire.RedirectInfo) {
		for _, rd := range rds {
			size += int64(len(rd.ID) + len(rd.Addr) + 48)
			redirects(rd.Alternates)
		}
	}
	redirects(rep.Redirects)
	return size
}

// lookup returns the cached reply for the key if every dependency still
// holds, updating the entry's recency and hit count. The bound query q is
// needed to re-test deps whose hash moved but whose target the entry never
// matched: a branch that changed while still not matching the query leaves
// the answer untouched, so the entry survives with the dep refreshed — this
// is what keeps invalidation exact instead of key-wide.
func (rc *resultCache) lookup(s *Server, snap *routingSnapshot, key string, q *query.Query) (wire.QueryReply, time.Duration, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.entries[key]
	if !ok {
		rc.misses.Add(1)
		return wire.QueryReply{}, 0, false
	}
	e := el.Value.(*cacheEntry)
	if !rc.validLocked(s, snap, e, q) {
		rc.removeLocked(el)
		rc.invalidations.Add(1)
		rc.misses.Add(1)
		return wire.QueryReply{}, 0, false
	}
	rc.lru.MoveToFront(el)
	e.hits++
	rc.hits.Add(1)
	return e.reply, time.Since(e.insertedAt), true
}

// validLocked proves the entry current against live local state and the
// routing snapshot.
func (rc *resultCache) validLocked(s *Server, snap *routingSnapshot, e *cacheEntry, q *query.Query) bool {
	if s.store.Epoch() != e.storeEpoch {
		return false
	}
	if len(snap.owners) != len(e.ownerDeps) {
		return false
	}
	for i, o := range snap.owners {
		if o.Generation() != e.ownerDeps[i].gen || o.Policy.Rev() != e.ownerDeps[i].rev {
			return false
		}
	}
	if len(snap.children) != len(e.children) {
		return false
	}
	for i := range snap.children {
		c := &snap.children[i]
		d := &e.children[i]
		if c.ri.ID != d.id {
			return false
		}
		if c.dep == d.dep {
			continue
		}
		// The branch changed. A previously matched branch shaped the
		// answer (redirect estimate, alternates), so the entry dies; a
		// previously unmatched one only matters if it matches now.
		if d.matched || c.branch == nil || q.MatchSummary(c.branch) {
			return false
		}
		d.dep = c.dep
	}
	if !e.start {
		return true // replicas never entered the evaluation
	}
	if len(snap.replicas) != len(e.replicas) {
		return false
	}
	for i := range snap.replicas {
		r := &snap.replicas[i]
		d := &e.replicas[i]
		if r.ri.ID != d.id {
			return false
		}
		if r.dep == d.dep {
			continue
		}
		if !d.inScope {
			// Scope filtering excluded this replica outright; its churn
			// cannot reach the answer.
			d.dep = r.dep
			continue
		}
		if d.matched || q.MatchSummary(r.match) {
			return false
		}
		d.dep = r.dep
	}
	return true
}

// insert caches a freshly evaluated reply with its dependency set. Entries
// with any unversioned dependency (dep 0: a child or replica whose summary
// carries no content version) are refused — without a version there is no precise invalidation
// signal, and correctness beats hit rate.
func (rc *resultCache) insert(e *cacheEntry) {
	for _, d := range e.children {
		if d.dep == 0 {
			return
		}
	}
	if e.start {
		for _, d := range e.replicas {
			if d.dep == 0 {
				return
			}
		}
	}
	if e.size > rc.max/resultCacheMaxEntryFrac {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.entries[e.key]; ok {
		rc.removeLocked(el)
	}
	rc.entries[e.key] = rc.lru.PushFront(e)
	rc.bytes += e.size
	for rc.bytes > rc.max {
		back := rc.lru.Back()
		if back == nil {
			break
		}
		rc.removeLocked(back)
		rc.evictions.Add(1)
	}
}

// removeLocked drops one entry from the map, list and byte accounting.
func (rc *resultCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	delete(rc.entries, e.key)
	rc.lru.Remove(el)
	rc.bytes -= e.size
}

// info returns the cache's current occupancy under the lock.
func (rc *resultCache) info() (entries int, bytes int64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.entries), rc.bytes
}

// CacheInfo is the result cache's observable state, mirroring the
// roads_cache_* series for harness and test consumption.
type CacheInfo struct {
	Enabled       bool
	Entries       int
	Bytes         int64
	BudgetBytes   int64
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
}

// CacheInfo reports the server's result-cache state (zero with the cache
// disabled).
func (s *Server) CacheInfo() CacheInfo {
	rc := s.resultCache
	if rc == nil {
		return CacheInfo{}
	}
	entries, bytes := rc.info()
	return CacheInfo{
		Enabled:       true,
		Entries:       entries,
		Bytes:         bytes,
		BudgetBytes:   rc.max,
		Hits:          rc.hits.Load(),
		Misses:        rc.misses.Load(),
		Evictions:     rc.evictions.Load(),
		Invalidations: rc.invalidations.Load(),
	}
}

// depHash folds one routing-relevant field sequence into a dep hash. Dep
// hashes start from the target's content version: version 0 (an
// unversioned summary) yields dep 0, which marks the target
// uncacheable rather than pretending staleness is detectable.
type depHasher struct{ h uint64 }

func newDepHasher() depHasher { return depHasher{h: 14695981039346656037} } // FNV-64a offset

func (d *depHasher) str(s string) {
	for i := 0; i < len(s); i++ {
		d.h = (d.h ^ uint64(s[i])) * 1099511628211
	}
	d.h = (d.h ^ 0xff) * 1099511628211 // terminator: "ab","c" ≠ "a","bc"
}

func (d *depHasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h = (d.h ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
}

func (d *depHasher) redirects(rds []wire.RedirectInfo) {
	d.u64(uint64(len(rds)))
	for _, rd := range rds {
		d.str(rd.ID)
		d.str(rd.Addr)
		d.u64(rd.Records)
		d.redirects(rd.Alternates)
	}
}

// queryFingerprint derives the reply fingerprint for the snapshot:
// the snapshot's routing dep base folded with the live store epoch and
// owner generations/view revisions. Zero (no fingerprint, "don't cache")
// when any routing dependency is unversioned.
func (s *Server) queryFingerprint(snap *routingSnapshot) uint64 {
	if snap.fpBase == 0 {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	put(snap.fpBase)
	put(s.store.Epoch())
	put(uint64(len(snap.owners)))
	for _, o := range snap.owners {
		put(o.Generation())
		put(o.Policy.Rev())
	}
	fp := h.Sum64()
	if fp == 0 {
		fp = 1 // zero is reserved for "unavailable"
	}
	return fp
}

// coarseReply builds the degraded answer admission control and
// budget shedding return instead of an error: no records or redirects, just
// the summary-derived match estimate for the whole branch.
func (s *Server) coarseReply(snap *routingSnapshot, q *query.Query) wire.QueryReply {
	rep := wire.QueryReply{Coarse: true}
	if snap.branchSummary != nil {
		est := q.EstimateMatches(snap.branchSummary)
		if !math.IsNaN(est) && !math.IsInf(est, 0) {
			rep.CoarseEstimate = est
		}
	}
	return rep
}
