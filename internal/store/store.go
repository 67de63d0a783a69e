package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
)

// CostModel charges virtual time for backend work, emulating the paper's
// DB2-backed record retrieval. Zero values mean free operations.
type CostModel struct {
	// PerQuery is the fixed cost of starting a local search (query
	// parsing, index lookup).
	PerQuery time.Duration
	// PerRecord is the cost of retrieving and serializing one matching
	// record.
	PerRecord time.Duration
	// PerScan is the cost of examining one candidate record during
	// matching.
	PerScan time.Duration
}

// DefaultCostModel approximates an indexed database on 2008-era hardware:
// 2 ms per query, 50 µs per returned record, 200 ns per scanned candidate.
// With these constants a 3% selectivity query over 200k records costs
// ~300 ms of retrieval — the regime where the paper's parallel ROADS
// retrieval overtakes the centralized repository.
func DefaultCostModel() CostModel {
	return CostModel{
		PerQuery:  2 * time.Millisecond,
		PerRecord: 50 * time.Microsecond,
		PerScan:   200 * time.Nanosecond,
	}
}

// DefaultShards is the shard count used when Options.Shards is zero. Eight
// shards keep per-shard index rebuilds and partial-summary rebuilds small
// without fragmenting small stores into empty shards.
const DefaultShards = 8

// DefaultRemovalRebuildFraction is the tracked-deletion threshold applied
// when Options.RemovalRebuildFraction is zero: once the removals subtracted
// from a shard's partial summary since its last rebuild exceed this
// fraction of the shard's live records, the partial is marked stale and the
// next export rebuilds that one shard from its records. Subtraction on
// value-set/histogram partials is exact, so this is a drift bound for
// future approximate summary kinds (equi-depth, sketches) more than a
// correctness requirement; Bloom partials cannot subtract at all and go
// stale on the first removal regardless.
const DefaultRemovalRebuildFraction = 0.5

// Options tunes store construction beyond the schema and cost model.
type Options struct {
	// Shards is the shard count; zero means DefaultShards. Records map to
	// shards by ID hash, so the same ID always lands in the same shard.
	Shards int
	// NoIndex disables per-attribute indexes: every search is a full scan.
	// Large simulations with many small stores use it to trade CPU for the
	// index memory.
	NoIndex bool
	// RemovalRebuildFraction overrides DefaultRemovalRebuildFraction.
	RemovalRebuildFraction float64
}

// Store holds one participant's records sharded by record-key hash. It is
// safe for concurrent use: readers proceed under per-shard read locks and
// mutations on different shards do not contend.
type Store struct {
	schema  *record.Schema
	cost    CostModel
	noIndex bool
	remFrac float64
	shards  []*shard

	// epoch counts store-level mutations (Add/Replace/Remove/Update that
	// changed anything). Readers that derive state from the records —
	// summary refresh above all — compare epochs to skip recomputing when
	// nothing changed.
	epoch atomic.Uint64
	// count tracks the live record total across shards.
	count atomic.Int64

	// snapMu guards the Records() concatenation cache: the merged
	// cross-shard snapshot built at snapEpoch. The epoch is read before
	// the shard snapshots are collected, so a concurrent mutation can only
	// make the cached snapshot newer than its epoch claims — the next call
	// rebuilds. Never the stale direction.
	snapMu    sync.Mutex
	snap      []*record.Record
	snapEpoch uint64
	haveSnap  bool

	// Summary-export state; see export.go.
	sumMu       sync.Mutex
	summarize   bool
	scfg        summary.Config
	merged      *summary.Summary
	mergedEpoch uint64
	haveMerged  bool

	stats storeStats
}

// storeStats are the maintenance counters surfaced by Stats().
type storeStats struct {
	shardRebuilds atomic.Uint64
	partialMerges atomic.Uint64
	exportsCached atomic.Uint64
	indexRebuilds atomic.Uint64
}

// New creates an empty store for the schema with DefaultShards shards.
func New(schema *record.Schema, cost CostModel) *Store {
	return NewWithOptions(schema, cost, Options{})
}

// NewScan creates a single-shard store that never builds indexes and
// answers every search by a full scan. Large simulations with many small
// stores (e.g. SWORD's per-ring-member stores) use it to trade CPU for the
// index memory.
func NewScan(schema *record.Schema, cost CostModel) *Store {
	return NewWithOptions(schema, cost, Options{Shards: 1, NoIndex: true})
}

// NewWithOptions creates an empty store with explicit sharding options.
func NewWithOptions(schema *record.Schema, cost CostModel, opts Options) *Store {
	k := opts.Shards
	if k <= 0 {
		k = DefaultShards
	}
	frac := opts.RemovalRebuildFraction
	if frac <= 0 {
		frac = DefaultRemovalRebuildFraction
	}
	st := &Store{
		schema:  schema,
		cost:    cost,
		noIndex: opts.NoIndex,
		remFrac: frac,
		shards:  make([]*shard, k),
	}
	for i := range st.shards {
		st.shards[i] = newShard(st)
	}
	return st
}

// Schema returns the store's schema.
func (st *Store) Schema() *record.Schema { return st.schema }

// fnv32a is FNV-1a over the record ID; inlined so per-record shard routing
// allocates nothing.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (st *Store) shardIndex(id string) int {
	if len(st.shards) == 1 {
		return 0
	}
	return int(fnv32a(id) % uint32(len(st.shards)))
}

// groupByShard buckets records by owning shard. The single-shard case is
// handled by the callers without allocating.
func (st *Store) groupByShard(recs []*record.Record) [][]*record.Record {
	groups := make([][]*record.Record, len(st.shards))
	for _, r := range recs {
		si := st.shardIndex(r.ID)
		groups[si] = append(groups[si], r)
	}
	return groups
}

// Add appends records. Appends are amortized O(1) per record: each shard
// keeps capacity headroom in its copy-on-write slice, and a write at an
// index beyond any published length is invisible to snapshot holders, so N
// single-record Adds cost O(N) total instead of the O(N²) a
// full-copy-per-Add store pays. Indexes extend in place when already built
// (see shard.extendIndexesLocked).
func (st *Store) Add(recs ...*record.Record) {
	if len(recs) == 0 {
		return
	}
	switch {
	case len(st.shards) == 1:
		st.shards[0].add(recs)
	case len(recs) == 1:
		st.shards[st.shardIndex(recs[0].ID)].add(recs)
	default:
		for si, g := range st.groupByShard(recs) {
			if len(g) > 0 {
				st.shards[si].add(g)
			}
		}
	}
	st.count.Add(int64(len(recs)))
	st.epoch.Add(1)
}

// Replace swaps the full record set (soft-state refresh from an owner).
// Every shard's partial summary and indexes are rebuilt lazily afterwards.
func (st *Store) Replace(recs []*record.Record) {
	if len(st.shards) == 1 {
		st.shards[0].replace(append(recs[:0:0], recs...))
	} else {
		for si, g := range st.groupByShard(recs) {
			st.shards[si].replace(g)
		}
	}
	st.count.Store(int64(len(recs)))
	st.epoch.Add(1)
}

// Remove deletes the records stored under the given IDs and returns how
// many were present. Each touched shard compacts its slice into a fresh
// array (snapshot holders keep the old one), subtracts the removed records
// from its partial summary when the summary kind supports exact
// subtraction, and marks only itself index-dirty. Removing only absent IDs
// mutates nothing and does not advance the epoch.
func (st *Store) Remove(ids ...string) int {
	if len(ids) == 0 {
		return 0
	}
	removed := 0
	if len(st.shards) == 1 {
		removed = st.shards[0].remove(ids)
	} else {
		groups := make([][]string, len(st.shards))
		for _, id := range ids {
			si := st.shardIndex(id)
			groups[si] = append(groups[si], id)
		}
		for si, g := range groups {
			if len(g) > 0 {
				removed += st.shards[si].remove(g)
			}
		}
	}
	if removed > 0 {
		st.count.Add(-int64(removed))
		st.epoch.Add(1)
	}
	return removed
}

// Update upserts records by ID: a record whose ID is present replaces the
// stored one (counted in the return value), an absent ID appends. Touched
// shards install fresh record arrays and apply exact
// subtract-old/add-new maintenance to their partial summaries.
func (st *Store) Update(recs ...*record.Record) int {
	if len(recs) == 0 {
		return 0
	}
	replaced := 0
	switch {
	case len(st.shards) == 1:
		replaced = st.shards[0].update(recs)
	case len(recs) == 1:
		replaced = st.shards[st.shardIndex(recs[0].ID)].update(recs)
	default:
		for si, g := range st.groupByShard(recs) {
			if len(g) > 0 {
				replaced += st.shards[si].update(g)
			}
		}
	}
	st.count.Add(int64(len(recs) - replaced))
	st.epoch.Add(1)
	return replaced
}

// Len returns the number of stored records.
func (st *Store) Len() int { return int(st.count.Load()) }

// Records returns the stored records in shard order. The slice is
// immutable — mutations install fresh per-shard slices rather than
// rewriting published elements — so the returned snapshot is safe to walk
// without a copy while mutations land concurrently. Callers must not
// mutate it. The cross-shard concatenation is cached against the store
// epoch, so repeated calls on an unchanged store return the same slice.
func (st *Store) Records() []*record.Record {
	e := st.epoch.Load()
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	if st.haveSnap && st.snapEpoch == e {
		return st.snap
	}
	if len(st.shards) == 1 {
		st.snap = st.shards[0].snapshot()
	} else {
		parts := make([][]*record.Record, len(st.shards))
		total := 0
		for i, sh := range st.shards {
			parts[i] = sh.snapshot()
			total += len(parts[i])
		}
		out := make([]*record.Record, 0, total)
		for _, p := range parts {
			out = append(out, p...)
		}
		st.snap = out
	}
	st.snapEpoch, st.haveSnap = e, true
	return st.snap
}

// Epoch returns the store's mutation epoch: it advances on every mutation
// that changed anything, so a caller that cached epoch-N derived state (a
// summary, a count) can skip recomputation while Epoch still returns N.
func (st *Store) Epoch() uint64 { return st.epoch.Load() }

// Stats is a snapshot of the store's internal maintenance counters.
type Stats struct {
	// Shards is the configured shard count.
	Shards int
	// ShardRebuilds counts per-shard partial-summary rebuilds — the
	// fallback taken when removals made a shard's partial stale (Bloom
	// mode, or the tracked-deletion threshold) or it was never built.
	ShardRebuilds uint64
	// PartialMerges counts shard partials folded into merged exports.
	PartialMerges uint64
	// ExportsCached counts ExportSummary calls served entirely from the
	// merged cache because the epoch had not moved.
	ExportsCached uint64
	// IndexRebuilds counts full per-shard index rebuilds (appends extend
	// indexes in place and do not rebuild).
	IndexRebuilds uint64
}

// Stats returns the maintenance counters.
func (st *Store) Stats() Stats {
	return Stats{
		Shards:        len(st.shards),
		ShardRebuilds: st.stats.shardRebuilds.Load(),
		PartialMerges: st.stats.partialMerges.Load(),
		ExportsCached: st.stats.exportsCached.Load(),
		IndexRebuilds: st.stats.indexRebuilds.Load(),
	}
}

// Result reports a local search outcome: the matching records and the
// modeled backend cost.
type Result struct {
	Records []*record.Record
	// Cost is the modeled backend time: PerQuery + PerScan*scanned +
	// PerRecord*len(Records).
	Cost time.Duration
	// Scanned is how many candidate records were examined.
	Scanned int
}

// Search returns the records matching q along with the modeled cost. Each
// shard picks its most selective indexed predicate to produce candidates,
// then verifies remaining predicates record by record — the classic
// index-scan plan the DB2 backend would run, run independently per shard.
// The per-query cost is charged once; scan and retrieval costs accumulate
// across shards.
func (st *Store) Search(q *query.Query) (Result, error) {
	if !q.Bound() {
		if err := q.Bind(st.schema); err != nil {
			return Result{}, fmt.Errorf("store: %w", err)
		}
	}
	res := Result{Cost: st.cost.PerQuery}
	for _, sh := range st.shards {
		sh.search(q, &res)
	}
	res.Cost += time.Duration(res.Scanned) * st.cost.PerScan
	res.Cost += time.Duration(len(res.Records)) * st.cost.PerRecord
	return res, nil
}

// Count returns the number of matching records without charging retrieval
// cost (used for selectivity measurement).
func (st *Store) Count(q *query.Query) (int, error) {
	res, err := st.Search(q)
	if err != nil {
		return 0, err
	}
	return len(res.Records), nil
}
