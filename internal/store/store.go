package store

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"roads/internal/query"
	"roads/internal/record"
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

// Store holds records appended to it and answers searches over them. It is
// safe for concurrent use.
//
// The copy-on-write invariant with capacity headroom: a published element
// (index < the length any reader could have observed) is never rewritten.
// Appends write beyond every published length, so they may reuse the
// backing array, and readers walk their snapshots without locks or copies.
type Store struct {
	schema  *record.Schema
	cost    CostModel
	noIndex bool

	mu      sync.RWMutex
	records []*record.Record
	num     map[int]*numericIndex
	cat     map[int]map[string][]int
	// built: the indexes describe every record. Appends to built indexes
	// extend them in place; before the first search nothing is built and
	// appends only grow the slice.
	built bool
}

// New creates an empty indexed store for the schema.
func New(schema *record.Schema, cost CostModel) *Store {
	return &Store{schema: schema, cost: cost}
}

// NewScan creates a store that never builds indexes and answers every
// search by a full scan. Large simulations with many small stores (e.g.
// SWORD's per-ring-member stores) use it to trade CPU for the index memory.
func NewScan(schema *record.Schema, cost CostModel) *Store {
	return &Store{schema: schema, cost: cost, noIndex: true}
}

// Schema returns the store's schema.
func (st *Store) Schema() *record.Schema { return st.schema }

// Add appends records. Appends are amortized O(1) per record: append keeps
// capacity headroom, and a write at an index beyond any published length is
// invisible to snapshot holders, so N single-record Adds cost O(N) total.
// Built indexes extend in place (see extendIndexesLocked).
func (st *Store) Add(recs ...*record.Record) {
	if len(recs) == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	base := len(st.records)
	st.records = append(st.records, recs...)
	if st.built && !st.noIndex {
		st.extendIndexesLocked(base, recs)
	}
}

// Len returns the number of stored records.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.records)
}

// Records returns the stored records in insertion order. The slice is
// immutable (see the copy-on-write invariant on Store) and capped at its
// length, so it is safe to walk while appends land concurrently. Callers
// must not mutate it.
func (st *Store) Records() []*record.Record {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.records[:len(st.records):len(st.records)]
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

// Search returns the records matching q along with the modeled cost. It
// picks the most selective indexed predicate to produce candidates, then
// verifies the remaining predicates record by record — the classic
// index-scan plan the DB2 backend would run.
//
// The first search builds the indexes under the write lock and searches
// under the same hold; later searches share the read lock, because appends
// keep built indexes current.
func (st *Store) Search(q *query.Query) (Result, error) {
	if !q.Bound() {
		if err := q.Bind(st.schema); err != nil {
			return Result{}, fmt.Errorf("store: %w", err)
		}
	}
	res := Result{Cost: st.cost.PerQuery}
	st.mu.RLock()
	if st.built {
		st.searchLocked(q, &res)
		st.mu.RUnlock()
	} else {
		st.mu.RUnlock()
		st.mu.Lock()
		if !st.built {
			st.buildIndexesLocked()
		}
		st.searchLocked(q, &res)
		st.mu.Unlock()
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

func (st *Store) buildIndexesLocked() {
	st.num = make(map[int]*numericIndex)
	st.cat = make(map[int]map[string][]int)
	st.built = true
	if st.noIndex {
		return
	}
	for i := 0; i < st.schema.NumAttrs(); i++ {
		switch st.schema.Attr(i).Kind {
		case record.Numeric:
			idx := &numericIndex{vals: make([]float64, len(st.records)), pos: make([]int, len(st.records))}
			order := make([]int, len(st.records))
			for j := range order {
				order[j] = j
			}
			attr := i
			sort.Slice(order, func(a, b int) bool {
				return st.records[order[a]].Num(attr) < st.records[order[b]].Num(attr)
			})
			for j, p := range order {
				idx.vals[j] = st.records[p].Num(attr)
				idx.pos[j] = p
			}
			st.num[i] = idx
		case record.Categorical:
			m := make(map[string][]int)
			for j, r := range st.records {
				v := r.Str(i)
				m[v] = append(m[v], j)
			}
			st.cat[i] = m
		}
	}
}

// extendIndexesLocked folds freshly appended records (positions base..)
// into the built indexes without a rebuild: categorical postings append to
// their value lists, numeric values go to the index's unsorted pending
// tail, merged into the sorted run once the tail crosses its amortization
// threshold.
func (st *Store) extendIndexesLocked(base int, recs []*record.Record) {
	for i := 0; i < st.schema.NumAttrs(); i++ {
		switch st.schema.Attr(i).Kind {
		case record.Numeric:
			idx := st.num[i]
			for j, r := range recs {
				idx.addPending(r.Num(i), base+j)
			}
			if idx.shouldMerge() {
				idx.mergePending()
			}
		case record.Categorical:
			m := st.cat[i]
			for j, r := range recs {
				v := r.Str(i)
				m[v] = append(m[v], base+j)
			}
		}
	}
}

// searchLocked runs the index-scan plan and accumulates matches and scan
// counts into res: pick the predicate with the fewest candidates, then
// verify the remaining predicates record by record. Caller holds st.mu
// (reading suffices) and has seen the indexes built.
func (st *Store) searchLocked(q *query.Query, res *Result) {
	if len(st.records) == 0 {
		return
	}
	bestCount := len(st.records) + 1
	bestCands := []int(nil)
	for _, p := range q.Preds {
		attr, ok := st.schema.Index(p.Attr)
		if !ok {
			continue
		}
		switch p.Op {
		case query.Range:
			if idx := st.num[attr]; idx != nil {
				if c := idx.candidateCount(p.Lo, p.Hi); c < bestCount {
					bestCount = c
					bestCands = idx.candidates(p.Lo, p.Hi)
				}
			}
		case query.Eq:
			if m := st.cat[attr]; m != nil {
				cands := m[p.Str]
				if len(cands) < bestCount {
					bestCount = len(cands)
					bestCands = cands
				}
			}
		}
	}
	if bestCands == nil && bestCount > len(st.records) {
		// No indexed predicate; full scan.
		for _, r := range st.records {
			res.Scanned++
			if q.MatchRecord(r) {
				res.Records = append(res.Records, r)
			}
		}
		return
	}
	for _, pos := range bestCands {
		res.Scanned++
		r := st.records[pos]
		if q.MatchRecord(r) {
			res.Records = append(res.Records, r)
		}
	}
}
