package store

import (
	"sort"
	"sync"

	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
)

// shard is one hash slice of the store: its own lock, copy-on-write record
// slice, per-attribute indexes, ID map, mutation epoch and (when summaries
// are enabled) an incrementally maintained partial summary.
//
// The copy-on-write invariant with capacity headroom: a published element
// (index < the length any reader could have observed) is never rewritten in
// place. Appends write beyond every published length, so they may reuse the
// backing array; Remove/Update/Replace install fresh arrays. Readers
// therefore walk their snapshots without locks or copies.
type shard struct {
	st *Store

	mu      sync.RWMutex
	records []*record.Record
	// byID maps record ID -> position; built lazily on the first Remove or
	// Update (append-only workloads never pay for it) and maintained by
	// every mutation afterwards. On duplicate-ID appends the newest
	// position wins.
	byID map[string]int
	// epoch counts this shard's mutations (diagnostics and tests; the
	// store-level epoch is what caches key on).
	epoch uint64

	num map[int]*numericIndex
	cat map[int]map[string][]int
	// built: indexes constructed at least once; dirty: next search must
	// rebuild them. Appends on built, clean indexes extend them in place
	// instead of flipping dirty (see extendIndexesLocked).
	built bool
	dirty bool

	// Partial-summary state (see export.go). partial is nil until the
	// first rebuild; partialStale forces a rebuild at the next export;
	// removals counts records subtracted from partial since its last
	// rebuild (tracked-deletion threshold).
	summarize    bool
	scfg         summary.Config
	partial      *summary.Summary
	partialStale bool
	removals     int
}

func newShard(st *Store) *shard {
	return &shard{
		st:  st,
		num: make(map[int]*numericIndex),
		cat: make(map[int]map[string][]int),
	}
}

// snapshot returns the shard's published records (immutable; see the
// copy-on-write invariant above).
func (sh *shard) snapshot() []*record.Record {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.records
}

// add appends records. The records slice grows with headroom so a run of
// appends reuses one backing array: writes land beyond every published
// length, which no snapshot holder can observe.
func (sh *shard) add(recs []*record.Record) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	base := len(sh.records)
	if cap(sh.records)-base < len(recs) {
		next := make([]*record.Record, base, (base+len(recs))*3/2+8)
		copy(next, sh.records)
		sh.records = next
	}
	sh.records = append(sh.records, recs...)
	if sh.byID != nil {
		for j, r := range recs {
			sh.byID[r.ID] = base + j
		}
	}
	if sh.built && !sh.dirty && !sh.st.noIndex {
		sh.extendIndexesLocked(base, recs)
	} else {
		sh.dirty = true
	}
	if sh.summarize && !sh.partialStale {
		for _, r := range recs {
			sh.partial.AddRecord(r)
		}
	}
	sh.epoch++
}

// replace swaps the shard's record set. The caller passes ownership of
// recs (already a fresh slice).
func (sh *shard) replace(recs []*record.Record) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.records = recs
	sh.byID = nil
	sh.dirty = true
	if sh.summarize {
		sh.partialStale = true
		sh.removals = 0
	}
	sh.epoch++
}

// remove deletes the records stored under ids, compacting into a fresh
// array, and returns how many were present. Removed records are subtracted
// exactly from the partial summary when the summary kind allows it; Bloom
// partials (no subtraction) and threshold-exceeding removal runs mark the
// partial stale instead, falling back to a single-shard rebuild at the
// next export.
func (sh *shard) remove(ids []string) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ensureByIDLocked()
	drop := make(map[int]bool, len(ids))
	for _, id := range ids {
		if p, ok := sh.byID[id]; ok {
			drop[p] = true
		}
	}
	if len(drop) == 0 {
		return 0
	}
	// The batch outcome is already known, so apply the tracked-deletion
	// threshold before subtracting: if this batch pushes the shard past the
	// rebuild fraction anyway, every per-record subtraction below would be
	// wasted work on a partial the next export discards.
	if sh.summarize && !sh.partialStale &&
		float64(sh.removals+len(drop)) > sh.st.remFrac*float64(len(sh.records)-len(drop)) {
		sh.partialStale = true
	}
	next := make([]*record.Record, 0, len(sh.records)-len(drop))
	for j, r := range sh.records {
		if drop[j] {
			sh.subtractLocked(r)
			continue
		}
		next = append(next, r)
	}
	sh.records = next
	sh.rebuildByIDLocked()
	sh.dirty = true
	sh.checkRemovalThresholdLocked()
	sh.epoch++
	return len(drop)
}

// update upserts records into a fresh array: present IDs are replaced in
// place (in the fresh copy), absent IDs append.
func (sh *shard) update(recs []*record.Record) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ensureByIDLocked()
	// Pre-count replacements so the tracked-deletion threshold can trip
	// before any subtraction happens (same rationale as in remove). The
	// count is conservative for batches that insert then re-update the same
	// new ID — the exact end-of-batch check below still catches those.
	if sh.summarize && !sh.partialStale {
		hits := 0
		for _, r := range recs {
			if _, ok := sh.byID[r.ID]; ok {
				hits++
			}
		}
		if hits > 0 &&
			float64(sh.removals+hits) > sh.st.remFrac*float64(len(sh.records)+len(recs)-hits) {
			sh.partialStale = true
		}
	}
	next := make([]*record.Record, len(sh.records), len(sh.records)+len(recs))
	copy(next, sh.records)
	replaced := 0
	for _, r := range recs {
		if p, ok := sh.byID[r.ID]; ok {
			old := next[p]
			next[p] = r
			replaced++
			if sh.summarize && !sh.partialStale {
				sh.subtractLocked(old)
				if !sh.partialStale {
					sh.partial.AddRecord(r)
				}
			}
		} else {
			sh.byID[r.ID] = len(next)
			next = append(next, r)
			if sh.summarize && !sh.partialStale {
				sh.partial.AddRecord(r)
			}
		}
	}
	sh.records = next
	sh.dirty = true
	sh.checkRemovalThresholdLocked()
	sh.epoch++
	return replaced
}

// subtractLocked removes one record's contribution from the partial
// summary, or marks the partial stale when the summary kind cannot
// subtract (Bloom filters).
func (sh *shard) subtractLocked(r *record.Record) {
	if !sh.summarize || sh.partialStale {
		return
	}
	if !sh.partial.Subtractable() {
		sh.partialStale = true
		return
	}
	_ = sh.partial.RemoveRecord(r)
	sh.removals++
}

// checkRemovalThresholdLocked applies the tracked-deletion threshold: once
// the removals subtracted since the last rebuild exceed the configured
// fraction of the shard's live records, the partial is marked stale so the
// next export rebuilds this one shard from scratch.
func (sh *shard) checkRemovalThresholdLocked() {
	if !sh.summarize || sh.partialStale || sh.removals == 0 {
		return
	}
	if float64(sh.removals) > sh.st.remFrac*float64(len(sh.records)) {
		sh.partialStale = true
	}
}

func (sh *shard) ensureByIDLocked() {
	if sh.byID == nil {
		sh.rebuildByIDLocked()
	}
}

func (sh *shard) rebuildByIDLocked() {
	m := make(map[string]int, len(sh.records))
	for j, r := range sh.records {
		m[r.ID] = j
	}
	sh.byID = m
}

// search runs the query against the shard with indexes that describe the
// record slice it walks: the dirty check and the search happen under one
// lock hold. A removal/update/replace dirtied them (appends never do; they
// extend built indexes in place), so the search that finds them dirty
// rebuilds and searches under the write lock; checking under one lock and
// searching under another would let a mutation shrink the slice in between
// and leave the search walking stale positions.
func (sh *shard) search(q *query.Query, res *Result) {
	sh.mu.RLock()
	if !sh.dirty {
		sh.searchLocked(q, res)
		sh.mu.RUnlock()
		return
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.dirty {
		sh.rebuildIndexesLocked()
	}
	sh.searchLocked(q, res)
}

func (sh *shard) rebuildIndexesLocked() {
	sh.num = make(map[int]*numericIndex)
	sh.cat = make(map[int]map[string][]int)
	sh.built = true
	sh.dirty = false
	if sh.st.noIndex {
		return
	}
	schema := sh.st.schema
	for i := 0; i < schema.NumAttrs(); i++ {
		switch schema.Attr(i).Kind {
		case record.Numeric:
			idx := &numericIndex{vals: make([]float64, len(sh.records)), pos: make([]int, len(sh.records))}
			order := make([]int, len(sh.records))
			for j := range order {
				order[j] = j
			}
			attr := i
			sort.Slice(order, func(a, b int) bool {
				return sh.records[order[a]].Num(attr) < sh.records[order[b]].Num(attr)
			})
			for j, p := range order {
				idx.vals[j] = sh.records[p].Num(attr)
				idx.pos[j] = p
			}
			sh.num[i] = idx
		case record.Categorical:
			m := make(map[string][]int)
			for j, r := range sh.records {
				v := r.Str(i)
				m[v] = append(m[v], j)
			}
			sh.cat[i] = m
		}
	}
	sh.st.stats.indexRebuilds.Add(1)
}

// extendIndexesLocked folds freshly appended records (positions base..)
// into the built indexes without a rebuild: categorical postings append to
// their value lists, numeric values go to the index's unsorted pending
// tail, merged into the sorted run once the tail crosses its amortization
// threshold.
func (sh *shard) extendIndexesLocked(base int, recs []*record.Record) {
	schema := sh.st.schema
	for i := 0; i < schema.NumAttrs(); i++ {
		switch schema.Attr(i).Kind {
		case record.Numeric:
			idx := sh.num[i]
			if idx == nil {
				idx = &numericIndex{}
				sh.num[i] = idx
			}
			for j, r := range recs {
				idx.addPending(r.Num(i), base+j)
			}
			if idx.shouldMerge() {
				idx.mergePending()
			}
		case record.Categorical:
			m := sh.cat[i]
			if m == nil {
				m = make(map[string][]int)
				sh.cat[i] = m
			}
			for j, r := range recs {
				v := r.Str(i)
				m[v] = append(m[v], base+j)
			}
		}
	}
}

// searchLocked runs the per-shard index-scan plan and accumulates matches
// and scan counts into res: pick the predicate with the fewest candidates
// in this shard, then verify the remaining predicates record by record.
// Caller holds sh.mu (reading suffices) and has seen the indexes clean.
func (sh *shard) searchLocked(q *query.Query, res *Result) {
	if len(sh.records) == 0 {
		return
	}
	schema := sh.st.schema
	bestCount := len(sh.records) + 1
	bestCands := []int(nil)
	for _, p := range q.Preds {
		attr, ok := schema.Index(p.Attr)
		if !ok {
			continue
		}
		switch p.Op {
		case query.Range:
			if idx := sh.num[attr]; idx != nil {
				if c := idx.candidateCount(p.Lo, p.Hi); c < bestCount {
					bestCount = c
					bestCands = idx.candidates(p.Lo, p.Hi)
				}
			}
		case query.Eq:
			if m := sh.cat[attr]; m != nil {
				cands := m[p.Str]
				if len(cands) < bestCount {
					bestCount = len(cands)
					bestCands = cands
				}
			}
		}
	}
	if bestCands == nil && bestCount > len(sh.records) {
		// No indexed predicate; full scan of this shard.
		for _, r := range sh.records {
			res.Scanned++
			if q.MatchRecord(r) {
				res.Records = append(res.Records, r)
			}
		}
		return
	}
	for _, pos := range bestCands {
		res.Scanned++
		r := sh.records[pos]
		if q.MatchRecord(r) {
			res.Records = append(res.Records, r)
		}
	}
}

// numericIndex is a sorted list of (value, record position) pairs for one
// attribute, supporting range counting and candidate selection, plus an
// unsorted pending tail absorbing appends. The tail is scanned linearly by
// searches and merged into the sorted run once it crosses
// max(pendingMergeMin, len/4) entries (capped at pendingMergeMax so scan
// cost stays bounded) — amortized O(1) per append.
type numericIndex struct {
	vals []float64
	pos  []int
	// pending appends, unsorted.
	pvals []float64
	ppos  []int
}

const (
	pendingMergeMin = 64
	pendingMergeMax = 1024
)

func (idx *numericIndex) addPending(v float64, p int) {
	idx.pvals = append(idx.pvals, v)
	idx.ppos = append(idx.ppos, p)
}

func (idx *numericIndex) shouldMerge() bool {
	n := len(idx.pvals)
	if n < pendingMergeMin {
		return false
	}
	return n >= pendingMergeMax || 4*n >= len(idx.vals)
}

// mergePending sorts the pending tail and merges it with the sorted run
// into fresh arrays.
func (idx *numericIndex) mergePending() {
	np := len(idx.pvals)
	if np == 0 {
		return
	}
	order := make([]int, np)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return idx.pvals[order[a]] < idx.pvals[order[b]] })
	nv := len(idx.vals)
	vals := make([]float64, 0, nv+np)
	pos := make([]int, 0, nv+np)
	i, j := 0, 0
	for i < nv && j < np {
		pv := idx.pvals[order[j]]
		if idx.vals[i] <= pv {
			vals = append(vals, idx.vals[i])
			pos = append(pos, idx.pos[i])
			i++
		} else {
			vals = append(vals, pv)
			pos = append(pos, idx.ppos[order[j]])
			j++
		}
	}
	for ; i < nv; i++ {
		vals = append(vals, idx.vals[i])
		pos = append(pos, idx.pos[i])
	}
	for ; j < np; j++ {
		vals = append(vals, idx.pvals[order[j]])
		pos = append(pos, idx.ppos[order[j]])
	}
	idx.vals, idx.pos = vals, pos
	idx.pvals, idx.ppos = nil, nil
}

// candidateCount returns how many records fall in [lo,hi] on the numeric
// attribute: binary search on the sorted run plus a linear pass over the
// bounded pending tail.
func (idx *numericIndex) candidateCount(lo, hi float64) int {
	a := sort.SearchFloat64s(idx.vals, lo)
	b := sort.Search(len(idx.vals), func(i int) bool { return idx.vals[i] > hi })
	c := 0
	if b > a {
		c = b - a
	}
	for _, v := range idx.pvals {
		if v >= lo && v <= hi {
			c++
		}
	}
	return c
}

func (idx *numericIndex) candidates(lo, hi float64) []int {
	a := sort.SearchFloat64s(idx.vals, lo)
	b := sort.Search(len(idx.vals), func(i int) bool { return idx.vals[i] > hi })
	var main []int
	if b > a {
		main = idx.pos[a:b]
	}
	if len(idx.pvals) == 0 {
		return main
	}
	out := append(make([]int, 0, len(main)+len(idx.pvals)), main...)
	for j, v := range idx.pvals {
		if v >= lo && v <= hi {
			out = append(out, idx.ppos[j])
		}
	}
	return out
}
