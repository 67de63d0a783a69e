// Package policy implements voluntary sharing: the mechanisms by which a
// resource owner retains final control over its records. An owner chooses
// an export mode (raw records to a trusted attachment point vs.
// summary-only to a third-party server) and defines per-requester views
// that filter which records a given query sees (paper §II: "a company may
// provide more resources to a business partner than arbitrary third
// parties").
package policy

import (
	"fmt"
	"sync"

	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
)

// ExportMode says what an owner exports to its attachment-point server.
type ExportMode uint8

const (
	// ExportSummary exports only a condensed summary; the detailed records
	// stay with the owner, which answers matching queries itself (owner D
	// in the paper's Fig. 1).
	ExportSummary ExportMode = iota
	// ExportRecords exports the detailed records to the attachment point —
	// appropriate only when the owner controls that server (owner C). The
	// server answers for it with every matching record; views do not apply.
	ExportRecords
)

func (m ExportMode) String() string {
	switch m {
	case ExportSummary:
		return "summary"
	case ExportRecords:
		return "records"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// View filters the records returned to a class of requesters. Filter may be
// nil, meaning the view exposes everything.
type View struct {
	Name   string
	Filter func(*record.Record) bool
}

// Policy is an owner's sharing policy: its export mode plus named views.
// The zero policy exports summaries and serves every record to everyone.
type Policy struct {
	mu sync.RWMutex

	Mode ExportMode
	// views maps requester identities (or classes) to their view; the
	// DefaultView applies to unknown requesters.
	views       map[string]View
	DefaultView View
	// rev counts view mutations; see Rev.
	rev uint64
}

// NewPolicy creates a policy with the given export mode and an
// allow-everything default view.
func NewPolicy(mode ExportMode) *Policy {
	return &Policy{
		Mode:        mode,
		views:       make(map[string]View),
		DefaultView: View{Name: "default"},
	}
}

// SetView installs a view for a requester identity.
func (p *Policy) SetView(requester string, v View) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.views == nil {
		p.views = make(map[string]View)
	}
	p.views[requester] = v
	p.rev++
}

// Rev returns the policy's view-revision counter, bumped on every SetView.
// Together with Owner.Generation it versions an owner's answers: a cached
// answer computed at (generation G, revision R) is current while both still
// match. Direct writes to the exported Mode and DefaultView fields are not
// tracked — set them before serving queries.
func (p *Policy) Rev() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.rev
}

// ViewFor returns the view applying to the requester.
func (p *Policy) ViewFor(requester string) View {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if v, ok := p.views[requester]; ok {
		return v
	}
	return p.DefaultView
}

// Apply filters recs through the requester's view.
func (p *Policy) Apply(requester string, recs []*record.Record) []*record.Record {
	v := p.ViewFor(requester)
	if v.Filter == nil {
		return recs
	}
	var out []*record.Record
	for _, r := range recs {
		if v.Filter(r) {
			out = append(out, r)
		}
	}
	return out
}

// Owner is a resource owner: identity, records, and sharing policy. It is
// the unit of autonomy in the federation — the entity that exports data and
// makes the final call on query answers.
//
// The owner keeps its records itself, in one copy-on-write slice: a
// published element is never rewritten, appends land in capacity headroom
// past every published length, and removals and updates install a fresh
// array, so a Records snapshot never changes under its holder. Beside the
// records it keeps one exact summary of them, which every write updates in
// place — AddRecord for an added record, an exact RemoveRecord for a
// removed or replaced one. SetRecords, a different export config, or a
// removal from a Bloom-mode summary (Bloom filters cannot subtract) marks
// it stale instead, and the next export rebuilds it from the records.
type Owner struct {
	ID     string
	Schema *record.Schema
	Policy *Policy

	// mu guards the record set and its summary.
	mu      sync.RWMutex
	records []*record.Record
	// byID maps record ID -> position; built by the first removal or
	// update (append-only owners never pay for it) and kept by every write
	// after it. On duplicate IDs the newest position wins.
	byID map[string]int
	// gen counts the writes that changed the record set; see Generation.
	gen uint64
	// sum is the exact summary of records under sumCfg: never condensed,
	// never stamped. Nil means stale.
	sum      *summary.Summary
	sumCfg   summary.Config
	rebuilds uint64

	// expMu guards the stamped export: expOut was built at generation
	// expGen, view revision expRev and config expCfg.
	expMu          sync.Mutex
	expOut         *summary.Summary
	expGen, expRev uint64
	expCfg         summary.Config

	// hookMu guards hooks, the change hooks OnChange registered. A slice
	// once installed is never written, so changed reads it after unlocking.
	hookMu sync.Mutex
	hooks  []func()
}

// NewOwner creates an owner with the given policy (nil means a default
// summary-export policy).
func NewOwner(id string, schema *record.Schema, pol *Policy) *Owner {
	if pol == nil {
		pol = NewPolicy(ExportSummary)
	}
	return &Owner{ID: id, Schema: schema, Policy: pol}
}

// OnChange registers fn as a change hook: it runs after every write to the
// owner's record set — SetRecords, AddRecords, RemoveRecords that removed
// something, UpdateRecords — on the writing goroutine, once Records and
// Generation show the write. The server the owner attaches to registers one,
// so a write travels the federation at once instead of at the next
// aggregation period. fn must not block.
func (o *Owner) OnChange(fn func()) {
	o.hookMu.Lock()
	defer o.hookMu.Unlock()
	o.hooks = append(o.hooks[:len(o.hooks):len(o.hooks)], fn)
}

// changed runs the change hooks.
func (o *Owner) changed() {
	o.hookMu.Lock()
	hooks := o.hooks
	o.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// SetRecords replaces the owner's record set.
func (o *Owner) SetRecords(recs []*record.Record) {
	o.mu.Lock()
	o.records = append(recs[:0:0], recs...)
	o.byID = nil
	o.sum = nil
	o.gen++
	o.mu.Unlock()
	o.changed()
}

// AddRecords appends records. N one-record calls cost O(N) in total:
// append grows the slice with headroom and writes only past every
// published length.
func (o *Owner) AddRecords(recs ...*record.Record) {
	if len(recs) > 0 {
		o.mu.Lock()
		base := len(o.records)
		o.records = append(o.records, recs...)
		for j, r := range recs {
			if o.byID != nil {
				o.byID[r.ID] = base + j
			}
			if o.sum != nil {
				o.sum.AddRecord(r)
			}
		}
		o.gen++
		o.mu.Unlock()
	}
	o.changed()
}

// RemoveRecords deletes the records stored under the given IDs, returning
// how many were present. Removing only absent IDs is no write.
func (o *Owner) RemoveRecords(ids ...string) int {
	o.mu.Lock()
	o.ensureByIDLocked()
	drop := make(map[int]bool, len(ids))
	for _, id := range ids {
		if p, ok := o.byID[id]; ok {
			drop[p] = true
		}
	}
	if len(drop) == 0 {
		o.mu.Unlock()
		return 0
	}
	next := make([]*record.Record, 0, len(o.records)-len(drop))
	for j, r := range o.records {
		if drop[j] {
			o.subtractLocked(r)
			continue
		}
		next = append(next, r)
	}
	o.records = next
	o.byID = nil
	o.ensureByIDLocked()
	o.gen++
	o.mu.Unlock()
	o.changed()
	return len(drop)
}

// UpdateRecords upserts records by ID (present IDs replace, absent IDs
// append), returning how many replaced an existing record.
func (o *Owner) UpdateRecords(recs ...*record.Record) int {
	replaced := 0
	if len(recs) > 0 {
		o.mu.Lock()
		o.ensureByIDLocked()
		next := make([]*record.Record, len(o.records), len(o.records)+len(recs))
		copy(next, o.records)
		for _, r := range recs {
			if p, ok := o.byID[r.ID]; ok {
				o.subtractLocked(next[p])
				next[p] = r
				replaced++
			} else {
				o.byID[r.ID] = len(next)
				next = append(next, r)
			}
			if o.sum != nil {
				o.sum.AddRecord(r)
			}
		}
		o.records = next
		o.gen++
		o.mu.Unlock()
	}
	o.changed()
	return replaced
}

func (o *Owner) ensureByIDLocked() {
	if o.byID != nil {
		return
	}
	o.byID = make(map[string]int, len(o.records))
	for j, r := range o.records {
		o.byID[r.ID] = j
	}
}

// subtractLocked takes one record out of the summary, or marks the summary
// stale when it holds a Bloom filter, which cannot subtract.
func (o *Owner) subtractLocked(r *record.Record) {
	if o.sum == nil {
		return
	}
	if !o.sum.Subtractable() {
		o.sum = nil
		return
	}
	_ = o.sum.RemoveRecord(r)
}

// Generation returns the owner's record-set write counter. A caller
// holding a summary exported at generation N may keep serving it while
// Generation still returns N.
func (o *Owner) Generation() uint64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.gen
}

// Records returns the owner's records: a snapshot no later write changes,
// capped at its length. Callers must not mutate it.
func (o *Owner) Records() []*record.Record {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.records[:len(o.records):len(o.records)]
}

// StoreStats is the owner's summary maintenance counters under the names
// the canonical benchmark (bench/) reads. It exists only for that frozen
// benchmark and goes with ROADMAP item 1.
type StoreStats struct {
	// ShardRebuilds counts full rebuilds of the owner's summary from its
	// records.
	ShardRebuilds uint64
	// PartialMerges is always zero: there are no partial summaries.
	PartialMerges uint64
}

// StoreStats returns the owner's summary maintenance counters.
func (o *Owner) StoreStats() StoreStats {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return StoreStats{ShardRebuilds: o.rebuilds}
}

// ExportSummary builds the summary the owner publishes to its attachment
// point. Regardless of views, the summary covers all records — summaries
// are coarse enough that exposure is acceptable, which is the premise of
// the design; fine-grained control happens at answer time. What the summary
// does carry of the views is their revision (Summary.PolicyRev), so that a
// view change travels as far as a record write does and a requester holding
// a cached answer finds out.
//
// The export is a clone of the owner's exact summary, condensed, stamped
// with the owner's ID and view revision, and versioned: content- and
// version-identical to summary.FromRecords over Records() stamped the same
// way. It is cached: while the generation, the view revision and cfg all
// stay put, every call returns the same pointer, for the cost of two
// mutexes and a config compare. A new pointer therefore means the export
// changed. The returned summary is shared — callers must Clone it before
// they mutate it.
func (o *Owner) ExportSummary(cfg summary.Config) (*summary.Summary, error) {
	o.expMu.Lock()
	defer o.expMu.Unlock()
	rev := o.Policy.Rev()
	if o.expOut != nil && o.expGen == o.Generation() && o.expRev == rev && cfg == o.expCfg {
		return o.expOut, nil
	}
	out, gen, err := o.summaryClone(cfg)
	if err != nil {
		return nil, err
	}
	out.Condense()
	out.Origin = o.ID
	out.PolicyRev = rev
	out.ComputeVersion()
	o.expOut, o.expGen, o.expRev, o.expCfg = out, gen, rev, cfg
	return out, nil
}

// summaryClone returns a copy of the exact summary under cfg and the
// generation it covers, first rebuilding the summary from the records when
// it is stale or was kept under another config.
func (o *Owner) summaryClone(cfg summary.Config) (*summary.Summary, uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sum == nil || cfg != o.sumCfg {
		sum, err := summary.New(o.Schema, cfg)
		if err != nil {
			return nil, 0, err
		}
		for _, r := range o.records {
			sum.AddRecord(r)
		}
		o.sum, o.sumCfg = sum, cfg
		o.rebuilds++
	}
	return o.sum.Clone(), o.gen, nil
}

// Answer resolves a query at the owner: it matches the query against the
// owner's records and then applies the requester's view. This is the "final
// control" step — the owner decides which resource records are returned
// and in what form (paper §III-A).
func (o *Owner) Answer(q *query.Query) ([]*record.Record, error) {
	if !q.Bound() {
		if err := q.Bind(o.Schema); err != nil {
			return nil, err
		}
	}
	matched := q.Filter(o.Records())
	return o.Policy.Apply(q.Requester, matched), nil
}
