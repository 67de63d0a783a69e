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
	"roads/internal/store"
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
// The records live in a sharded no-index store (internal/store), so owner
// mutations are first-class — SetRecords, AddRecords, RemoveRecords,
// UpdateRecords — and summary export rides the store's incrementally
// maintained per-shard partials: a churn of k records re-summarizes the
// touched shards' deltas, not the whole owner.
type Owner struct {
	ID     string
	Schema *record.Schema
	Policy *Policy

	st *store.Store

	// expMu guards the lazily enabled export configuration — the store's
	// partial summaries encode bucket/filter geometry, so they follow the
	// config the attachment point asks for — and the stamped export: expOut
	// was stamped from the store export expFrom at view revision expRev.
	expMu           sync.Mutex
	expEnabled      bool
	expCfg          summary.Config
	expFrom, expOut *summary.Summary
	expRev          uint64

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
	// Owners answer queries by full filter passes (final control applies
	// per-requester views anyway), so the store skips index maintenance.
	st := store.NewWithOptions(schema, store.CostModel{}, store.Options{NoIndex: true})
	return &Owner{ID: id, Schema: schema, Policy: pol, st: st}
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
	o.st.Replace(recs)
	o.changed()
}

// AddRecords appends records.
func (o *Owner) AddRecords(recs ...*record.Record) {
	o.st.Add(recs...)
	o.changed()
}

// RemoveRecords deletes the records stored under the given IDs, returning
// how many were present.
func (o *Owner) RemoveRecords(ids ...string) int {
	n := o.st.Remove(ids...)
	if n > 0 {
		o.changed()
	}
	return n
}

// UpdateRecords upserts records by ID (present IDs replace, absent IDs
// append), returning how many replaced an existing record.
func (o *Owner) UpdateRecords(recs ...*record.Record) int {
	n := o.st.Update(recs...)
	o.changed()
	return n
}

// Generation returns the owner's record-set mutation counter. A caller
// holding a summary exported at generation N may keep serving it while
// Generation still returns N.
func (o *Owner) Generation() uint64 {
	return o.st.Epoch()
}

// Records returns the owner's records in store-shard order (shared
// immutable slice; do not mutate).
func (o *Owner) Records() []*record.Record {
	return o.st.Records()
}

// StoreStats returns the owner store's maintenance counters (shard partial
// rebuilds, partial merges, cached exports) for harness reporting.
func (o *Owner) StoreStats() store.Stats {
	return o.st.Stats()
}

// ExportSummary builds the summary the owner publishes to its attachment
// point. Regardless of views, the summary covers all records — summaries
// are coarse enough that exposure is acceptable, which is the premise of
// the design; fine-grained control happens at answer time. What the summary
// does carry of the views is their revision (Summary.PolicyRev), so that a
// view change travels as far as a record write does and a requester holding
// a cached answer finds out.
//
// The export is a merge of the store's per-shard partial summaries
// (content- and version-identical to a monolithic FromRecords build), so
// its cost scales with the shards touched since the last export, not with
// the owner's record count.
//
// The export is cached: while the record set, the view revision and cfg all
// stay put, every call returns the same pointer, for the cost of a mutex, a
// config compare and an atomic load. A new pointer therefore means the
// export changed. The returned summary is shared — callers must Clone it
// before they mutate it.
func (o *Owner) ExportSummary(cfg summary.Config) (*summary.Summary, error) {
	o.expMu.Lock()
	defer o.expMu.Unlock()
	if !o.expEnabled || !cfg.Equal(o.expCfg) {
		if err := o.st.EnableSummaries(cfg); err != nil {
			return nil, err
		}
		o.expEnabled, o.expCfg = true, cfg
	}
	// The store hands back the summary it last merged until its epoch or its
	// geometry moves, so its pointer keys the record set and cfg at once.
	sum, err := o.st.ExportSummary()
	if err != nil {
		return nil, err
	}
	rev := o.Policy.Rev()
	if sum == o.expFrom && rev == o.expRev {
		return o.expOut, nil
	}
	out := sum.Clone()
	out.Origin = o.ID
	if rev != 0 {
		out.PolicyRev = rev
		out.ComputeVersion()
	}
	o.expFrom, o.expOut, o.expRev = sum, out, rev
	return out, nil
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
	matched := q.Filter(o.st.Records())
	return o.Policy.Apply(q.Requester, matched), nil
}
