package roads

import (
	"math/rand"
	"time"

	"roads/internal/coords"
	"roads/internal/core"
	"roads/internal/live"
	"roads/internal/netsim"
	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/store"
	"roads/internal/summary"
	"roads/internal/transport"
)

// This file is the public facade: the types and constructors a downstream
// user needs, re-exported from the internal packages so one import serves
// the common cases. The internal packages remain the implementation — the
// facade only names their stable surface.

// --- Records and schema ---

// Schema is the federation-wide attribute schema.
type Schema = record.Schema

// Attribute describes one schema dimension.
type Attribute = record.Attribute

// Record is one resource description.
type Record = record.Record

// Attribute kinds.
const (
	Numeric     = record.Numeric
	Categorical = record.Categorical
)

// NewSchema builds a schema from attributes.
func NewSchema(attrs []Attribute) (*Schema, error) { return record.NewSchema(attrs) }

// NewRecord allocates a record conforming to the schema.
func NewRecord(s *Schema, id, owner string) *Record { return record.New(s, id, owner) }

// --- Queries ---

// Query is a multi-dimensional range query.
type Query = query.Query

// Predicate is one query dimension.
type Predicate = query.Predicate

// NewQuery builds a query from predicates.
func NewQuery(id string, preds ...Predicate) *Query { return query.New(id, preds...) }

// Range builds a numeric range predicate attr in [lo,hi].
func Range(attr string, lo, hi float64) Predicate { return query.NewRange(attr, lo, hi) }

// Above builds attr > lo.
func Above(attr string, lo float64) Predicate { return query.NewAbove(attr, lo) }

// Below builds attr < hi.
func Below(attr string, hi float64) Predicate { return query.NewBelow(attr, hi) }

// Eq builds a categorical equality predicate.
func Eq(attr, v string) Predicate { return query.NewEq(attr, v) }

// ParseQuery parses ";"-separated textual predicates
// ("rate=0.2:0.4; encoding=MPEG2; cpu>0.5").
func ParseQuery(id, s string) (*Query, error) { return query.ParseQuery(id, s) }

// --- Voluntary sharing ---

// Owner is a resource owner: records plus a sharing policy.
type Owner = policy.Owner

// Policy is an owner's sharing policy (export mode + per-requester views).
type Policy = policy.Policy

// View filters what a requester class sees.
type View = policy.View

// Export modes.
const (
	// ExportSummary shares only condensed summaries; detailed records stay
	// with the owner.
	ExportSummary = policy.ExportSummary
	// ExportRecords pushes raw records to a trusted attachment point.
	ExportRecords = policy.ExportRecords
)

// NewOwner creates an owner (nil policy = summary-only export, share-all
// view).
func NewOwner(id string, schema *Schema, pol *Policy) *Owner {
	return policy.NewOwner(id, schema, pol)
}

// NewPolicy creates a policy with the given export mode.
func NewPolicy(mode policy.ExportMode) *Policy { return policy.NewPolicy(mode) }

// --- Summaries ---

// Summary is the condensed representation owners export and servers
// aggregate.
type Summary = summary.Summary

// SummaryConfig controls summary construction.
type SummaryConfig = summary.Config

// DefaultSummaryConfig returns the paper's defaults (1000-bucket
// histograms over [0,1]).
func DefaultSummaryConfig() SummaryConfig { return summary.DefaultConfig() }

// --- Simulated deployments (internal/core) ---

// System is a simulated ROADS deployment with exact byte and latency
// accounting; it regenerates the paper's figures.
type System = core.System

// SystemConfig configures a simulated deployment.
type SystemConfig = core.Config

// SearchResult reports one resolved query.
type SearchResult = core.SearchResult

// DefaultSystemConfig returns the paper's simulation defaults.
func DefaultSystemConfig() SystemConfig { return core.DefaultConfig() }

// NewSimulatedSystem creates a deployment over n simulated wide-area hosts
// (synthesized 5-D delay space seeded from seed). Add servers with
// System.AddServer(id, hostIndex) for hostIndex < n.
func NewSimulatedSystem(schema *Schema, cfg SystemConfig, n int, seed int64) (*System, error) {
	rng := rand.New(rand.NewSource(seed))
	space, err := coords.NewSpace(n, coords.DefaultConfig(), rng)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(schema, cfg, netsim.New(space))
}

// --- Live deployments (internal/live) ---

// Server is one live ROADS server (goroutine loops, wire messages).
type Server = live.Server

// ServerConfig configures a live server.
type ServerConfig = live.Config

// Cluster is a harness that starts and joins n live servers.
type Cluster = live.Cluster

// ClusterConfig configures StartCluster.
type ClusterConfig = live.ClusterConfig

// Client resolves queries against a live deployment, following redirects
// concurrently.
type Client = live.Client

// Transport moves wire messages between live servers.
type Transport = transport.Transport

// NewServer creates a live server (call Start, then Join a seed).
func NewServer(cfg ServerConfig, tr Transport) (*Server, error) { return live.NewServer(cfg, tr) }

// DefaultServerConfig returns test-friendly live-server defaults.
func DefaultServerConfig(id, addr string, schema *Schema) ServerConfig {
	return live.DefaultConfig(id, addr, schema)
}

// StartCluster launches n live servers on the transport and joins them
// into one hierarchy.
func StartCluster(tr Transport, cfg ClusterConfig) (*Cluster, error) {
	return live.StartCluster(tr, cfg)
}

// NewClient creates a query client presenting the given requester identity
// to owners' sharing policies.
func NewClient(tr Transport, requester string) *Client { return live.NewClient(tr, requester) }

// NewTCPTransport returns a pooled, multiplexed TCP transport (binary wire codec)
// for multi-process federations.
func NewTCPTransport() Transport { return transport.NewTCP() }

// NewInProcessTransport returns an in-process transport for tests, demos
// and benchmarks (optionally with injected latency; see transport.Chan).
func NewInProcessTransport() *transport.Chan { return transport.NewChan() }

// TransportStats is a snapshot of a transport's operational counters
// (dials vs pooled reuses, in-flight calls, bytes, latency histogram).
type TransportStats = transport.Stats

// StatsOf returns the transport's counters when it exposes them (both
// built-in transports do).
func StatsOf(tr Transport) (TransportStats, bool) {
	if s, ok := tr.(transport.Statser); ok {
		return s.Stats(), true
	}
	return TransportStats{}, false
}

// --- Stores ---

// Store is an indexed local record store with a backend cost model.
type Store = store.Store

// CostModel charges virtual time for backend work.
type CostModel = store.CostModel

// NewStore creates an indexed store.
func NewStore(schema *Schema, cost CostModel) *Store { return store.New(schema, cost) }

// ScopeAll searches the entire hierarchy in System.ResolveScoped.
const ScopeAll = core.ScopeAll

// DefaultTick is a sensible live maintenance period for demos
// (production deployments would use minutes, per the paper's soft-state
// design).
const DefaultTick = 100 * time.Millisecond
