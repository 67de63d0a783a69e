// Package live is the ROADS protocol: real servers exchanging wire
// messages over a pluggable transport (in-process or TCP), each running one
// maintenance loop beside the transport's query serving. It is the one implementation: roadsd deploys it, and the paper's
// figures (internal/experiment) measure it on the in-process transport.
//
// A Server is one node of the hierarchy. Children report branch summaries
// upward each aggregation tick (loops.go), parents push overlay replicas
// back down, and queries descend client-driven: each contacted server
// answers from local data and names the child branches and overlay
// replicas whose summaries match (handlers.go), which the Client then
// contacts concurrently. Membership is epoch-fenced (membership.go) so
// partition healing cannot resurrect dead relationships. All soft state —
// a silent child and an unrenewed replica, which share one window, the
// split-brain probe cadence — counts the server's own periodic rounds, not
// time, so a stepped cluster detects failures and heals splits exactly as a
// running one does.
//
// Upkeep is priced per change, not per tick. An idle tree edge carries one
// exchange a tick, the child's report, and each side ships content only when
// the peer lacks it: the report goes without its summary and its children
// while the parent holds them, its ack without the root path and siblings
// while the child holds those, and with one digest of the child's replica
// set while nothing in it changed — a replica batch goes only when something
// did (digest.go has the hashes; DESIGN.md §9 the protocol). The report is
// also the liveness signal in both directions.
//
// Two read-path caches keep the hot paths off the server mutex (see
// ARCHITECTURE.md for the full map):
//
//   - the routing snapshot (snapshot.go): an immutable copy-on-write view
//     of owners, children and replicas, republished by every write path and
//     read with one atomic load;
//   - the owner export cache (policy.Owner.ExportSummary): each owner hands
//     back the same summary pointer until its records, views or the
//     requested geometry change, so refresh ticks skip unchanged owners.
//     The server keeps no copy of any owner's records or summary.
//
// A server keeps no query answers: the one cache of them is the client's
// (client.go), revalidated by the fingerprint the entry server computes from
// that snapshot and its live local state (queryFingerprint). A query whose
// deadline budget runs out mid-evaluation is shed to a coarse summary-only
// answer; there is no admission layer in front of the query path.
//
// Cluster (cluster.go) spins up and joins many servers in-process for
// tests, examples, the figures and the canonical benchmark; a stepped one
// (NewCluster) runs no loop and is driven round by round (Cluster.Step).
package live
