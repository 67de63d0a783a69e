// Package live is the ROADS protocol: real servers exchanging wire
// messages over a pluggable transport (in-process or TCP), each running its
// own goroutines for maintenance ticks, split-brain probing and query
// serving. It is the one implementation: roadsd deploys it, and the paper's
// figures (internal/experiment) measure it on the in-process transport.
//
// A Server is one node of the hierarchy. Children report branch summaries
// upward each aggregation tick (loops.go), parents push overlay replicas
// back down, and queries descend client-driven: each contacted server
// answers from local data and names the child branches and overlay
// replicas whose summaries match (handlers.go), which the Client then
// contacts concurrently. Membership is epoch-fenced (membership.go) so
// partition healing cannot resurrect dead relationships.
//
// Upkeep is priced per change, not per tick. A tree edge carries two
// exchanges a tick, the child's report and the parent's replica batch, and
// each names what the peer should already hold and ships content only on a
// mismatch: a report goes without its summary while the parent holds the
// version, its ack without the root path and the siblings while the child
// holds those, and a replica batch is one digest of the child's whole replica
// set while nothing in it changed (digest.go has the three hashes; DESIGN.md
// §9 the protocol). The report is also the liveness signal in both directions.
//
// Two read-path caches keep the hot paths off the server mutex (see
// ARCHITECTURE.md for the full map):
//
//   - the routing snapshot (snapshot.go): an immutable copy-on-write view
//     of owners, children and replicas, republished by every write path and
//     read with one atomic load;
//   - the owner export cache (loops.go): per-owner summaries keyed by
//     record-set generation and view revision, so refresh ticks skip
//     unchanged owners.
//
// A server keeps no query answers: the one cache of them is the client's
// (client.go), revalidated by the fingerprint the entry server computes from
// that snapshot and its live local state (queryFingerprint). A query whose
// deadline budget runs out mid-evaluation is shed to a coarse summary-only
// answer; there is no admission layer in front of the query path.
//
// Cluster (cluster.go) spins up and joins many servers in-process for
// tests, examples, the figures and the canonical benchmark.
package live
