package live

import (
	"sort"

	"roads/internal/policy"
	"roads/internal/summary"
	"roads/internal/wire"
)

// snapChild is one child branch as the query path sees it: the summary
// queries are matched against, and the fully built redirect (record-count
// estimate plus the child's own children as failover alternates).
type snapChild struct {
	branch *summary.Summary
	ri     wire.RedirectInfo
}

// snapReplica is one overlay replica as the query path sees it. match is
// the replica's one summary — the origin's branch for sibling-class
// replicas, its local data for ancestors (an ancestor redirect covers only
// the ancestor's own data, which nothing replicates, so ancestors also carry
// no alternates).
type snapReplica struct {
	level int
	match *summary.Summary
	ri    wire.RedirectInfo
}

// routingSnapshot is the immutable routing state the hot paths read. Write
// paths (joins, leaves, summary reports and their acks' root-path updates,
// replica pushes, pruning) rebuild it copy-on-write under s.mu and
// publish it through s.snap, so handleQuery and handleStatus evaluate one
// consistent view loaded with a single atomic pointer read and never take
// the server lock. Everything reachable from a published snapshot is
// frozen: summaries are replaced wholesale on refresh (never mutated in
// place), redirect slices are rebuilt here, string slices are copied.
type routingSnapshot struct {
	parentID      string
	parentAddr    string
	rootPath      []string
	rootPathAddrs []string
	owners        []*policy.Owner
	localSummary  *summary.Summary
	branchSummary *summary.Summary

	// children is every current child, sorted by ID (deterministic
	// redirect order). replicas is sorted by origin ID and pre-filtered:
	// entries shadowed by this server itself or by a current child are
	// dropped at build time (the child's own branch summary is always the
	// fresher route). The per-query work is reduced to pure matching.
	children []snapChild
	replicas []snapReplica

	// numReplicas counts every held replica, including ones filtered out
	// of the redirect candidates, so Status/NumReplicas keep reporting the
	// raw overlay size.
	numReplicas int
	// covered is the precomputed CoveredRecords value: own branch plus the
	// summary of each replica in replicas (a sibling-class branch, an
	// ancestor's local data). A held replica the snapshot does not route on
	// is counted nowhere: its records are the own branch's already.
	covered uint64

	// fpBase hashes everything about the children and replicas a query
	// reply can depend on: each one's identity, address, content version and
	// failover alternates, and a replica's level (scope filtering keys on
	// it). queryFingerprint combines it with the live local state to stamp
	// replies. Zero (some child or replica carries no content version)
	// suppresses fingerprints — clients then get no revalidation token and
	// fall back to full resolves.
	fpBase uint64
}

// publishSnapshotLocked rebuilds the routing snapshot from the live maps
// and publishes it. Callers hold s.mu; every write path that changes
// routing-visible state must call this before releasing the lock —
// forgetting to means queries keep routing on the stale view until the
// next summary tick republishes.
func (s *Server) publishSnapshotLocked() {
	snap := &routingSnapshot{
		parentID:      s.parentID,
		parentAddr:    s.parentAddr,
		rootPath:      append([]string(nil), s.rootPath...),
		rootPathAddrs: append([]string(nil), s.rootPathAddrs...),
		owners:        append([]*policy.Owner(nil), s.owners...),
		localSummary:  s.localSummary,
		branchSummary: s.branchSummary,
		numReplicas:   len(s.replicas),
	}
	if s.branchSummary != nil {
		snap.covered = s.branchSummary.Records
	}
	// routes folds one hash per child and replica for fpBase; the fold is a
	// sum, so the map walks below need no order.
	var routes setDigest
	versioned := true
	if n := len(s.children); n > 0 {
		snap.children = make([]snapChild, 0, n)
		for _, c := range s.children {
			sc := snapChild{
				branch: c.branch,
				ri:     wire.RedirectInfo{ID: c.id, Addr: c.addr, Alternates: c.kids},
			}
			if c.branch != nil {
				sc.ri.Records = c.branch.Records
			}
			if c.version == 0 {
				versioned = false
			}
			dh := newDepHasher()
			dh.u64(c.version)
			dh.str(c.addr)
			dh.redirects(c.kids)
			routes.add(c.id, dh.h)
			snap.children = append(snap.children, sc)
		}
		sort.Slice(snap.children, func(i, j int) bool {
			return snap.children[i].ri.ID < snap.children[j].ri.ID
		})
	}
	if n := len(s.replicas); n > 0 {
		snap.replicas = make([]snapReplica, 0, n)
		for id, r := range s.replicas {
			if id == s.cfg.ID {
				continue
			}
			if _, isChild := s.children[id]; isChild {
				continue
			}
			snap.covered += r.sum.Records
			sr := snapReplica{level: r.level, match: r.sum,
				ri: wire.RedirectInfo{ID: r.originID, Addr: r.originAddr, Records: r.sum.Records}}
			if !r.ancestor {
				sr.ri.Alternates = r.fallbacks
			}
			if r.version == 0 {
				versioned = false
			}
			// The tag covers the version, address, level, class and
			// alternates: everything of the replica a reply can show.
			routes.add(r.originID, r.tag())
			snap.replicas = append(snap.replicas, sr)
		}
		sort.Slice(snap.replicas, func(i, j int) bool {
			return snap.replicas[i].ri.ID < snap.replicas[j].ri.ID
		})
	}
	if versioned {
		fb := newDepHasher()
		fb.u64(uint64(len(snap.children)))
		fb.u64(uint64(len(snap.replicas)))
		fb.u64(routes.sum)
		snap.fpBase = nonZero(fb.h)
	}
	s.snap.Store(snap)
}

// queryFingerprint derives the reply fingerprint for the snapshot: its
// routing base folded with this server's incarnation — the store epoch and
// the owner generations are mutation counters, which a restarted server
// repeats over different content — and the live local state: store epoch,
// owner record-set generations and view revisions. A remote owner's view
// revision reaches fpBase through the summary versions it is part of. Zero
// (no fingerprint, "don't cache") when any child or replica is unversioned.
func (s *Server) queryFingerprint(snap *routingSnapshot) uint64 {
	if snap.fpBase == 0 {
		return 0
	}
	h := newDepHasher()
	h.u64(snap.fpBase)
	h.u64(uint64(s.startTime.UnixNano()))
	h.u64(s.store.Epoch())
	h.u64(uint64(len(snap.owners)))
	for _, o := range snap.owners {
		h.u64(o.Generation())
		h.u64(o.Policy.Rev())
	}
	return nonZero(h.h) // zero is reserved for "unavailable"
}
