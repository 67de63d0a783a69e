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
	// dep hashes everything about this child a query reply can depend on:
	// its branch content version, address and failover alternates. The
	// result cache stores the dep hashes an entry was computed from and
	// revalidates them in lockstep on lookup, so a changed branch kills
	// exactly the entries it could have influenced. Zero (a child
	// with no content version) marks the child uncacheable.
	dep uint64
}

// snapReplica is one overlay replica as the query path sees it. match is
// the summary queries are tested against — the origin's branch for
// sibling-class replicas, its local data for ancestors (an ancestor
// redirect covers only the ancestor's own data, which nothing replicates,
// so ancestors also carry no alternates).
type snapReplica struct {
	level int
	match *summary.Summary
	ri    wire.RedirectInfo
	// dep mirrors snapChild.dep for the replica: origin identity, level
	// (scope filtering keys on it) and content version. Zero marks it
	// uncacheable (unversioned push).
	dep uint64
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
	// fresher route), as are ancestor entries that pushed no local
	// summary. The per-query work is reduced to pure matching.
	children []snapChild
	replicas []snapReplica

	// numReplicas counts every held replica, including ones filtered out
	// of the redirect candidates, so Status/NumReplicas keep reporting the
	// raw overlay size.
	numReplicas int
	// covered is the precomputed CoveredRecords value: own branch plus
	// each non-ancestor replica's branch plus each ancestor's local data.
	covered uint64

	// fpBase folds every child and replica dep hash into the snapshot's
	// routing fingerprint base; queryFingerprint combines it with the live
	// store epoch and owner generations to stamp replies. Zero
	// (some dependency is unversioned) suppresses fingerprints — clients
	// then get no revalidation token and fall back to full resolves.
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
			if c.version != 0 {
				dh := newDepHasher()
				dh.u64(c.version)
				dh.str(c.id)
				dh.str(c.addr)
				dh.redirects(c.kids)
				sc.dep = dh.h
			}
			snap.children = append(snap.children, sc)
		}
		sort.Slice(snap.children, func(i, j int) bool {
			return snap.children[i].ri.ID < snap.children[j].ri.ID
		})
	}
	if n := len(s.replicas); n > 0 {
		snap.replicas = make([]snapReplica, 0, n)
		for id, r := range s.replicas {
			if r.ancestor {
				if r.local != nil {
					snap.covered += r.local.Records
				}
			} else if r.branch != nil {
				snap.covered += r.branch.Records
			}
			if id == s.cfg.ID {
				continue
			}
			if _, isChild := s.children[id]; isChild {
				continue
			}
			sr := snapReplica{level: r.level}
			version := r.version
			if r.ancestor {
				if r.local == nil {
					continue
				}
				sr.match = r.local
				sr.ri = wire.RedirectInfo{ID: r.originID, Addr: r.originAddr, Records: r.local.Records}
				// The ancestor route matches on its local data, which the
				// push versions independently of the branch.
				version = r.local.Version
			} else {
				sr.match = r.branch
				sr.ri = wire.RedirectInfo{
					ID:         r.originID,
					Addr:       r.originAddr,
					Records:    r.branch.Records,
					Alternates: r.fallbacks,
				}
			}
			if version != 0 {
				dh := newDepHasher()
				dh.u64(version)
				dh.str(r.originID)
				dh.str(r.originAddr)
				dh.u64(uint64(r.level))
				if r.ancestor {
					dh.u64(1)
				} else {
					dh.u64(0)
					dh.redirects(r.fallbacks)
				}
				sr.dep = dh.h
			}
			snap.replicas = append(snap.replicas, sr)
		}
		sort.Slice(snap.replicas, func(i, j int) bool {
			return snap.replicas[i].ri.ID < snap.replicas[j].ri.ID
		})
	}
	fb := newDepHasher()
	fb.u64(uint64(len(snap.children)))
	for i := range snap.children {
		if snap.children[i].dep == 0 {
			fb.h = 0
			break
		}
		fb.u64(snap.children[i].dep)
	}
	if fb.h != 0 {
		fb.u64(uint64(len(snap.replicas)))
		for i := range snap.replicas {
			if snap.replicas[i].dep == 0 {
				fb.h = 0
				break
			}
			fb.u64(snap.replicas[i].dep)
		}
	}
	snap.fpBase = fb.h
	s.snap.Store(snap)
}
