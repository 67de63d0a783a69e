// Scoped: the paper's §III-C search-scope control through the public
// facade. A client at a leaf widens its search level by level — own
// organization first, then the regional branch, then the whole federation
// — trading coverage against the servers it contacts, and a new owner picks
// its attachment point the way a joining server picks its parent.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"time"

	"roads"
)

func main() {
	schema, err := roads.NewSchema([]roads.Attribute{
		{Name: "cores", Kind: roads.Numeric},
		{Name: "region", Kind: roads.Categorical},
	})
	if err != nil {
		log.Fatal(err)
	}

	const n = 21 // degree 4: root + 4 regions + 16 sites -> 3 levels
	scfg := roads.DefaultSummaryConfig()
	scfg.Buckets = 64
	tr := roads.NewInProcessTransport()
	cl, err := roads.StartCluster(tr, roads.ClusterConfig{
		N: n, Schema: schema, Summary: scfg, MaxChildren: 4,
		JoinVia: func(i int) int { return (i - 1) / 4 },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()
	rng := rand.New(rand.NewSource(5))
	regions := []string{"eu", "us", "apac", "latam"}
	owners := make([]*roads.Owner, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("site%02d", i)
		owner := roads.NewOwner(id+"-owner", schema, nil)
		var recs []*roads.Record
		for m := 0; m < 15; m++ {
			r := roads.NewRecord(schema, fmt.Sprintf("%s-m%02d", id, m), id)
			r.SetNum(0, rng.Float64())
			r.SetStr(1, regions[i%len(regions)])
			recs = append(recs, r)
		}
		owner.SetRecords(recs)
		if err := cl.AttachOwner(i, owner); err != nil {
			log.Fatal(err)
		}
		owners[i] = owner
	}
	total := uint64(n * 15)
	if err := cl.WaitConverged(total, time.Minute); err != nil {
		log.Fatal(err)
	}

	// A leaf deep in the hierarchy widens its search scope step by step.
	var leaf *roads.Server
	for _, srv := range cl.Servers {
		if len(srv.RootPath()) >= 3 {
			leaf = srv
			break
		}
	}
	q := roads.NewQuery("find-cores", roads.Above("cores", 0.5))
	want := 0
	for _, o := range owners {
		recs, err := o.Answer(q)
		if err != nil {
			log.Fatal(err)
		}
		want += len(recs)
	}
	client := roads.NewClient(tr, "scoped")
	fmt.Printf("widening search from %s (deeper scope = wider coverage):\n", leaf.ID())
	path := leaf.RootPath()
	prev := 0
	for scope := 0; scope < len(path); scope++ {
		recs, stats, err := client.ResolveScoped(leaf.Addr(), q, scope)
		if err != nil {
			log.Fatal(err)
		}
		if len(recs) < prev {
			log.Fatalf("scope %d found %d records, fewer than scope %d's %d", scope, len(recs), scope-1, prev)
		}
		prev = len(recs)
		if scope == len(path)-1 && prev != want {
			log.Fatalf("the widest scope found %d records; the owners hold %d matches", prev, want)
		}
		anchor := path[len(path)-1-scope]
		branch := 0
		for _, srv := range cl.Servers {
			if slices.Contains(srv.RootPath(), anchor) {
				branch++
			}
		}
		fmt.Printf("  scope %d: branch of %2d servers -> %3d records, %2d contacted\n",
			scope, branch, len(recs), stats.Contacted)
	}

	// A new owner joins the federation. Its attachment point is chosen the
	// way a joining server chooses its parent (§III-A): least depth, then
	// fewest owners, from what each server reports about itself.
	best, top := 0, cl.Servers[0].StatusSnapshot()
	for i, srv := range cl.Servers {
		st := srv.StatusSnapshot()
		if d, bd := len(st.RootPath), len(top.RootPath); d < bd || d == bd && st.Owners < top.Owners {
			best, top = i, st
		}
	}
	fmt.Printf("\nnew owner's attachment point (least depth, then fewest owners): %s\n", cl.Servers[best].ID())
	newcomer := roads.NewOwner("newcomer", schema, nil)
	r := roads.NewRecord(schema, "newcomer-m0", "newcomer")
	r.SetNum(0, 0.99)
	r.SetStr(1, "eu")
	newcomer.SetRecords([]*roads.Record{r})
	if err := cl.AttachOwner(best, newcomer); err != nil {
		log.Fatal(err)
	}
	if err := cl.WaitConverged(total+1, time.Minute); err != nil {
		log.Fatal(err)
	}
	recs, _, err := client.Resolve(leaf.Addr(), roads.NewQuery("q2", roads.Above("cores", 0.98)))
	if err != nil {
		log.Fatal(err)
	}
	if !slices.ContainsFunc(recs, func(rec *roads.Record) bool { return rec.Owner == "newcomer" }) {
		log.Fatalf("newcomer's record not found from %s after the summaries converged", leaf.ID())
	}
	fmt.Printf("newcomer's record discoverable from %s once the summaries converge\n", leaf.ID())
}
