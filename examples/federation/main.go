// Federation: voluntary sharing across administrative boundaries. Three
// organizations share compute resources but retain final control: one
// hosts its own server and exports raw records to it, one exports only
// summaries to a third-party server, and each applies per-requester views
// (a business partner sees more than a stranger) — the scenario of the
// paper's Fig. 1 and §II.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"roads/internal/live"
	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
	"roads/internal/transport"
)

func main() {
	schema := record.MustSchema([]record.Attribute{
		{Name: "cores", Kind: record.Numeric},
		{Name: "gpu", Kind: record.Numeric},
		{Name: "tier", Kind: record.Categorical}, // public | partner | internal
		{Name: "site", Kind: record.Categorical},
	})

	// Server providers: a neutral exchange runs the root; three orgs run
	// their own servers under it (Fig. 1's structure).
	sites := []string{"exchange", "alpha-srv", "beta-srv", "gamma-srv"}
	scfg := summary.DefaultConfig()
	scfg.Buckets = 64
	tr := transport.NewChan()
	cl, err := live.StartCluster(tr, live.ClusterConfig{
		N:       len(sites),
		Schema:  schema,
		Summary: scfg,
		AddrFor: func(i int) string { return sites[i] },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()

	rng := rand.New(rand.NewSource(21))
	mkRecords := func(org string, n int, tiers []string) []*record.Record {
		recs := make([]*record.Record, n)
		for i := range recs {
			r := record.New(schema, fmt.Sprintf("%s-node%02d", org, i), org)
			r.SetNum(0, rng.Float64())
			r.SetNum(1, rng.Float64())
			r.SetStr(2, tiers[rng.Intn(len(tiers))])
			r.SetStr(3, org)
			recs[i] = r
		}
		return recs
	}

	// Org alpha trusts its own server: raw records live on alpha-srv.
	alpha := policy.NewOwner("alpha", schema, policy.NewPolicy(policy.ExportRecords))
	alpha.SetRecords(mkRecords("alpha", 30, []string{"public", "partner", "internal"}))
	if err := cl.AttachOwner(1, alpha); err != nil {
		log.Fatal(err)
	}

	// Org beta attaches to the exchange's server but exports summaries
	// only — its records never leave beta, and its policy decides per
	// requester what a query gets back.
	betaPolicy := policy.NewPolicy(policy.ExportSummary)
	betaPolicy.DefaultView = policy.View{
		Name:   "public-only",
		Filter: func(r *record.Record) bool { return r.Str(2) == "public" },
	}
	betaPolicy.SetView("alpha", policy.View{ // alpha is beta's business partner
		Name:   "partner",
		Filter: func(r *record.Record) bool { return r.Str(2) != "internal" },
	})
	beta := policy.NewOwner("beta", schema, betaPolicy)
	beta.SetRecords(mkRecords("beta", 30, []string{"public", "partner", "internal"}))
	if err := cl.AttachOwner(0, beta); err != nil {
		log.Fatal(err)
	}

	// Org gamma shares everything it has, from its own server.
	gamma := policy.NewOwner("gamma", schema, nil)
	gamma.SetRecords(mkRecords("gamma", 30, []string{"public"}))
	if err := cl.AttachOwner(3, gamma); err != nil {
		log.Fatal(err)
	}

	if err := cl.WaitConverged(90, time.Minute); err != nil {
		log.Fatal(err)
	}

	ask := func(requester string) {
		q := query.New("gpu-hunt", query.NewAbove("gpu", 0.5))
		recs, _, err := live.NewClient(tr, requester).Resolve("alpha-srv", q)
		if err != nil {
			log.Fatal(err)
		}
		perOrg := map[string]int{}
		for _, r := range recs {
			perOrg[r.Owner]++
		}
		// Each org's share is what its own policy gives this requester.
		q.Requester = requester
		for _, o := range []*policy.Owner{alpha, beta, gamma} {
			allowed, err := o.Answer(q)
			if err != nil {
				log.Fatal(err)
			}
			if perOrg[o.ID] != len(allowed) {
				log.Fatalf("requester %s got %d of %s's records; its policy allows %d", requester, perOrg[o.ID], o.ID, len(allowed))
			}
		}
		fmt.Printf("requester %-8s -> %2d records (by org: %v)\n", requester, len(recs), perOrg)
	}

	fmt.Println("same query, different requesters — owners retain final control:")
	ask("alpha")    // beta's partner: sees beta's public+partner tiers
	ask("stranger") // only public tiers from beta; alpha/gamma share all
}
