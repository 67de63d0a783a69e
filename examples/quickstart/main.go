// Quickstart: build a small ROADS federation in-process, attach resource
// owners, let the summaries aggregate, and resolve a multi-dimensional range
// query from an arbitrary server — the minimal end-to-end tour of the public
// pieces (records, owners, the hierarchy, summaries, queries).
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
	// 1. The federation-wide schema: every participant describes resources
	// with the same attributes (the paper assumes a common schema).
	schema := record.MustSchema([]record.Attribute{
		{Name: "cpu", Kind: record.Numeric},      // normalized load headroom
		{Name: "mem", Kind: record.Numeric},      // normalized free memory
		{Name: "disk", Kind: record.Numeric},     // normalized free disk
		{Name: "os", Kind: record.Categorical},   // operating system
		{Name: "arch", Kind: record.Categorical}, // CPU architecture
	})

	// 2. Twelve live servers on the in-process transport, joined into one
	// hierarchy of degree 3 (server i under server (i-1)/3), so it has
	// three levels.
	const n = 12
	scfg := summary.DefaultConfig()
	scfg.Buckets = 100
	tr := transport.NewChan()
	cl, err := live.StartCluster(tr, live.ClusterConfig{
		N: n, Schema: schema, Summary: scfg, MaxChildren: 3,
		JoinVia: func(i int) int { return (i - 1) / 3 },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()

	// 3. Twelve organizations, each attached to its own server and sharing
	// a handful of machines. Owners export only summaries — detailed
	// records never leave them.
	rng := rand.New(rand.NewSource(7))
	oses := []string{"linux", "bsd", "solaris"}
	archs := []string{"x86", "sparc", "ppc"}
	total := 0
	owners := make([]*policy.Owner, n)
	for i := 0; i < n; i++ {
		org := fmt.Sprintf("org%02d", i)
		owner := policy.NewOwner(org+"-resources", schema, nil)
		var recs []*record.Record
		for m := 0; m < 20; m++ {
			r := record.New(schema, fmt.Sprintf("%s-machine%02d", org, m), org)
			r.SetNum(0, rng.Float64())
			r.SetNum(1, rng.Float64())
			r.SetNum(2, rng.Float64())
			r.SetStr(3, oses[rng.Intn(len(oses))])
			r.SetStr(4, archs[rng.Intn(len(archs))])
			recs = append(recs, r)
		}
		owner.SetRecords(recs)
		if err := cl.AttachOwner(i, owner); err != nil {
			log.Fatal(err)
		}
		total += len(recs)
		owners[i] = owner
	}

	// 4. Summaries aggregate bottom-up and the replication overlay spreads
	// them, until every server can route to every record.
	if err := cl.WaitConverged(uint64(total), time.Minute); err != nil {
		log.Fatal(err)
	}
	levels := 0
	for _, srv := range cl.Servers {
		levels = max(levels, len(srv.RootPath()))
	}
	root := cl.Root()
	fmt.Printf("hierarchy: %d servers, %d levels; root %s sees %d records\n",
		len(cl.Servers), levels, root.ID(), root.BranchRecords())

	// 5. A multi-dimensional range query, started at an arbitrary server —
	// the overlay means no root round trip.
	q := query.New("find-worker",
		query.NewAbove("cpu", 0.7),
		query.NewAbove("mem", 0.5),
		query.NewEq("os", "linux"),
	)
	start := cl.Servers[7]
	recs, stats, err := live.NewClient(tr, "quickstart").Resolve(start.Addr(), q)
	if err != nil {
		log.Fatal(err)
	}
	// The resolve must find as many records as the owners themselves match.
	want := 0
	for _, o := range owners {
		matches, err := o.Answer(q)
		if err != nil {
			log.Fatal(err)
		}
		want += len(matches)
	}
	if len(recs) != want {
		log.Fatalf("query %q found %d records; the owners hold %d matches", q, len(recs), want)
	}
	fmt.Printf("query %q from %s:\n", q, start.ID())
	fmt.Printf("  contacted %d of %d servers in %v\n", stats.Contacted, len(cl.Servers), stats.Elapsed.Round(time.Microsecond))
	fmt.Printf("  %d matching machines:\n", len(recs))
	for i, r := range recs {
		if i == 5 {
			fmt.Printf("    ... and %d more\n", len(recs)-5)
			break
		}
		fmt.Printf("    %s (cpu=%.2f mem=%.2f os=%s)\n", r.ID, r.Num(0), r.Num(1), r.Str(3))
	}
}
