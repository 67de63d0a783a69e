// Livecluster: run a real ROADS federation — actual servers with their own
// goroutine loops, binary-encoded messages over TCP on the loopback
// interface, soft-state aggregation ticks, heartbeats, and a concurrent
// redirect-following client. Then kill a server and watch the hierarchy
// heal.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"roads/internal/live"
	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/transport"
	"roads/internal/workload"
)

func main() {
	const n = 7
	rng := rand.New(rand.NewSource(3))
	w, err := workload.Generate(workload.Config{Nodes: n, RecordsPerNode: 50, AttrsPerDist: 2}, rng)
	if err != nil {
		log.Fatal(err)
	}

	// Grab free loopback ports.
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}

	tr := transport.NewTCP()
	cl, err := live.StartCluster(tr, live.ClusterConfig{
		N:           n,
		Schema:      w.Schema,
		MaxChildren: 3,
		AddrFor:     func(i int) string { return addrs[i] },
		Tick:        100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()

	for i := 0; i < n; i++ {
		o := policy.NewOwner(fmt.Sprintf("owner%d", i), w.Schema, nil)
		o.SetRecords(w.PerNode[i])
		if err := cl.AttachOwner(i, o); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("started %d TCP servers; waiting for convergence...\n", n)
	if err := cl.WaitConverged(uint64(w.TotalRecords()), time.Minute); err != nil {
		log.Fatal(err)
	}
	root := cl.Root()
	fmt.Printf("hierarchy converged: root=%s, %d records federated\n", root.ID(), w.TotalRecords())

	client := live.NewClient(tr, "demo")
	q := query.New("demo", query.NewRange("a0", 0.2, 0.5), query.NewRange("a2", 0.1, 0.6))
	recs, stats, err := client.Resolve(cl.Servers[n-1].Addr(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query via %s: %d records from %d servers in %v\n",
		cl.Servers[n-1].ID(), len(recs), stats.Contacted, stats.Elapsed.Round(time.Millisecond))

	// Fail a non-root server and let the maintenance protocol heal the tree.
	var victim *live.Server
	for _, srv := range cl.Servers {
		if srv != root && srv.NumChildren() > 0 {
			victim = srv
			break
		}
	}
	if victim == nil {
		victim = cl.Servers[1]
	}
	fmt.Printf("stopping %s (children: %d) — orphans rejoin via their root paths...\n",
		victim.ID(), victim.NumChildren())
	victim.Stop()

	// An orphan in recovery has no parent and still holds its old root path,
	// so a server has healed once it has a parent and its root path leads
	// to the root. The orphans rejoin in their next round, a tick away.
	healed := func() int {
		ok := 0
		for _, srv := range cl.Servers {
			if srv == victim {
				continue
			}
			if path := srv.RootPath(); path[0] == root.ID() && (srv == root || srv.ParentID() != "") {
				ok++
			}
		}
		return ok
	}
	start := time.Now()
	for healed() < n-1 && time.Since(start) < 30*time.Second {
		time.Sleep(10 * time.Millisecond)
	}
	if got := healed(); got < n-1 {
		log.Fatalf("hierarchy did not heal: %d/%d surviving servers attached under %s", got, n-1, root.ID())
	}
	fmt.Printf("hierarchy healed in %v: %d/%d surviving servers attached under %s\n",
		time.Since(start).Round(time.Millisecond), n-1, n-1, root.ID())

	recs, stats, err = client.Resolve(root.Addr(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-failure query: %d records from %d servers in %v\n",
		len(recs), stats.Contacted, stats.Elapsed.Round(time.Millisecond))
}
