package roads_test

import (
	"testing"
	"time"

	"roads"
)

// TestFacadeLive drives the live path through the facade: cluster,
// transport, client, policies.
func TestFacadeLive(t *testing.T) {
	schema, err := roads.NewSchema([]roads.Attribute{
		{Name: "gpu", Kind: roads.Numeric},
		{Name: "tier", Kind: roads.Categorical},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := roads.NewInProcessTransport()
	cl, err := roads.StartCluster(tr, roads.ClusterConfig{N: 3, Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	pol := roads.NewPolicy(roads.ExportSummary)
	pol.DefaultView = roads.View{Name: "public", Filter: func(r *roads.Record) bool {
		return r.Str(1) == "public"
	}}
	owner := roads.NewOwner("own", schema, pol)
	pub := roads.NewRecord(schema, "pub", "own")
	pub.SetNum(0, 0.9)
	pub.SetStr(1, "public")
	sec := roads.NewRecord(schema, "sec", "own")
	sec.SetNum(0, 0.9)
	sec.SetStr(1, "secret")
	owner.SetRecords([]*roads.Record{pub, sec})
	if err := cl.AttachOwner(2, owner); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitConverged(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	client := roads.NewClient(tr, "stranger")
	recs, stats, err := client.Resolve(cl.Servers[0].Addr(), roads.NewQuery("q", roads.Above("gpu", 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "pub" {
		t.Fatalf("stranger got %v; want only the public record", recs)
	}
	if stats.Contacted == 0 {
		t.Fatal("no servers contacted")
	}
	// A parsed query agrees with the built one.
	pq, err := roads.ParseQuery("pq", "gpu>0.5")
	if err != nil {
		t.Fatal(err)
	}
	precs, _, err := client.Resolve(cl.Servers[1].Addr(), pq)
	if err != nil {
		t.Fatal(err)
	}
	if len(precs) != len(recs) {
		t.Fatalf("parsed query found %d records; built query found %d", len(precs), len(recs))
	}
}
