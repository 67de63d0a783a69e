package live

import (
	"testing"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/transport"
)

// TestDynamicResourceUpdates exercises the soft-state story for dynamic
// resources (paper §III-B: "many resources are dynamic, thus we need to
// continuously update the corresponding resource records and summaries"):
// an owner changes its records at runtime, and within a few aggregation
// ticks the new resource becomes discoverable from a remote server while
// the retired one stops matching.
func TestDynamicResourceUpdates(t *testing.T) {
	schema := record.DefaultSchema(2)
	tr := transport.NewChan()
	cl, err := NewCluster(tr, ClusterConfig{N: 3, Schema: schema, MaxChildren: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	mk := func(id string, v float64) *record.Record {
		r := record.New(schema, id, "own")
		r.SetNum(0, v)
		r.SetNum(1, v)
		return r
	}
	o := policy.NewOwner("own", schema, nil)
	o.SetRecords([]*record.Record{mk("old", 0.2)})
	if err := cl.AttachOwner(2, o); err != nil {
		t.Fatal(err)
	}
	settle(t, cl, 1)

	client := NewClient(tr, "t")
	qOld := query.New("q-old", query.NewRange("a0", 0.15, 0.25))
	qNew := query.New("q-new", query.NewRange("a0", 0.75, 0.85))

	recs, _, err := client.Resolve(cl.Servers[0].Addr(), qOld)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "old" {
		t.Fatalf("precondition: old record should be discoverable, got %v", recs)
	}

	// The resource changes: the owner replaces its record set.
	o.SetRecords([]*record.Record{mk("new", 0.8)})

	// Once the summaries have refreshed along the hierarchy and the overlay,
	// the new record is discoverable from a remote server.
	settle(t, cl, 1)
	recs, _, err = client.Resolve(cl.Servers[0].Addr(), qNew.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "new" {
		t.Fatalf("new record not discoverable after refresh: %v", recs)
	}

	// The retired record no longer matches (the owner answers from its
	// current records immediately; the summaries follow).
	recs, _, err = client.Resolve(cl.Servers[0].Addr(), qOld.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("retired record still returned: %v", recs)
	}
}

// TestOwnerAttachedAtRuntime attaches a brand-new owner to a running
// cluster and checks it becomes discoverable.
func TestOwnerAttachedAtRuntime(t *testing.T) {
	cl, w := startWorkloadCluster(t, 4, 10, 60)
	client := NewClient(cl.Tr, "t")

	schema := w.Schema
	o := policy.NewOwner("latecomer", schema, nil)
	r := record.New(schema, "late-r1", "latecomer")
	for j := 0; j < schema.NumAttrs(); j++ {
		r.SetNum(j, 0.999)
	}
	o.SetRecords([]*record.Record{r})
	if err := cl.AttachOwner(3, o); err != nil {
		t.Fatal(err)
	}

	settle(t, cl, uint64(len(cl.Servers)*10+1))
	q := query.New("q", query.NewRange("a0", 0.99, 1.0))
	recs, _, err := client.Resolve(cl.Servers[0].Addr(), q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.ID == "late-r1" {
			return
		}
	}
	t.Fatal("late owner's record is not discoverable once the federation settled")
}
