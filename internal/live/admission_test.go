package live

import (
	"strconv"
	"testing"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/wire"
)

// admissionStar builds the shared fixture: a parked-loop star with two
// branches and an admission layer of two tokens per requester that barely
// refills, so the third query from any non-high requester goes over budget.
func admissionStar(t *testing.T) (*Server, *policy.Classifier) {
	t.Helper()
	cls := policy.NewClassifier()
	root, _, _, tr, _ := newCacheStar(t, func(cfg *Config) {
		cfg.AdmissionRate = 0.0001
		cfg.AdmissionBurst = 2
		cfg.Classifier = cls
	}, rangeOf(0, 8), rangeOf(100, 8))
	_ = tr
	return root, cls
}

// TestAdmissionShedsToCoarse: a requester over its token budget gets a
// coarse summary-only answer — flagged in the reply, not an error.
func TestAdmissionShedsToCoarse(t *testing.T) {
	root, _ := admissionStar(t)
	cli := NewClient(root.tr, "t-low")
	cli.Priority = wire.PriorityLow
	q := query.New("q", query.NewRange("a0", -1, 2000))

	for i := 0; i < 2; i++ {
		recs, stats, err := cli.Resolve(root.Addr(), q)
		if err != nil {
			t.Fatalf("resolve %d: %v", i, err)
		}
		if stats.Coarse != 0 || len(recs) != 16 {
			t.Fatalf("resolve %d within budget: coarse=%d records=%d; want full answer", i, stats.Coarse, len(recs))
		}
	}
	recs, stats, err := cli.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatalf("over-budget resolve must not error, got: %v", err)
	}
	if stats.Coarse != 1 || len(recs) != 0 {
		t.Fatalf("over-budget resolve: coarse=%d records=%d; want a coarse shed", stats.Coarse, len(recs))
	}
	if stats.CoarseEstimate <= 0 {
		t.Fatalf("coarse reply carried estimate %v; want a positive branch estimate", stats.CoarseEstimate)
	}
	if info := root.AdmissionInfo(); info.Shed != 1 || info.Admitted != 2 {
		t.Fatalf("admission after coarse shed: %+v; want 2 admitted, 1 shed", info)
	}
}

// TestAdmissionHighPriorityNeverShed: PriorityHigh traffic bypasses the
// token buckets entirely.
func TestAdmissionHighPriorityNeverShed(t *testing.T) {
	root, _ := admissionStar(t)
	cli := NewClient(root.tr, "t-high")
	cli.Priority = wire.PriorityHigh
	q := query.New("q", query.NewRange("a0", -1, 2000))
	for i := 0; i < 6; i++ {
		recs, stats, err := cli.Resolve(root.Addr(), q)
		if err != nil {
			t.Fatalf("resolve %d: %v", i, err)
		}
		if stats.Coarse != 0 || len(recs) != 16 {
			t.Fatalf("resolve %d: coarse=%d records=%d; high priority must never be shed", i, stats.Coarse, len(recs))
		}
	}
}

// TestAdmissionPlainRequesterShedsToCoarse: every shed answers coarse,
// whatever the query carries — a client with default settings (normal
// priority, no cache fields) over budget gets the flagged estimate too, not
// an error.
func TestAdmissionPlainRequesterShedsToCoarse(t *testing.T) {
	root, _ := admissionStar(t)
	cli := NewClient(root.tr, "t-plain")
	q := query.New("q", query.NewRange("a0", -1, 2000))
	for i := 0; i < 2; i++ {
		if _, _, err := cli.Resolve(root.Addr(), q); err != nil {
			t.Fatalf("resolve %d: %v", i, err)
		}
	}
	_, stats, err := cli.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatalf("over-budget resolve must not error, got: %v", err)
	}
	if stats.Coarse != 1 {
		t.Fatalf("over-budget resolve: coarse=%d; want a coarse shed", stats.Coarse)
	}
}

// TestAdmissionBucketCeiling: spraying fresh requester identities faster
// than buckets go idle must not grow the bucket map past its ceiling, and
// must not buy the sprayer a fresh burst per identity: past the ceiling new
// identities share the anonymous bucket and drain it.
func TestAdmissionBucketCeiling(t *testing.T) {
	// Two tokens per bucket and an idle window of hours: nothing sprayed
	// here is ever reapable.
	a := newAdmission(0.0001, 2)
	shedBefore := 0
	for i := 0; i < 4*admissionMaxBuckets; i++ {
		if !a.admit("sprayed-"+strconv.Itoa(i), wire.PriorityNormal) {
			if i < admissionMaxBuckets {
				t.Fatalf("identity %d shed below the ceiling; each has a fresh bucket", i)
			}
			shedBefore++
		}
	}
	if got := a.requesters(); got > admissionMaxBuckets {
		t.Fatalf("%d buckets after spraying %d identities; the ceiling is %d", got, 4*admissionMaxBuckets, admissionMaxBuckets)
	}
	// Past the ceiling the spray as a whole got the anonymous bucket's two
	// tokens, not two per identity.
	if want := 3*admissionMaxBuckets - 2; shedBefore != want {
		t.Fatalf("%d of the %d identities past the ceiling were shed; want %d (all but the shared bucket's burst)",
			shedBefore, 3*admissionMaxBuckets, want)
	}
	if a.admit("sprayed-one-more", wire.PriorityNormal) {
		t.Fatal("a sprayed identity past the ceiling was admitted on an empty shared bucket")
	}
	// An identity that got its own bucket below the ceiling keeps it.
	if !a.admit("sprayed-0", wire.PriorityNormal) {
		t.Fatal("an identity with its own bucket lost its remaining token to the spray")
	}
	if a.admit("sprayed-0", wire.PriorityNormal) {
		t.Fatal("an identity with its own bucket was admitted past its burst")
	}
	if a.nextReap.IsZero() {
		t.Fatal("a reap that freed nothing must postpone the next one, or every sprayed query scans the map")
	}
}

// TestAdmissionClassifierOverridesClaimedPriority: a server-side Classifier
// pin beats whatever priority class the requester claims on the wire.
func TestAdmissionClassifierOverridesClaimedPriority(t *testing.T) {
	root, cls := admissionStar(t)
	cls.Pin("t-pinned", policy.ClassLow)
	cli := NewClient(root.tr, "t-pinned")
	cli.Priority = wire.PriorityHigh // claimed high, pinned low
	q := query.New("q", query.NewRange("a0", -1, 2000))
	for i := 0; i < 2; i++ {
		if _, _, err := cli.Resolve(root.Addr(), q); err != nil {
			t.Fatalf("resolve %d: %v", i, err)
		}
	}
	_, stats, err := cli.Resolve(root.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coarse != 1 {
		t.Fatalf("pinned-low requester claiming high was not shed (coarse=%d); the classifier must override the wire priority", stats.Coarse)
	}
}
