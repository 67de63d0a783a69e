package loadgen

import (
	"fmt"
	"testing"
	"time"

	"roads/internal/live"
	"roads/internal/record"
	"roads/internal/transport"
)

func TestPlacementCompleteTree(t *testing.T) {
	parents, err := Placement(10, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{-1, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	for i, p := range parents {
		if p != want[i] {
			t.Fatalf("parents[%d] = %d, want %d (full: %v)", i, p, want[i], parents)
		}
	}
	if d := Depth(parents); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
}

func TestPlacementChain(t *testing.T) {
	parents, err := Placement(5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if parents[i] != i-1 {
			t.Fatalf("fanOut=1 must chain: parents[%d] = %d", i, parents[i])
		}
	}
	if d := Depth(parents); d != 4 {
		t.Fatalf("chain depth = %d, want 4", d)
	}
}

func TestPlacementMinDepthSpine(t *testing.T) {
	const n, fanOut, minDepth = 40, 3, 6
	parents, err := Placement(n, fanOut, minDepth)
	if err != nil {
		t.Fatal(err)
	}
	// The spine forces the depth floor.
	if d := Depth(parents); d < minDepth {
		t.Fatalf("depth = %d, want >= %d", d, minDepth)
	}
	for i := 1; i <= minDepth; i++ {
		if parents[i] != i-1 {
			t.Fatalf("spine broken at %d: parent %d", i, parents[i])
		}
	}
	// Capacity respected everywhere.
	kids := make([]int, n)
	for i := 1; i < n; i++ {
		if parents[i] < 0 || parents[i] >= i {
			t.Fatalf("parents[%d] = %d must be an earlier server", i, parents[i])
		}
		kids[parents[i]]++
	}
	for i, k := range kids {
		if k > fanOut {
			t.Fatalf("server %d has %d children, cap %d", i, k, fanOut)
		}
	}
}

func TestPlacementRejectsBadShapes(t *testing.T) {
	if _, err := Placement(0, 2, 0); err == nil {
		t.Fatal("n=0 must be rejected")
	}
	if _, err := Placement(5, 0, 0); err == nil {
		t.Fatal("fanOut=0 must be rejected")
	}
	if _, err := Placement(5, 2, 5); err == nil {
		t.Fatal("minDepth > n-1 must be rejected")
	}
}

// TestClusterJoinViaPlacement verifies the JoinVia wave construction
// yields exactly the intended topology: every server attaches at the
// parent its placement names (the parent always has capacity, so the join
// policy accepts at the seed).
func TestClusterJoinViaPlacement(t *testing.T) {
	const n, fanOut = 13, 3
	parents, err := Placement(n, fanOut, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewChan()
	cl, err := live.StartCluster(tr, live.ClusterConfig{
		N:           n,
		Schema:      record.DefaultSchema(2),
		MaxChildren: fanOut,
		JoinVia:     func(i int) int { return parents[i] },
		Tick:        time.Minute, // structure only; keep the loops quiet
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	for i := 1; i < n; i++ {
		want := fmt.Sprintf("srv%03d", parents[i])
		if got := cl.Servers[i].ParentID(); got != want {
			t.Fatalf("server %d attached under %q, placement says %q", i, got, want)
		}
	}
}
