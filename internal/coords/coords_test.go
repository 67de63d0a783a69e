package coords

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNewSpaceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewSpace(0, DefaultConfig(), rng); err == nil {
		t.Fatal("expected error for zero hosts")
	}
	cfg := DefaultConfig()
	cfg.MeanLatency = 0
	if _, err := NewSpace(10, cfg, rng); err == nil {
		t.Fatal("expected error for zero mean latency")
	}
}

func TestLatencySymmetricAndZeroSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := mustSpace(t, 50, DefaultConfig(), rng)
	for i := 0; i < 50; i++ {
		if s.Latency(i, i) != 0 {
			t.Fatalf("self latency of %d must be 0", i)
		}
	}
	for trial := 0; trial < 100; trial++ {
		i, j := rng.Intn(50), rng.Intn(50)
		if s.Latency(i, j) != s.Latency(j, i) {
			t.Fatalf("latency(%d,%d) not symmetric", i, j)
		}
	}
}

func TestLatencyFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultConfig()
	cfg.MinLatency = 5 * time.Millisecond
	s := mustSpace(t, 100, cfg, rng)
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			if i != j && s.Latency(i, j) < cfg.MinLatency {
				t.Fatalf("latency(%d,%d)=%v below floor", i, j, s.Latency(i, j))
			}
		}
	}
}

func TestMeanCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultConfig()
	cfg.MeanLatency = 80 * time.Millisecond
	s := mustSpace(t, 200, cfg, rng)
	mean := s.MeanLatency()
	lo := time.Duration(float64(cfg.MeanLatency) * 0.8)
	hi := time.Duration(float64(cfg.MeanLatency) * 1.2)
	if mean < lo || mean > hi {
		t.Fatalf("mean latency %v outside [%v,%v]", mean, lo, hi)
	}
}

func TestUniformPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	cfg.Clusters = 0 // uniform
	s := mustSpace(t, 100, cfg, rng)
	if s.N() != 100 {
		t.Fatalf("N = %d; want 100", s.N())
	}
	mean := s.MeanLatency()
	if mean <= 0 {
		t.Fatal("uniform space must have positive mean latency")
	}
}

func TestLargeSpaceSampledCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := mustSpace(t, 1000, DefaultConfig(), rng) // > maxExact path
	got := s.Latency(0, 999)
	if got < 0 {
		t.Fatalf("negative latency %v", got)
	}
}

func TestSingleHostSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := mustSpace(t, 1, DefaultConfig(), rng)
	if s.Latency(0, 0) != 0 {
		t.Fatal("single host latency to self must be 0")
	}
	if s.MeanLatency() != 0 {
		t.Fatal("single host mean latency must be 0")
	}
}

func TestPointDistance(t *testing.T) {
	var p, q Point
	q[0] = 3
	q[1] = 4
	if d := p.Distance(q); math.Abs(d-5) > 1e-12 {
		t.Fatalf("distance = %g; want 5", d)
	}
	if p.Distance(p) != 0 {
		t.Fatal("distance to self must be 0")
	}
}

// Property: triangle inequality holds for the underlying distances (the
// delay space is metric, unlike the real Internet — a documented
// simplification shared with the paper's synthesized model).
func TestTriangleInequalityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := mustSpace(t, 64, DefaultConfig(), rng)
	f := func(a, b, c uint8) bool {
		i, j, k := int(a)%64, int(b)%64, int(c)%64
		dij := s.Point(i).Distance(s.Point(j))
		djk := s.Point(j).Distance(s.Point(k))
		dik := s.Point(i).Distance(s.Point(k))
		return dik <= dij+djk+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// mustSpace is NewSpace that fails the test on error.
func mustSpace(t *testing.T, n int, cfg Config, rng *rand.Rand) *Space {
	t.Helper()
	s, err := NewSpace(n, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
