// Package coords synthesizes Internet-like pairwise latencies from a
// 5-dimensional Euclidean coordinate space, following the measurement-based
// delay-space synthesis approach of Zhang et al. (IMC 2006) that the paper
// cites as [12] for its simulations. Each node is a point in R^5; the
// one-way latency between two nodes is the Euclidean distance scaled so the
// mean pairwise latency matches a configurable target.
package coords

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Dim is the dimensionality of the synthesized delay space.
const Dim = 5

// Point is a position in the delay space.
type Point [Dim]float64

// Distance returns the Euclidean distance between two points.
func (p Point) Distance(q Point) float64 {
	var sum float64
	for i := 0; i < Dim; i++ {
		d := p[i] - q[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Space holds the coordinates of every simulated host and the scale factor
// converting distance to latency.
type Space struct {
	points []Point
	scale  float64 // seconds of one-way latency per unit distance
	min    time.Duration
}

// Config controls space synthesis.
type Config struct {
	// MeanLatency is the target mean one-way latency across all pairs.
	// The paper's simulated query latencies (~800 ms over 3-5 redirect
	// rounds) imply one-way delays averaging roughly 60-90 ms, typical of
	// wide-area paths.
	MeanLatency time.Duration
	// MinLatency floors every pair (no two Internet hosts are closer than
	// a few hundred microseconds).
	MinLatency time.Duration
	// Clusters, if positive, groups points around that many cluster
	// centers, mimicking the clustered structure of the measured Internet
	// delay space. Zero means uniform placement.
	Clusters int
	// ClusterSpread is the standard deviation of points around their
	// cluster center, as a fraction of the unit cube (default 0.1).
	ClusterSpread float64
}

// DefaultConfig returns wide-area defaults: 80 ms mean one-way latency,
// 1 ms floor, 8 clusters.
func DefaultConfig() Config {
	return Config{
		MeanLatency:   80 * time.Millisecond,
		MinLatency:    time.Millisecond,
		Clusters:      8,
		ClusterSpread: 0.1,
	}
}

// NewSpace synthesizes coordinates for n hosts using rng.
func NewSpace(n int, cfg Config, rng *rand.Rand) (*Space, error) {
	if n <= 0 {
		return nil, fmt.Errorf("coords: need at least one host, got %d", n)
	}
	if cfg.MeanLatency <= 0 {
		return nil, fmt.Errorf("coords: MeanLatency must be positive")
	}
	spread := cfg.ClusterSpread
	if spread <= 0 {
		spread = 0.1
	}
	s := &Space{points: make([]Point, n), min: cfg.MinLatency}

	var centers []Point
	if cfg.Clusters > 0 {
		centers = make([]Point, cfg.Clusters)
		for i := range centers {
			for d := 0; d < Dim; d++ {
				centers[i][d] = rng.Float64()
			}
		}
	}
	for i := range s.points {
		if centers != nil {
			c := centers[rng.Intn(len(centers))]
			for d := 0; d < Dim; d++ {
				s.points[i][d] = c[d] + rng.NormFloat64()*spread
			}
		} else {
			for d := 0; d < Dim; d++ {
				s.points[i][d] = rng.Float64()
			}
		}
	}

	// Calibrate scale so the mean pairwise distance maps to MeanLatency.
	// For large n, sample pairs instead of the full quadratic sweep.
	mean := s.meanPairwiseDistance(rng)
	if mean <= 0 {
		mean = 1 // all points coincide (n==1); any scale works
	}
	s.scale = cfg.MeanLatency.Seconds() / mean
	return s, nil
}

func (s *Space) meanPairwiseDistance(rng *rand.Rand) float64 {
	n := len(s.points)
	if n < 2 {
		return 0
	}
	const maxExact = 512
	var sum float64
	var count int
	if n <= maxExact {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sum += s.points[i].Distance(s.points[j])
				count++
			}
		}
	} else {
		for k := 0; k < 100000; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			sum += s.points[i].Distance(s.points[j])
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// N returns the number of hosts in the space.
func (s *Space) N() int { return len(s.points) }

// Point returns host i's coordinate.
func (s *Space) Point(i int) Point { return s.points[i] }

// Latency returns the one-way latency between hosts i and j. It is
// symmetric, zero for i==j, and floored at MinLatency otherwise.
func (s *Space) Latency(i, j int) time.Duration {
	if i == j {
		return 0
	}
	d := s.points[i].Distance(s.points[j])
	lat := time.Duration(d * s.scale * float64(time.Second))
	if lat < s.min {
		lat = s.min
	}
	return lat
}

// MeanLatency returns the mean one-way latency over all distinct pairs
// (exact for small spaces; used by tests to validate calibration).
func (s *Space) MeanLatency() time.Duration {
	n := len(s.points)
	if n < 2 {
		return 0
	}
	var sum time.Duration
	var count int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += s.Latency(i, j)
			count++
		}
	}
	return time.Duration(int64(sum) / count)
}
