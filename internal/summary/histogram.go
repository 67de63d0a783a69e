// Package summary implements the condensed resource representations at the
// heart of ROADS: per-attribute histograms for numeric values, enumerated
// value sets and Bloom filters for categorical values, and whole-record
// summaries that aggregate along the hierarchy. Summaries are lossy but
// support query evaluation ("does any resource under this branch possibly
// match?") and merge associatively, which is what makes bottom-up
// aggregation and overlay replication work (paper §III-B).
package summary

import (
	"fmt"
	"math"
)

// Histogram is an equi-width histogram over a fixed value domain [Min,Max).
// Each bucket counts how many values fell in its range. Two histograms over
// the same domain and bucket count merge by adding counters bucket-wise,
// exactly as the paper describes.
type Histogram struct {
	Min, Max float64
	Counts   []uint32
	Total    uint64
}

// NewHistogram creates a histogram with m buckets over [min,max).
func NewHistogram(m int, min, max float64) (*Histogram, error) {
	if m <= 0 {
		return nil, fmt.Errorf("summary: histogram needs at least 1 bucket, got %d", m)
	}
	if !(min < max) {
		return nil, fmt.Errorf("summary: invalid histogram domain [%g,%g)", min, max)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]uint32, m)}, nil
}

// MustHistogram is NewHistogram that panics on error.
func MustHistogram(m int, min, max float64) *Histogram {
	h, err := NewHistogram(m, min, max)
	if err != nil {
		panic(err)
	}
	return h
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.Counts) }

// bucketOf maps a value to its bucket index, clamping to the domain so that
// values exactly at Max (or slightly outside due to float noise) still land
// in a valid bucket.
func (h *Histogram) bucketOf(v float64) int {
	// Clamp before the float->int conversion: converting NaN or +/-Inf to
	// int is implementation-defined in Go.
	if math.IsNaN(v) || v <= h.Min {
		return 0
	}
	if v >= h.Max {
		return len(h.Counts) - 1
	}
	frac := (v - h.Min) / (h.Max - h.Min)
	i := int(frac * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// Add records one value.
func (h *Histogram) Add(v float64) {
	h.Counts[h.bucketOf(v)]++
	h.Total++
}

// Remove forgets one value previously added. It is used by soft-state
// refresh when an owner re-exports changed records.
func (h *Histogram) Remove(v float64) {
	i := h.bucketOf(v)
	if h.Counts[i] > 0 {
		h.Counts[i]--
	}
	if h.Total > 0 {
		h.Total--
	}
}

// Merge adds other's counters into h. The two histograms must have the same
// bucket count and domain.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if len(h.Counts) != len(other.Counts) || h.Min != other.Min || h.Max != other.Max {
		return fmt.Errorf("summary: merging incompatible histograms (%d buckets [%g,%g) vs %d buckets [%g,%g))",
			len(h.Counts), h.Min, h.Max, len(other.Counts), other.Min, other.Max)
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.Total += other.Total
	return nil
}

// MergeResample adds other's counters into h, resampling when the bucket
// counts differ (servers configured with different -buckets send branch
// summaries of different geometry). Identical geometry
// merges exactly. Otherwise each non-empty source bucket distributes its
// count pro-rata over the destination buckets it overlaps, rounding up so
// every overlapped destination bucket stays non-zero — occupancy is never
// lost, which preserves the no-false-negative routing contract (counts may
// inflate slightly; they are estimates already). The numeric domains must
// agree: a domain mismatch is a configuration bug, not a resolution choice.
func (h *Histogram) MergeResample(other *Histogram) error {
	if other == nil {
		return nil
	}
	if len(h.Counts) == len(other.Counts) && h.Min == other.Min && h.Max == other.Max {
		return h.Merge(other)
	}
	if h.Min != other.Min || h.Max != other.Max {
		return fmt.Errorf("summary: resampling histograms with different domains ([%g,%g) vs [%g,%g))",
			h.Min, h.Max, other.Min, other.Max)
	}
	srcWidth := (other.Max - other.Min) / float64(len(other.Counts))
	dstWidth := (h.Max - h.Min) / float64(len(h.Counts))
	for j, c := range other.Counts {
		if c == 0 {
			continue
		}
		sLo := other.Min + float64(j)*srcWidth
		sHi := sLo + srcWidth
		iLo := int((sLo - h.Min) / dstWidth)
		iHi := int(math.Ceil((sHi-h.Min)/dstWidth)) - 1
		if iLo < 0 {
			iLo = 0
		}
		if iHi >= len(h.Counts) {
			iHi = len(h.Counts) - 1
		}
		for i := iLo; i <= iHi; i++ {
			dLo := h.Min + float64(i)*dstWidth
			dHi := dLo + dstWidth
			overlap := math.Min(sHi, dHi) - math.Max(sLo, dLo)
			if overlap <= 0 {
				continue
			}
			share := uint32(math.Ceil(float64(c) * overlap / srcWidth))
			if share == 0 {
				share = 1
			}
			h.Counts[i] += share
		}
	}
	h.Total += other.Total
	return nil
}

// MatchRange reports whether any recorded value *may* fall in [lo,hi]. It is
// conservative: it returns true when any bucket overlapping [lo,hi] is
// non-empty. False positives are possible (bucket granularity), false
// negatives are not — the property query forwarding relies on.
func (h *Histogram) MatchRange(lo, hi float64) bool {
	if hi < lo || h.Total == 0 {
		return false
	}
	if hi < h.Min || lo >= h.Max {
		return false
	}
	bLo := h.bucketOf(lo)
	bHi := h.bucketOf(hi)
	for i := bLo; i <= bHi; i++ {
		if h.Counts[i] != 0 {
			return true
		}
	}
	return false
}

// CountRange estimates how many recorded values fall in [lo,hi] by summing
// fully covered buckets and pro-rating partially covered edge buckets.
func (h *Histogram) CountRange(lo, hi float64) float64 {
	if hi < lo || h.Total == 0 {
		return 0
	}
	width := (h.Max - h.Min) / float64(len(h.Counts))
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		bLo := h.Min + float64(i)*width
		bHi := bLo + width
		overlapLo := math.Max(lo, bLo)
		overlapHi := math.Min(hi, bHi)
		if overlapHi <= overlapLo {
			continue
		}
		sum += float64(c) * (overlapHi - overlapLo) / width
	}
	return sum
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{Min: h.Min, Max: h.Max, Total: h.Total, Counts: make([]uint32, len(h.Counts))}
	copy(c.Counts, h.Counts)
	return c
}

// Reset zeroes all counters.
func (h *Histogram) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.Total = 0
}

// Equal reports whether two histograms have identical domains and counters.
// Summary refresh uses it to detect that a changed record did not change the
// summary (the t_s >> t_r effect in the paper's analysis).
func (h *Histogram) Equal(other *Histogram) bool {
	if other == nil || len(h.Counts) != len(other.Counts) || h.Min != other.Min || h.Max != other.Max {
		return false
	}
	for i, c := range h.Counts {
		if c != other.Counts[i] {
			return false
		}
	}
	return true
}

// SizeBytes is the wire size used for message accounting: 4 bytes per
// bucket counter plus a 16-byte header (domain + count).
func (h *Histogram) SizeBytes() int { return 16 + 4*len(h.Counts) }
