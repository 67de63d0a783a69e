package summary

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
)

// Bloom is a Bloom filter summarizing a categorical attribute. Compared to
// ValueSet it is constant-size regardless of vocabulary, at the cost of a
// tunable false-positive rate — matching the paper's note that Bloom filters
// [10] can replace enumeration when the number of distinct values is large.
//
// Bloom filters cannot subtract, so soft-state refresh rebuilds them from
// scratch each period rather than applying deltas; Summary handles that.
type Bloom struct {
	Bits   []uint64
	NumBit uint32
	Hashes uint32
	N      uint64 // elements added, for diagnostics
}

// NewBloom creates a filter with nbits bits and k hash functions. nbits is
// rounded up to a multiple of 64.
func NewBloom(nbits, k int) (*Bloom, error) {
	if nbits <= 0 || k <= 0 {
		return nil, fmt.Errorf("summary: bloom needs positive bits and hashes, got %d/%d", nbits, k)
	}
	words := (nbits + 63) / 64
	return &Bloom{Bits: make([]uint64, words), NumBit: uint32(words * 64), Hashes: uint32(k)}, nil
}

// MustBloom is NewBloom that panics on error.
func MustBloom(nbits, k int) *Bloom {
	b, err := NewBloom(nbits, k)
	if err != nil {
		panic(err)
	}
	return b
}

// OptimalBloom sizes a filter for n expected elements and target
// false-positive probability p, using the standard formulas
// m = -n ln p / (ln 2)^2 and k = (m/n) ln 2.
func OptimalBloom(n int, p float64) *Bloom {
	if n <= 0 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = 0.01
	}
	m := int(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return MustBloom(m, k)
}

// hashPair derives two independent 32-bit hashes of v; the k probe
// positions are h1 + i*h2 (Kirsch–Mitzenmacher double hashing).
func hashPair(v string) (uint32, uint32) {
	h := fnv.New64a()
	h.Write([]byte(v))
	sum := h.Sum64()
	h1 := uint32(sum)
	h2 := uint32(sum>>32) | 1 // odd, so probes cycle through all positions
	return h1, h2
}

// Add inserts v.
func (b *Bloom) Add(v string) {
	h1, h2 := hashPair(v)
	for i := uint32(0); i < b.Hashes; i++ {
		bit := (h1 + i*h2) % b.NumBit
		b.Bits[bit/64] |= 1 << (bit % 64)
	}
	b.N++
}

// Contains reports whether v may have been inserted. False positives are
// possible; false negatives are not.
func (b *Bloom) Contains(v string) bool {
	h1, h2 := hashPair(v)
	for i := uint32(0); i < b.Hashes; i++ {
		bit := (h1 + i*h2) % b.NumBit
		if b.Bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Merge ORs other into b. The filters must have identical geometry.
func (b *Bloom) Merge(other *Bloom) error {
	if other == nil {
		return nil
	}
	if b.NumBit != other.NumBit || b.Hashes != other.Hashes {
		return fmt.Errorf("summary: merging incompatible blooms (%d/%d bits, %d/%d hashes)",
			b.NumBit, other.NumBit, b.Hashes, other.Hashes)
	}
	for i, w := range other.Bits {
		b.Bits[i] |= w
	}
	b.N += other.N
	return nil
}

// MergeAny ORs other into b, tolerating geometry mismatches: servers of one
// federation may be configured with different Bloom sizes, and a peer's
// filter arrives from outside the program. Identical geometry merges
// exactly. Otherwise the merge is conservative (never loses a membership)
// when the smaller bit count divides the larger (power-of-two sizes always
// divide) and b probes no more hash positions than other guaranteed set
// (b.Hashes <= other.Hashes):
//
//   - fold: other is larger — bit i of other ORs into bit i mod b.NumBit,
//     because probe positions mod a divisor of the modulus are preserved;
//   - smear: other is smaller — bit i of other ORs into every position
//     congruent to i mod other.NumBit.
//
// Any non-dividing size pair or a hash-count increase would create false
// negatives, so those cases saturate b instead: match-anything keeps the
// no-false-negative contract at the price of extra descents.
func (b *Bloom) MergeAny(other *Bloom) {
	if other == nil {
		return
	}
	if b.NumBit == other.NumBit && b.Hashes == other.Hashes {
		_ = b.Merge(other)
		return
	}
	defer func() { b.N += other.N }()
	if b.Hashes > other.Hashes {
		b.Saturate()
		return
	}
	switch {
	case b.NumBit <= other.NumBit && other.NumBit%b.NumBit == 0:
		// Fold: word-aligned because bit counts are multiples of 64.
		for i, w := range other.Bits {
			b.Bits[i%len(b.Bits)] |= w
		}
	case b.NumBit%other.NumBit == 0:
		// Smear: replicate the smaller filter across every block.
		for base := 0; base < len(b.Bits); base += len(other.Bits) {
			for i, w := range other.Bits {
				b.Bits[base+i] |= w
			}
		}
	default:
		b.Saturate()
	}
}

// Saturate sets every bit, turning the filter into match-anything — the
// conservative degradation when a merge or flatten cannot preserve exact
// membership information.
func (b *Bloom) Saturate() {
	for i := range b.Bits {
		b.Bits[i] = ^uint64(0)
	}
}

// Saturated reports whether every bit is set (the filter matches anything).
func (b *Bloom) Saturated() bool {
	for _, w := range b.Bits {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// FillRatio returns the fraction of set bits, a load indicator.
func (b *Bloom) FillRatio() float64 {
	ones := 0
	for _, w := range b.Bits {
		ones += bits.OnesCount64(w)
	}
	return float64(ones) / float64(b.NumBit)
}

// FalsePositiveRate estimates the current false-positive probability from
// the fill ratio: fp = fill^k.
func (b *Bloom) FalsePositiveRate() float64 {
	return math.Pow(b.FillRatio(), float64(b.Hashes))
}

// Clone returns a deep copy.
func (b *Bloom) Clone() *Bloom {
	c := &Bloom{Bits: make([]uint64, len(b.Bits)), NumBit: b.NumBit, Hashes: b.Hashes, N: b.N}
	copy(c.Bits, b.Bits)
	return c
}

// Reset clears all bits.
func (b *Bloom) Reset() {
	for i := range b.Bits {
		b.Bits[i] = 0
	}
	b.N = 0
}

// Equal reports whether two filters have the same geometry and bits.
func (b *Bloom) Equal(other *Bloom) bool {
	if other == nil || b.NumBit != other.NumBit || b.Hashes != other.Hashes {
		return false
	}
	for i, w := range b.Bits {
		if other.Bits[i] != w {
			return false
		}
	}
	return true
}

// SizeBytes is the wire size: the bit array plus an 8-byte header.
func (b *Bloom) SizeBytes() int { return 8 + 8*len(b.Bits) }
