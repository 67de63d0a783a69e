package summary

import (
	"fmt"
	"sort"
)

// ValueSet summarizes a categorical attribute by enumerating the distinct
// values present, with a count per value so that soft-state refresh can
// subtract as well as add. It is exact (no false positives) but its size
// grows with the number of distinct values, which is why the paper suggests
// Bloom filters when the vocabulary is large.
type ValueSet struct {
	Counts map[string]uint32
}

// NewValueSet creates an empty value set.
func NewValueSet() *ValueSet {
	return &ValueSet{Counts: make(map[string]uint32)}
}

// Add records one occurrence of v.
func (s *ValueSet) Add(v string) {
	s.Counts[v]++
}

// Remove forgets one occurrence of v.
func (s *ValueSet) Remove(v string) {
	if c, ok := s.Counts[v]; ok {
		if c <= 1 {
			delete(s.Counts, v)
		} else {
			s.Counts[v] = c - 1
		}
	}
}

// Contains reports whether v is present.
func (s *ValueSet) Contains(v string) bool {
	_, ok := s.Counts[v]
	return ok
}

// Merge adds other's occurrences into s.
func (s *ValueSet) Merge(other *ValueSet) {
	if other == nil {
		return
	}
	for v, c := range other.Counts {
		s.Counts[v] += c
	}
}

// Len returns the number of distinct values.
func (s *ValueSet) Len() int { return len(s.Counts) }

// Values returns the distinct values in sorted order.
func (s *ValueSet) Values() []string {
	out := make([]string, 0, len(s.Counts))
	for v := range s.Counts {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy.
func (s *ValueSet) Clone() *ValueSet {
	c := NewValueSet()
	for v, n := range s.Counts {
		c.Counts[v] = n
	}
	return c
}

// Equal reports whether two sets hold the same values with the same counts.
func (s *ValueSet) Equal(other *ValueSet) bool {
	if other == nil || len(s.Counts) != len(other.Counts) {
		return false
	}
	for v, c := range s.Counts {
		if other.Counts[v] != c {
			return false
		}
	}
	return true
}

// SizeBytes is the wire size: per value its string length plus a 4-byte
// counter, plus a 4-byte header.
func (s *ValueSet) SizeBytes() int {
	size := 4
	for v := range s.Counts {
		size += len(v) + 4
	}
	return size
}

// String renders the set, for debugging.
func (s *ValueSet) String() string {
	return fmt.Sprintf("set%v", s.Values())
}
