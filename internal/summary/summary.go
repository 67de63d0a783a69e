// Package summary implements ROADS's constant-size resource summaries
// (paper §II-B): per-attribute equi-width histograms for numeric
// attributes, and value sets or Bloom filters for categorical
// ones. A Summary is what an owner voluntarily exports instead of its raw
// records, what servers merge bottom-up into branch summaries, and what
// the replication overlay copies across the hierarchy. The essential
// property, relied on by query routing, is that summaries never produce
// false negatives: if any summarized record matches a query, the summary
// matches it too.
package summary

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"roads/internal/record"
)

// CategoricalMode selects how categorical attributes are summarized.
type CategoricalMode uint8

const (
	// UseValueSet enumerates distinct values exactly (paper's default when
	// the vocabulary is small).
	UseValueSet CategoricalMode = iota
	// UseBloom summarizes with a constant-size Bloom filter.
	UseBloom
)

// Config controls summary construction. The zero value is not usable; use
// DefaultConfig or fill every field.
type Config struct {
	// Buckets is the histogram bucket count per numeric attribute. The
	// paper's simulations use 1000; its analysis section uses 100.
	Buckets int
	// Min, Max bound the numeric value domain (paper: unit range [0,1]).
	Min, Max float64
	// Categorical selects ValueSet or Bloom summarization.
	Categorical CategoricalMode
	// BloomBits and BloomHashes size the Bloom filters when Categorical is
	// UseBloom.
	BloomBits, BloomHashes int
	// CondenseAbove, when positive, collapses value sets with more than
	// this many distinct values into dotted-prefix wildcards ("a.b.*") per
	// Portnoi & Swany's heuristic summarization. Zero disables.
	CondenseAbove int
}

// DefaultConfig returns the paper's simulation defaults: 1000-bucket
// histograms over [0,1] and exact value sets for categorical attributes.
func DefaultConfig() Config {
	return Config{Buckets: 1000, Min: 0, Max: 1, Categorical: UseValueSet, BloomBits: 1024, BloomHashes: 4}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Buckets <= 0 {
		return fmt.Errorf("summary: config.Buckets must be positive, got %d", c.Buckets)
	}
	if !(c.Min < c.Max) {
		return fmt.Errorf("summary: config domain [%g,%g) is empty", c.Min, c.Max)
	}
	if c.Categorical == UseBloom && (c.BloomBits <= 0 || c.BloomHashes <= 0) {
		return fmt.Errorf("summary: bloom mode needs positive BloomBits/BloomHashes")
	}
	if c.CondenseAbove < 0 {
		return fmt.Errorf("summary: CondenseAbove must be non-negative, got %d", c.CondenseAbove)
	}
	return nil
}

// Summary is the condensed representation of a set of resource records: one
// per-attribute summary for each schema attribute. Summaries are what
// owners export, what servers aggregate bottom-up, and what the replication
// overlay copies around. They carry their origin and a content version, so a
// holder can tell an unchanged summary from a new one with one compare.
type Summary struct {
	Schema *record.Schema
	Cfg    Config

	// Hists holds the histogram for each numeric attribute (nil for
	// categorical positions); Sets/Blooms hold the categorical summaries
	// (nil for numeric positions), only one of the two populated depending
	// on Cfg.Categorical.
	Hists  []*Histogram
	Sets   []*ValueSet
	Blooms []*Bloom

	// Records counts how many records this summary condenses.
	Records uint64
	// PolicyRev is the sum of the view revisions (policy.Policy.Rev) of the
	// owners whose records this summary condenses. Owners apply views at
	// answer time, so a view change alters no summarized content, yet it
	// alters answers; carried as content and hashed into Version, it
	// re-versions every branch above the owner the way a record write does.
	PolicyRev uint64

	// Origin identifies the server or owner whose branch this summarizes.
	Origin string
	// Version identifies the summarized content. FromRecords stamps it
	// with the ComputeVersion content hash, so two summaries condensing
	// identical data carry equal versions and an equality check costs one
	// uint64 compare. Zero means unstamped.
	Version uint64
}

// New creates an empty summary for the schema.
func New(s *record.Schema, cfg Config) (*Summary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sum := &Summary{
		Schema: s,
		Cfg:    cfg,
		Hists:  make([]*Histogram, s.NumAttrs()),
		Sets:   make([]*ValueSet, s.NumAttrs()),
		Blooms: make([]*Bloom, s.NumAttrs()),
	}
	for i := 0; i < s.NumAttrs(); i++ {
		switch s.Attr(i).Kind {
		case record.Numeric:
			sum.Hists[i] = MustHistogram(cfg.Buckets, cfg.Min, cfg.Max)
		case record.Categorical:
			if cfg.Categorical == UseBloom {
				sum.Blooms[i] = MustBloom(cfg.BloomBits, cfg.BloomHashes)
			} else {
				sum.Sets[i] = NewValueSet()
			}
		}
	}
	return sum, nil
}

// MustNew is New that panics on error.
func MustNew(s *record.Schema, cfg Config) *Summary {
	sum, err := New(s, cfg)
	if err != nil {
		panic(err)
	}
	return sum
}

// FromRecords builds a summary of the given records, condensed per
// cfg.CondenseAbove and stamped with its content version.
func FromRecords(s *record.Schema, cfg Config, recs []*record.Record) (*Summary, error) {
	sum, err := New(s, cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		sum.AddRecord(r)
	}
	sum.Condense()
	sum.ComputeVersion()
	return sum, nil
}

// AddRecord folds one record into the summary.
func (sum *Summary) AddRecord(r *record.Record) {
	for i := 0; i < sum.Schema.NumAttrs(); i++ {
		switch sum.Schema.Attr(i).Kind {
		case record.Numeric:
			sum.Hists[i].Add(r.Num(i))
		case record.Categorical:
			if sum.Blooms[i] != nil {
				sum.Blooms[i].Add(r.Str(i))
			} else {
				sum.Sets[i].Add(r.Str(i))
			}
		}
	}
	sum.Records++
}

// RemoveRecord subtracts one record (for delta refresh). Not supported in
// Bloom mode, which rebuilds instead; it returns an error in that case.
func (sum *Summary) RemoveRecord(r *record.Record) error {
	for i := 0; i < sum.Schema.NumAttrs(); i++ {
		switch sum.Schema.Attr(i).Kind {
		case record.Numeric:
			sum.Hists[i].Remove(r.Num(i))
		case record.Categorical:
			if sum.Blooms[i] != nil {
				return fmt.Errorf("summary: cannot remove from bloom-mode summary; rebuild instead")
			}
			sum.Sets[i].Remove(r.Str(i))
		}
	}
	if sum.Records > 0 {
		sum.Records--
	}
	return nil
}

// Subtractable reports whether RemoveRecord can subtract a record exactly:
// histograms decrement their bucket and value sets decrement (and drop
// zeroed) value counts, so a summary of those kinds tracks removals
// without drift — removing a record yields the same content (and the same
// ComputeVersion) as rebuilding without it. Bloom filters cannot clear
// bits, so any summary holding one must rebuild instead; an owner's
// summary (policy.Owner) falls back to a rebuild off this.
func (sum *Summary) Subtractable() bool {
	for i := range sum.Blooms {
		if sum.Blooms[i] != nil {
			return false
		}
	}
	return true
}

// Merge folds other into sum: histograms add bucket-wise, value sets union,
// Bloom filters OR. This is the bottom-up aggregation operator. A server
// has one geometry, but a federation need not (roadsd -buckets is per
// server) and a peer's summary is input from outside the program, so the two
// sides may disagree on geometry or even categorical kind. Merge degrades
// conservatively instead of erroring: histograms resample across bucket
// counts (MergeResample), Blooms fold/smear/saturate across sizes
// (MergeAny), and a value set meeting a Bloom converts to a Bloom.
// Mismatched numeric domains are still a hard error (a configuration bug).
func (sum *Summary) Merge(other *Summary) error {
	if other == nil {
		return nil
	}
	if sum.Schema.NumAttrs() != other.Schema.NumAttrs() {
		return fmt.Errorf("summary: merging summaries with different schemas (%d vs %d attrs)",
			sum.Schema.NumAttrs(), other.Schema.NumAttrs())
	}
	for i := 0; i < sum.Schema.NumAttrs(); i++ {
		switch {
		case sum.Hists[i] != nil:
			if other.Hists[i] == nil {
				return fmt.Errorf("summary: attr %d numeric in one summary, not the other", i)
			}
			if err := sum.Hists[i].MergeResample(other.Hists[i]); err != nil {
				return err
			}
		case sum.Blooms[i] != nil:
			switch {
			case other.Blooms[i] != nil:
				sum.Blooms[i].MergeAny(other.Blooms[i])
			case other.Sets[i] != nil:
				mergeSetIntoBloom(sum.Blooms[i], other.Sets[i])
			default:
				return fmt.Errorf("summary: attr %d categorical in one summary, not the other", i)
			}
		case sum.Sets[i] != nil:
			switch {
			case other.Sets[i] != nil:
				sum.Sets[i].Merge(other.Sets[i])
			case other.Blooms[i] != nil:
				// A set cannot absorb a Bloom (its members are unknown);
				// convert this attribute to a Bloom and fold the set in.
				b := other.Blooms[i].Clone()
				mergeSetIntoBloom(b, sum.Sets[i])
				sum.Blooms[i], sum.Sets[i] = b, nil
			default:
				return fmt.Errorf("summary: attr %d categorical in one summary, not the other", i)
			}
		}
	}
	sum.Records += other.Records
	sum.PolicyRev += other.PolicyRev
	return nil
}

// mergeSetIntoBloom inserts a value set's members into a Bloom filter. A
// set holding condensed wildcards cannot be enumerated exactly (a wildcard
// stands for unknown members), so the filter saturates — match-anything is
// the only conservative answer.
func mergeSetIntoBloom(b *Bloom, s *ValueSet) {
	if s.HasWildcards() {
		b.Saturate()
		b.N += uint64(s.Len())
		return
	}
	for v := range s.Counts {
		b.Add(v)
	}
}

// MatchRange reports whether attribute position i may contain a value in
// [lo,hi]. Only valid for numeric attributes.
func (sum *Summary) MatchRange(i int, lo, hi float64) bool {
	h := sum.Hists[i]
	if h == nil {
		return false
	}
	return h.MatchRange(lo, hi)
}

// MatchEq reports whether attribute position i may contain the categorical
// value v. Value sets are probed for v itself and for every condensed
// dotted-prefix wildcard covering it ("a.b.c" also probes "a.b.*" and
// "a.*"), so condensation never produces false negatives.
func (sum *Summary) MatchEq(i int, v string) bool {
	if sum.Blooms[i] != nil {
		return sum.Blooms[i].Contains(v)
	}
	if s := sum.Sets[i]; s != nil {
		if s.Contains(v) {
			return true
		}
		if s.wild == 0 {
			return false
		}
		for p := parentPrefix(v); p != ""; p = parentPrefix(p) {
			if s.Contains(p + wildcardSuffix) {
				return true
			}
		}
	}
	return false
}

// ComputeVersion hashes the summarized content (record count, histogram
// buckets, value sets, Bloom bitsets, and the policy revision when there is
// one — not origin metadata) into
// Version and returns it. Two summaries condensing identical data hash
// identically, so downstream equality checks — "does my parent already
// hold this branch?" — cost one uint64 compare instead of a bucket-wise
// walk. The hash is FNV-1a over the canonical field order; zero is mapped
// to 1 so a stamped version is always distinguishable from the unstamped
// zero value. The cost is one pass over the summary's fixed-size state,
// independent of how many records were condensed.
func (sum *Summary) ComputeVersion() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	w(sum.Records)
	for i := range sum.Hists {
		switch {
		case sum.Hists[i] != nil:
			hist := sum.Hists[i]
			w(uint64(i)<<8 | 1)
			w(hist.Total)
			for _, c := range hist.Counts {
				w(uint64(c))
			}
		case sum.Sets[i] != nil:
			vs := sum.Sets[i]
			w(uint64(i)<<8 | 2)
			keys := make([]string, 0, len(vs.Counts))
			for k := range vs.Counts {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				_, _ = h.Write([]byte(k))
				w(uint64(vs.Counts[k]))
			}
		case sum.Blooms[i] != nil:
			bl := sum.Blooms[i]
			w(uint64(i)<<8 | 3)
			w(uint64(bl.NumBit))
			w(uint64(bl.Hashes))
			w(bl.N)
			for _, word := range bl.Bits {
				w(word)
			}
		}
	}
	if sum.PolicyRev != 0 {
		w(4) // no attribute section starts with this word
		w(sum.PolicyRev)
	}
	v := h.Sum64()
	if v == 0 {
		v = 1
	}
	sum.Version = v
	return v
}

// Empty reports whether the summary condenses zero records.
func (sum *Summary) Empty() bool { return sum.Records == 0 }

// Clone returns a deep copy (used when replicating summaries around the
// overlay so that in-process simulations do not alias state).
func (sum *Summary) Clone() *Summary {
	c := &Summary{
		Schema:    sum.Schema,
		Cfg:       sum.Cfg,
		Hists:     make([]*Histogram, len(sum.Hists)),
		Sets:      make([]*ValueSet, len(sum.Sets)),
		Blooms:    make([]*Bloom, len(sum.Blooms)),
		Records:   sum.Records,
		PolicyRev: sum.PolicyRev,
		Origin:    sum.Origin,
		Version:   sum.Version,
	}
	for i := range sum.Hists {
		if sum.Hists[i] != nil {
			c.Hists[i] = sum.Hists[i].Clone()
		}
		if sum.Sets[i] != nil {
			c.Sets[i] = sum.Sets[i].Clone()
		}
		if sum.Blooms[i] != nil {
			c.Blooms[i] = sum.Blooms[i].Clone()
		}
	}
	return c
}

// Equal reports whether two summaries condense identical data (ignores
// origin/version metadata).
func (sum *Summary) Equal(other *Summary) bool {
	if other == nil || sum.Records != other.Records || sum.PolicyRev != other.PolicyRev ||
		len(sum.Hists) != len(other.Hists) {
		return false
	}
	for i := range sum.Hists {
		switch {
		case sum.Hists[i] != nil:
			if !sum.Hists[i].Equal(other.Hists[i]) {
				return false
			}
		case sum.Sets[i] != nil:
			if other.Sets[i] == nil || !sum.Sets[i].Equal(other.Sets[i]) {
				return false
			}
		case sum.Blooms[i] != nil:
			if !sum.Blooms[i].Equal(other.Blooms[i]) {
				return false
			}
		}
	}
	return true
}

// SizeBytes is the wire size of the summary for message accounting: the sum
// of per-attribute summary sizes plus a 24-byte header. Crucially this is
// independent of how many records were condensed — the property behind the
// paper's constant update overhead (Fig. 8).
func (sum *Summary) SizeBytes() int {
	size := 24
	for i := range sum.Hists {
		if sum.Hists[i] != nil {
			size += sum.Hists[i].SizeBytes()
		}
		if sum.Sets[i] != nil {
			size += sum.Sets[i].SizeBytes()
		}
		if sum.Blooms[i] != nil {
			size += sum.Blooms[i].SizeBytes()
		}
	}
	return size
}
