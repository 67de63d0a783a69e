// Package record defines resource records: the multi-attribute descriptions
// of shareable resources that flow through ROADS, SWORD and the centralized
// baseline. A record is a set of attribute-value pairs conforming to a
// Schema shared by all federation participants (the paper assumes a common
// schema; see DESIGN.md §6).
package record

import (
	"fmt"
	"sort"
	"strings"
)

// Kind is the type of an attribute's values.
type Kind uint8

const (
	// Numeric attributes take float64 values, normalized to [0,1] in the
	// paper's workloads. Range predicates apply to them.
	Numeric Kind = iota
	// Categorical attributes take string values drawn from a finite
	// vocabulary (e.g. encoding=MPEG2). Equality predicates apply to them.
	Categorical
)

func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Attribute describes one dimension of the shared schema.
type Attribute struct {
	Name string
	Kind Kind
}

// Schema is the ordered list of attributes all participants agree on.
// Records store their values positionally, aligned with the schema, which
// keeps them compact and makes summary construction cache-friendly.
type Schema struct {
	attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema from the given attributes. Attribute names must
// be unique and non-empty.
func NewSchema(attrs []Attribute) (*Schema, error) {
	s := &Schema{
		attrs: make([]Attribute, len(attrs)),
		index: make(map[string]int, len(attrs)),
	}
	copy(s.attrs, attrs)
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("record: schema attribute %d has empty name", i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("record: duplicate schema attribute %q", a.Name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and static schemas.
func MustSchema(attrs []Attribute) *Schema {
	s, err := NewSchema(attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of attributes in the schema.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute {
	out := make([]Attribute, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Index returns the position of the named attribute and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// NumericIndexes returns the positions of all numeric attributes, ascending.
func (s *Schema) NumericIndexes() []int {
	var out []int
	for i, a := range s.attrs {
		if a.Kind == Numeric {
			out = append(out, i)
		}
	}
	return out
}

// CategoricalIndexes returns the positions of all categorical attributes.
func (s *Schema) CategoricalIndexes() []int {
	var out []int
	for i, a := range s.attrs {
		if a.Kind == Categorical {
			out = append(out, i)
		}
	}
	return out
}

// Value is one attribute value. Num is meaningful for Numeric attributes,
// Str for Categorical ones; the schema decides which is live.
type Value struct {
	Num float64
	Str string
}

// Record is a resource description: an identifier, the owner that published
// it, and one value per schema attribute (positional).
type Record struct {
	ID     string
	Owner  string
	Values []Value
}

// New allocates a record with the right number of value slots for s.
func New(s *Schema, id, owner string) *Record {
	return &Record{ID: id, Owner: owner, Values: make([]Value, s.NumAttrs())}
}

// SetNum sets a numeric attribute by schema position.
func (r *Record) SetNum(i int, v float64) { r.Values[i].Num = v }

// SetStr sets a categorical attribute by schema position.
func (r *Record) SetStr(i int, v string) { r.Values[i].Str = v }

// Num returns the numeric value at schema position i.
func (r *Record) Num(i int) float64 { return r.Values[i].Num }

// Str returns the categorical value at schema position i.
func (r *Record) Str(i int) string { return r.Values[i].Str }

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	c := *r
	c.Values = make([]Value, len(r.Values))
	copy(c.Values, r.Values)
	return &c
}

// Validate checks the record against the schema: value slot count and, for
// categorical attributes, non-empty strings.
func (r *Record) Validate(s *Schema) error {
	if len(r.Values) != s.NumAttrs() {
		return fmt.Errorf("record %s: %d values, schema has %d attrs", r.ID, len(r.Values), s.NumAttrs())
	}
	for i, a := range s.attrs {
		if a.Kind == Categorical && r.Values[i].Str == "" {
			return fmt.Errorf("record %s: categorical attr %q is empty", r.ID, a.Name)
		}
	}
	return nil
}

// SizeBytes is the wire size of the record used for message accounting in
// the simulated baselines: 8 bytes per numeric value, string length per categorical
// value, plus a small fixed header for the ID.
func (r *Record) SizeBytes(s *Schema) int {
	size := 16 // id + owner header
	for i, a := range s.attrs {
		if a.Kind == Numeric {
			size += 8
		} else {
			size += len(r.Values[i].Str)
			if size == 0 {
				size++
			}
		}
	}
	return size
}

// String renders the record as attribute=value pairs, for debugging.
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "{id=%s owner=%s", r.ID, r.Owner)
	for i, v := range r.Values {
		if v.Str != "" {
			fmt.Fprintf(&b, " a%d=%s", i, v.Str)
		} else {
			fmt.Fprintf(&b, " a%d=%.3f", i, v.Num)
		}
	}
	b.WriteString("}")
	return b.String()
}

// Set is a collection of records under one schema.
type Set struct {
	Schema  *Schema
	Records []*Record
}

// NewSet creates an empty record set for the schema.
func NewSet(s *Schema) *Set {
	return &Set{Schema: s}
}

// Add appends records to the set.
func (rs *Set) Add(recs ...*Record) { rs.Records = append(rs.Records, recs...) }

// Len returns the number of records.
func (rs *Set) Len() int { return len(rs.Records) }

// SizeBytes is the total wire size of all records in the set.
func (rs *Set) SizeBytes() int {
	total := 0
	for _, r := range rs.Records {
		total += r.SizeBytes(rs.Schema)
	}
	return total
}

// SortByID orders the records by ID, for deterministic output.
func (rs *Set) SortByID() {
	sort.Slice(rs.Records, func(i, j int) bool { return rs.Records[i].ID < rs.Records[j].ID })
}

// DefaultSchema builds the paper's default simulation schema: nNumeric
// numeric attributes named a0..a(n-1). The paper's default workload uses 16
// numeric attributes; categorical ones appear in the prototype workload.
func DefaultSchema(nNumeric int) *Schema {
	attrs := make([]Attribute, nNumeric)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("a%d", i), Kind: Numeric}
	}
	return MustSchema(attrs)
}
