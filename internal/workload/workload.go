// Package workload generates the paper's synthetic resource records and
// multi-dimensional queries. Records carry 16 numeric attributes in four
// distribution families — uniform, window (uniform within a per-node range
// of length 0.5), Gaussian, and Pareto (scaled and truncated into [0,1]) —
// and queries specify per-dimension ranges of length 0.25 over a mix of
// those families (paper §V defaults). It also implements the overlap-factor
// data placement of Fig. 9 and the selectivity-calibrated query groups of
// Fig. 11.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"roads/internal/query"
	"roads/internal/record"
)

// Dist identifies an attribute's value distribution.
type Dist uint8

const (
	// Uniform draws values uniformly from [0,1].
	Uniform Dist = iota
	// Window draws values uniformly from a per-node window of length 0.5
	// randomly placed in [0,1] (the paper's "range" distribution).
	Window
	// Gaussian draws from N(0.5, 0.15), truncated to [0,1].
	Gaussian
	// Pareto draws from a Pareto(xm=0.05, alpha=1.5), truncated to [0,1].
	Pareto
)

func (d Dist) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Window:
		return "window"
	case Gaussian:
		return "gaussian"
	case Pareto:
		return "pareto"
	default:
		return fmt.Sprintf("dist(%d)", uint8(d))
	}
}

const (
	gaussMean  = 0.5
	gaussStdev = 0.15
	paretoXm   = 0.05
	paretoA    = 1.5
	// WindowLen is the length of the per-node window for the Window
	// distribution (paper: "ranges of length 0.5").
	WindowLen = 0.5
	// DefaultQueryRange is the per-dimension range length (paper: 0.25).
	DefaultQueryRange = 0.25
)

// Config describes a workload.
type Config struct {
	// Nodes is the number of resource owners / servers.
	Nodes int
	// RecordsPerNode is K, the records each owner holds (paper: 500).
	RecordsPerNode int
	// AttrsPerDist is how many attributes each of the four distribution
	// families contributes; the schema has 4*AttrsPerDist numeric
	// attributes (paper: 4 each, 16 total).
	AttrsPerDist int
	// OverlapFactor, when positive, overrides the first 8 attributes: each
	// node's values for those attributes fall in a window of length
	// OverlapFactor/Nodes randomly placed in [0,1] (Fig. 9). Zero disables.
	OverlapFactor float64
	// WindowLen overrides the Window-distribution window length (paper
	// default 0.5). Shorter windows make per-node data more distinct, so
	// summaries prune harder — the regime where the paper's Fig. 6 latency
	// decline is most visible. Zero means the default.
	WindowLen float64
	// CategoricalAttrs appends that many categorical attributes (named
	// c0, c1, ...) after the numeric ones, each drawing uniformly from a
	// vocabulary of CategoricalVocab values. The paper's prototype
	// workload mixes integer, double, string and categorical types; this
	// exercises the value-set / Bloom summary paths at system scale.
	CategoricalAttrs int
	// CategoricalVocab is the vocabulary size per categorical attribute
	// (default 16 when CategoricalAttrs > 0).
	CategoricalVocab int
}

// DefaultConfig returns the paper's §V defaults: 320 nodes x 500 records,
// 16 attributes (4 per family), no overlap override.
func DefaultConfig() Config {
	return Config{Nodes: 320, RecordsPerNode: 500, AttrsPerDist: 4}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("workload: Nodes must be positive, got %d", c.Nodes)
	}
	if c.RecordsPerNode <= 0 {
		return fmt.Errorf("workload: RecordsPerNode must be positive, got %d", c.RecordsPerNode)
	}
	if c.AttrsPerDist <= 0 {
		return fmt.Errorf("workload: AttrsPerDist must be positive, got %d", c.AttrsPerDist)
	}
	if c.OverlapFactor < 0 {
		return fmt.Errorf("workload: OverlapFactor must be non-negative, got %g", c.OverlapFactor)
	}
	if c.WindowLen < 0 || c.WindowLen > 1 {
		return fmt.Errorf("workload: WindowLen must be in [0,1], got %g", c.WindowLen)
	}
	if c.CategoricalAttrs < 0 || c.CategoricalVocab < 0 {
		return fmt.Errorf("workload: categorical settings must be non-negative")
	}
	return nil
}

// vocab returns the effective categorical vocabulary size.
func (c Config) vocab() int {
	if c.CategoricalVocab > 0 {
		return c.CategoricalVocab
	}
	return 16
}

// windowLen returns the effective Window-distribution window length.
func (c Config) windowLen() float64 {
	if c.WindowLen > 0 {
		return c.WindowLen
	}
	return WindowLen
}

// NumAttrs returns the total attribute count.
func (c Config) NumAttrs() int { return 4 * c.AttrsPerDist }

// DistOfAttr returns the distribution family of attribute position i. The
// layout is [Uniform... Window... Gaussian... Pareto...], so with the
// default AttrsPerDist=4 the "first 8 attributes" of Fig. 9 are the uniform
// and window groups.
func (c Config) DistOfAttr(i int) Dist {
	return Dist(i / c.AttrsPerDist)
}

// AttrsOf returns the attribute positions belonging to the family.
func (c Config) AttrsOf(d Dist) []int {
	out := make([]int, c.AttrsPerDist)
	for i := range out {
		out[i] = int(d)*c.AttrsPerDist + i
	}
	return out
}

// Workload is a generated dataset: the schema, per-node record slices, and
// the configuration that produced them.
type Workload struct {
	Cfg     Config
	Schema  *record.Schema
	PerNode [][]*record.Record
}

// Generate produces records for every node using rng. Deterministic for a
// given (cfg, rng state).
func Generate(cfg Config, rng *rand.Rand) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	attrs := record.DefaultSchema(cfg.NumAttrs()).Attrs()
	for ci := 0; ci < cfg.CategoricalAttrs; ci++ {
		attrs = append(attrs, record.Attribute{Name: fmt.Sprintf("c%d", ci), Kind: record.Categorical})
	}
	schema, err := record.NewSchema(attrs)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Cfg:     cfg,
		Schema:  schema,
		PerNode: make([][]*record.Record, cfg.Nodes),
	}
	nAttrs := cfg.NumAttrs()
	winLen := cfg.windowLen()
	overlapAttrs := 8
	if overlapAttrs > nAttrs {
		overlapAttrs = nAttrs
	}
	for node := 0; node < cfg.Nodes; node++ {
		// Per-node placement parameters.
		windowStarts := make([]float64, nAttrs)
		for i := 0; i < nAttrs; i++ {
			if cfg.DistOfAttr(i) == Window {
				windowStarts[i] = rng.Float64() * (1 - winLen)
			}
		}
		var overlapStart []float64
		var overlapLen float64
		if cfg.OverlapFactor > 0 {
			overlapLen = cfg.OverlapFactor / float64(cfg.Nodes)
			if overlapLen > 1 {
				overlapLen = 1
			}
			overlapStart = make([]float64, overlapAttrs)
			for i := range overlapStart {
				overlapStart[i] = rng.Float64() * (1 - overlapLen)
			}
		}

		recs := make([]*record.Record, cfg.RecordsPerNode)
		for k := 0; k < cfg.RecordsPerNode; k++ {
			r := record.New(w.Schema, fmt.Sprintf("n%d-r%d", node, k), fmt.Sprintf("owner%d", node))
			for i := 0; i < nAttrs; i++ {
				var v float64
				if cfg.OverlapFactor > 0 && i < overlapAttrs {
					v = overlapStart[i] + rng.Float64()*overlapLen
				} else {
					switch cfg.DistOfAttr(i) {
					case Uniform:
						v = rng.Float64()
					case Window:
						v = windowStarts[i] + rng.Float64()*winLen
					case Gaussian:
						v = gaussMean + rng.NormFloat64()*gaussStdev
					case Pareto:
						v = paretoXm / math.Pow(rng.Float64(), 1/paretoA)
					}
				}
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
				r.SetNum(i, v)
			}
			for ci := 0; ci < cfg.CategoricalAttrs; ci++ {
				r.SetStr(nAttrs+ci, fmt.Sprintf("v%d", rng.Intn(cfg.vocab())))
			}
			recs[k] = r
		}
		w.PerNode[node] = recs
	}
	return w, nil
}

// MustGenerate is Generate that panics on error.
func MustGenerate(cfg Config, rng *rand.Rand) *Workload {
	w, err := Generate(cfg, rng)
	if err != nil {
		panic(err)
	}
	return w
}

// AllRecords flattens the per-node records into one slice.
func (w *Workload) AllRecords() []*record.Record {
	total := 0
	for _, recs := range w.PerNode {
		total += len(recs)
	}
	out := make([]*record.Record, 0, total)
	for _, recs := range w.PerNode {
		out = append(out, recs...)
	}
	return out
}

// TotalRecords returns N*K.
func (w *Workload) TotalRecords() int {
	total := 0
	for _, recs := range w.PerNode {
		total += len(recs)
	}
	return total
}

// queryDimPattern is the family order in which query dimensions are drawn.
// The first six entries reproduce the paper's default 6-dimension query mix
// (two uniform, two window, one Gaussian, one Pareto); dimensions beyond
// six continue with uniform/window, so every q in the Fig. 6/7 sweep (2..8)
// is well defined.
var queryDimPattern = []Dist{Uniform, Window, Gaussian, Pareto, Uniform, Window, Uniform, Window}

// GenQuery builds one query with dims dimensions, each a range of length
// rangeLen placed uniformly at random, over distinct attributes following
// the paper's family mix.
func (w *Workload) GenQuery(id string, dims int, rangeLen float64, rng *rand.Rand) (*query.Query, error) {
	if dims <= 0 || dims > w.Cfg.NumAttrs() {
		return nil, fmt.Errorf("workload: query dims %d out of range [1,%d]", dims, w.Cfg.NumAttrs())
	}
	if rangeLen <= 0 || rangeLen > 1 {
		return nil, fmt.Errorf("workload: rangeLen %g out of (0,1]", rangeLen)
	}
	used := make(map[int]bool, dims)
	preds := make([]query.Predicate, 0, dims)
	for d := 0; d < dims; d++ {
		family := queryDimPattern[d%len(queryDimPattern)]
		attrs := w.Cfg.AttrsOf(family)
		// Pick an unused attribute from the family; fall back to any
		// unused attribute if the family is exhausted.
		attr := -1
		perm := rng.Perm(len(attrs))
		for _, pi := range perm {
			if !used[attrs[pi]] {
				attr = attrs[pi]
				break
			}
		}
		if attr == -1 {
			for i := 0; i < w.Cfg.NumAttrs(); i++ {
				if !used[i] {
					attr = i
					break
				}
			}
		}
		used[attr] = true
		lo := rng.Float64() * (1 - rangeLen)
		preds = append(preds, query.NewRange(w.Schema.Attr(attr).Name, lo, lo+rangeLen))
	}
	q := query.New(id, preds...)
	if err := q.Bind(w.Schema); err != nil {
		return nil, err
	}
	return q, nil
}

// GenQueries builds n queries via GenQuery.
func (w *Workload) GenQueries(n, dims int, rangeLen float64, rng *rand.Rand) ([]*query.Query, error) {
	out := make([]*query.Query, n)
	for i := range out {
		q, err := w.GenQuery(fmt.Sprintf("q%d", i), dims, rangeLen, rng)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// Selectivity measures the exact fraction of records in recs matching q.
func Selectivity(q *query.Query, recs []*record.Record) float64 {
	if len(recs) == 0 {
		return 0
	}
	matches := 0
	for _, r := range recs {
		if q.MatchRecord(r) {
			matches++
		}
	}
	return float64(matches) / float64(len(recs))
}

// GenSelectivityQuery builds a query with dims dimensions whose global
// selectivity approximates target (a fraction in (0,1)). It centers a box
// on a randomly chosen record and bisects the per-dimension half-width
// until the measured selectivity over sample is within 25% of target (or
// the bisection budget is exhausted). This reproduces the prototype
// benchmark's selectivity-grouped query sets (Fig. 11).
func (w *Workload) GenSelectivityQuery(id string, dims int, target float64, sample []*record.Record, rng *rand.Rand) (*query.Query, error) {
	if target <= 0 || target >= 1 {
		return nil, fmt.Errorf("workload: selectivity target %g out of (0,1)", target)
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("workload: empty sample")
	}
	if dims <= 0 || dims > w.Cfg.NumAttrs() {
		return nil, fmt.Errorf("workload: query dims %d out of range", dims)
	}
	center := sample[rng.Intn(len(sample))]
	// Distinct attributes following the default family mix.
	used := make(map[int]bool, dims)
	attrs := make([]int, 0, dims)
	for d := 0; d < dims; d++ {
		family := queryDimPattern[d%len(queryDimPattern)]
		fam := w.Cfg.AttrsOf(family)
		attr := -1
		for _, pi := range rng.Perm(len(fam)) {
			if !used[fam[pi]] {
				attr = fam[pi]
				break
			}
		}
		if attr == -1 {
			for i := 0; i < w.Cfg.NumAttrs(); i++ {
				if !used[i] {
					attr = i
					break
				}
			}
		}
		used[attr] = true
		attrs = append(attrs, attr)
	}

	build := func(halfWidth float64) (*query.Query, error) {
		preds := make([]query.Predicate, len(attrs))
		for i, a := range attrs {
			c := center.Num(a)
			preds[i] = query.NewRange(w.Schema.Attr(a).Name, c-halfWidth, c+halfWidth)
		}
		q := query.New(id, preds...)
		if err := q.Bind(w.Schema); err != nil {
			return nil, err
		}
		return q, nil
	}

	lo, hi := 0.0, 1.0
	var best *query.Query
	bestErr := math.Inf(1)
	for iter := 0; iter < 24; iter++ {
		mid := (lo + hi) / 2
		q, err := build(mid)
		if err != nil {
			return nil, err
		}
		sel := Selectivity(q, sample)
		if diff := math.Abs(sel - target); diff < bestErr {
			best, bestErr = q, diff
		}
		switch {
		case sel > target:
			hi = mid
		default:
			lo = mid
		}
		if bestErr <= 0.25*target {
			break
		}
	}
	return best, nil
}

// SelectivityGroup is one Fig. 11 query group: a target selectivity and its
// calibrated queries.
type SelectivityGroup struct {
	Target  float64 // fraction, e.g. 0.0001 for 0.01%
	Queries []*query.Query
}

// GenSelectivityGroups builds the paper's six groups (0.01%..3%) with
// perGroup queries each, calibrated against a sample of up to sampleSize
// records drawn from the full workload.
func (w *Workload) GenSelectivityGroups(targets []float64, perGroup, dims, sampleSize int, rng *rand.Rand) ([]SelectivityGroup, error) {
	all := w.AllRecords()
	sample := all
	if len(all) > sampleSize {
		sample = make([]*record.Record, sampleSize)
		for i, pi := range rng.Perm(len(all))[:sampleSize] {
			sample[i] = all[pi]
		}
	}
	groups := make([]SelectivityGroup, len(targets))
	for gi, target := range targets {
		groups[gi].Target = target
		groups[gi].Queries = make([]*query.Query, perGroup)
		for i := 0; i < perGroup; i++ {
			q, err := w.GenSelectivityQuery(fmt.Sprintf("g%d-q%d", gi, i), dims, target, sample, rng)
			if err != nil {
				return nil, err
			}
			groups[gi].Queries[i] = q
		}
	}
	return groups, nil
}

// PaperSelectivityTargets are the six selectivity groups of Fig. 11.
var PaperSelectivityTargets = []float64{0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03}
