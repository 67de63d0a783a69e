package store

import "sort"

// numericIndex is a sorted list of (value, record position) pairs for one
// attribute, supporting range counting and candidate selection, plus an
// unsorted pending tail absorbing appends. The tail is scanned linearly by
// searches and merged into the sorted run once it crosses
// max(pendingMergeMin, len/4) entries (capped at pendingMergeMax so scan
// cost stays bounded) — amortized O(1) per append.
type numericIndex struct {
	vals []float64
	pos  []int
	// pending appends, unsorted.
	pvals []float64
	ppos  []int
}

const (
	pendingMergeMin = 64
	pendingMergeMax = 1024
)

func (idx *numericIndex) addPending(v float64, p int) {
	idx.pvals = append(idx.pvals, v)
	idx.ppos = append(idx.ppos, p)
}

func (idx *numericIndex) shouldMerge() bool {
	n := len(idx.pvals)
	if n < pendingMergeMin {
		return false
	}
	return n >= pendingMergeMax || 4*n >= len(idx.vals)
}

// mergePending sorts the pending tail and merges it with the sorted run
// into fresh arrays.
func (idx *numericIndex) mergePending() {
	np := len(idx.pvals)
	if np == 0 {
		return
	}
	order := make([]int, np)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return idx.pvals[order[a]] < idx.pvals[order[b]] })
	nv := len(idx.vals)
	vals := make([]float64, 0, nv+np)
	pos := make([]int, 0, nv+np)
	i, j := 0, 0
	for i < nv && j < np {
		pv := idx.pvals[order[j]]
		if idx.vals[i] <= pv {
			vals = append(vals, idx.vals[i])
			pos = append(pos, idx.pos[i])
			i++
		} else {
			vals = append(vals, pv)
			pos = append(pos, idx.ppos[order[j]])
			j++
		}
	}
	for ; i < nv; i++ {
		vals = append(vals, idx.vals[i])
		pos = append(pos, idx.pos[i])
	}
	for ; j < np; j++ {
		vals = append(vals, idx.pvals[order[j]])
		pos = append(pos, idx.ppos[order[j]])
	}
	idx.vals, idx.pos = vals, pos
	idx.pvals, idx.ppos = nil, nil
}

// candidateCount returns how many records fall in [lo,hi] on the numeric
// attribute: binary search on the sorted run plus a linear pass over the
// bounded pending tail.
func (idx *numericIndex) candidateCount(lo, hi float64) int {
	a := sort.SearchFloat64s(idx.vals, lo)
	b := sort.Search(len(idx.vals), func(i int) bool { return idx.vals[i] > hi })
	c := 0
	if b > a {
		c = b - a
	}
	for _, v := range idx.pvals {
		if v >= lo && v <= hi {
			c++
		}
	}
	return c
}

func (idx *numericIndex) candidates(lo, hi float64) []int {
	a := sort.SearchFloat64s(idx.vals, lo)
	b := sort.Search(len(idx.vals), func(i int) bool { return idx.vals[i] > hi })
	var main []int
	if b > a {
		main = idx.pos[a:b]
	}
	if len(idx.pvals) == 0 {
		return main
	}
	out := append(make([]int, 0, len(main)+len(idx.pvals)), main...)
	for j, v := range idx.pvals {
		if v >= lo && v <= hi {
			out = append(out, idx.ppos[j])
		}
	}
	return out
}
