package main

import (
	"strings"

	"roads/internal/query"
	"roads/internal/record"
)

// digest is an order-independent fingerprint of a set of records: the
// wrapping sum of each record's 64-bit FNV-1a hash of "owner/id", plus the
// count. A sum (unlike an XOR) does not cancel a record returned twice.
type digest struct {
	sum uint64
	n   int
}

func (d *digest) add(r *record.Record) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(r.Owner); i++ {
		h = (h ^ uint64(r.Owner[i])) * prime
	}
	h = (h ^ '/') * prime
	for i := 0; i < len(r.ID); i++ {
		h = (h ^ uint64(r.ID[i])) * prime
	}
	d.sum += h
	d.n++
}

// oracle brute-forces every query over the given records — no summaries,
// no hierarchy, no replication — and returns each answer's digest. It runs
// before the window; during it only digests are compared.
func oracle(queries []*query.Query, recs []*record.Record) []digest {
	out := make([]digest, len(queries))
	for i, q := range queries {
		for _, r := range recs {
			if q.MatchRecord(r) {
				out[i].add(r)
			}
		}
	}
	return out
}

// markerPrefix starts the ID of every record the marker writer adds.
const markerPrefix = "marker-"

// checkAnswer reports whether a resolve's records are the right answer to
// q: the records the writer never touches must be exactly the oracle's
// set, and any other record must be one the writer owns (volatile or a
// marker) and must itself satisfy the query.
func checkAnswer(q *query.Query, want digest, volatile map[string]bool, recs []*record.Record) bool {
	var got digest
	for _, r := range recs {
		if volatile[r.ID] || strings.HasPrefix(r.ID, markerPrefix) {
			if !q.MatchRecord(r) {
				return false
			}
			continue
		}
		got.add(r)
	}
	return got == want
}
