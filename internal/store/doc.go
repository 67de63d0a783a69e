// Package store is the indexed record store behind the centralized
// repository (internal/central) and SWORD's ring members (internal/sword).
// It plays the role of the DB2 backend in the paper's prototype: records
// are appended to it and searched, each search picks its most selective
// per-attribute index so matching is faster than a full scan, and a
// configurable retrieval cost per matched record lets the Fig. 11
// response-time experiment model backend work that pure network
// simulation cannot.
//
// A store is one RWMutex, one append-only record slice and one set of
// indexes. Appends land in the slice's capacity headroom, so N one-record
// Adds cost O(N), and published elements are never rewritten, so a
// Records snapshot is safe to walk while appends continue. Appends extend
// built indexes in place. Resource owners keep their records and summary
// in policy.Owner, not here (see DESIGN.md §11).
package store
