package summary

import (
	"sort"
	"strings"
)

// Heuristic value-set condensation for hierarchical (dotted/path-structured)
// categorical values, after Portnoi & Swany's IP-summarization algorithm for
// hierarchical directory services: when a subtree of the value namespace is
// dense, its members collapse into a single prefix wildcard ("grid.site-7.*")
// instead of degenerating into a Bloom filter at moderate cardinality.
// Wildcards are conservative — MatchEq probes every dotted prefix of the
// queried value — so condensation trades precision (false positives inside
// the collapsed subtree) for size, never recall.

// wildcardSuffix marks a condensed prefix wildcard value.
const wildcardSuffix = ".*"

// IsWildcard reports whether v is a condensed prefix wildcard.
func IsWildcard(v string) bool { return strings.HasSuffix(v, wildcardSuffix) }

// WildcardPrefix returns the prefix a wildcard covers ("a.b.*" → "a.b");
// for non-wildcards it returns v itself.
func WildcardPrefix(v string) string { return strings.TrimSuffix(v, wildcardSuffix) }

// MatchesWildcard reports whether wildcard w covers value v: "p.*" matches
// p itself and everything under "p.".
func MatchesWildcard(w, v string) bool {
	if !IsWildcard(w) {
		return w == v
	}
	p := WildcardPrefix(w)
	return v == p || strings.HasPrefix(v, p+".")
}

// parentPrefix strips the last dotted segment: "a.b.c" → "a.b", "a" → "".
// For wildcards it strips the covered prefix's last segment ("a.b.*" → "a").
func parentPrefix(v string) string {
	v = WildcardPrefix(v)
	i := strings.LastIndexByte(v, '.')
	if i < 0 {
		return ""
	}
	return v[:i]
}

// Condense collapses sibling values into prefix wildcards until at most
// maxLen distinct values remain (or nothing more is collapsible): each
// round groups values by parent prefix, picks the densest group with at
// least two members (ties broken by prefix for determinism), and replaces
// the group with parent+".*" carrying the summed count. Wildcards collapse
// upward the same way ("a.b.*"+"a.c.*" → "a.*"). Returns whether the set
// changed. The algorithm is deterministic, so condensing a merge of exact
// partials equals condensing a monolithic rebuild.
func (s *ValueSet) Condense(maxLen int) bool {
	if maxLen <= 0 || len(s.Counts) <= maxLen {
		return false
	}
	changed := false
	for len(s.Counts) > maxLen {
		groups := make(map[string][]string)
		for v := range s.Counts {
			if p := parentPrefix(v); p != "" {
				groups[p] = append(groups[p], v)
			}
		}
		best := ""
		for p, members := range groups {
			if len(members) < 2 {
				continue
			}
			if best == "" || len(members) > len(groups[best]) ||
				(len(members) == len(groups[best]) && p < best) {
				best = p
			}
		}
		if best == "" {
			break
		}
		members := groups[best]
		sort.Strings(members)
		var total uint32
		for _, v := range members {
			total += s.Counts[v]
			delete(s.Counts, v)
			if IsWildcard(v) {
				s.wild--
			}
		}
		w := best + wildcardSuffix
		if s.Counts[w] == 0 {
			s.wild++
		}
		s.Counts[w] += total
		changed = true
	}
	return changed
}

// Condense applies value-set condensation (Cfg.CondenseAbove) to every
// categorical attribute. It must run before ComputeVersion so the stamped
// version reflects the condensed content. Returns whether anything changed.
func (sum *Summary) Condense() bool {
	if sum.Cfg.CondenseAbove <= 0 {
		return false
	}
	changed := false
	for _, s := range sum.Sets {
		if s != nil && s.Condense(sum.Cfg.CondenseAbove) {
			changed = true
		}
	}
	return changed
}
