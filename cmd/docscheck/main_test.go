package main

import (
	"regexp"
	"slices"
	"testing"
)

// TestCatalogDrift runs the metric-catalog check in both directions over a
// two-row handbook.
func TestCatalogDrift(t *testing.T) {
	const ops = "## Metrics\n\n" +
		"| series | type | meaning |\n|---|---|---|\n" +
		"| `roads_children` | gauge | Current child count; see also `roads_prose_only`. |\n" +
		"| `roads_replicas` | gauge | Overlay replicas currently held. |\n"
	for _, tc := range []struct {
		name       string
		registered []string
		want       []string
	}{
		{"tables and registry agree", []string{"roads_children", "roads_replicas"}, nil},
		{"a registered series has no row", []string{"roads_children", "roads_replicas", "roads_owners"},
			[]string{`OPERATIONS.md: registered metric "roads_owners" is not documented`}},
		{"a row outlived its series", []string{"roads_children"},
			[]string{`OPERATIONS.md: the metric tables document "roads_replicas" but nothing registers it`}},
		{"both at once", []string{"roads_replicas", "roads_owners"},
			[]string{`OPERATIONS.md: registered metric "roads_owners" is not documented`,
				`OPERATIONS.md: the metric tables document "roads_children" but nothing registers it`}},
	} {
		if got := catalogDrift(ops, tc.registered); !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %q; want %q", tc.name, got, tc.want)
		}
	}
}

// TestVersionDrift runs the codec-version check over both documents'
// phrasings, a section cut out of a document, and the ways they drift.
func TestVersionDrift(t *testing.T) {
	arch := codecVersionDocs[0].re
	skill := codecVersionDocs[1].re
	const doc = "# A\n\n## 1. Packages\n\nUp to version 9, currently 3 packages.\n\n" +
		"## 2. The wire format\n\nthe version byte — currently 12. Version 12 adds a bit.\n\n## 3. Caches\n"
	for _, tc := range []struct {
		name, text string
		re         *regexp.Regexp
		want       []string
	}{
		{"the section names the version", section(doc, "## 2. "), arch, nil},
		{"another section's count is not the version", section(doc, "## 1. "), arch,
			[]string{`X.md: names codec version 3; the wire package writes 12`}},
		{"the skill names the version", "There is one codec version (12) and one TCP frame.", skill, nil},
		{"the skill names the previous version", "There is one codec version (11) and one TCP frame.", skill,
			[]string{`X.md: names codec version 11; the wire package writes 12`}},
		{"a rewording names none", "There is a single codec version, 12.", skill,
			[]string{`X.md: names no codec version ("one codec version \\((\\d+)\\)"); the wire package writes 12`}},
		{"a missing section names none", section(doc, "## 4. "), arch,
			[]string{`X.md: names no codec version ("currently (\\d+)"); the wire package writes 12`}},
	} {
		if got := versionDrift("X.md", tc.text, tc.re, 12); !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %q; want %q", tc.name, got, tc.want)
		}
	}
}

// TestStaleRefs runs the repo-reference check over code spans, a span that
// wraps a line, code fences and prose, against a tree of four paths and a
// Makefile of two targets.
func TestStaleRefs(t *testing.T) {
	tree := map[string]bool{"cmd": true, "cmd/roadsd": true, "internal/live": true, "internal/live/cluster.go": true}
	exists := func(p string) bool { return tree[p] }
	targets := map[string]bool{"tier1": true, "chaos": true}
	for _, tc := range []struct {
		name, text string
		want       []string
	}{
		{"paths and targets that exist",
			"See `cmd/`, `cmd/roadsd`, `internal/live/cluster.go:18` and `go test ./internal/live/...`; run `make tier1`.", nil},
		{"prose and globs are not references",
			"The cmd/gone tool would make sense of `BENCH_*.json` archives.", nil},
		{"a deleted command, once per document",
			"`cmd/gone` builds `go run ./cmd/gone -n 3`.",
			[]string{`X.md: names "cmd/gone", which does not exist`}},
		{"a span wrapped across a line",
			"Run `go test -race\n./internal/gone/` now.",
			[]string{`X.md: names "internal/gone", which does not exist`}},
		{"a deleted archive and a deleted target in a span",
			"`make old-target` writes `BENCH_old.json`.",
			[]string{`X.md: names "make old-target", which the Makefile does not define`,
				`X.md: names "BENCH_old.json", which does not exist`}},
		{"a code fence",
			"Text.\n\n```bash\nmake chaos && make old-target\ngo run ./cmd/roadsd\nbash bench/run.sh -smoke\n```\n",
			[]string{`X.md: names "bench/run.sh", which does not exist`,
				`X.md: names "make old-target", which the Makefile does not define`}},
	} {
		if got := staleRefs("X.md", tc.text, exists, targets); !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %q; want %q", tc.name, got, tc.want)
		}
	}
}
