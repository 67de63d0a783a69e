package main

import (
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
