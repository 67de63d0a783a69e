package summary

import (
	"fmt"
	"testing"

	"roads/internal/record"
)

// FuzzMergeKeepsMatches checks the no-false-negative contract across a merge
// of two geometries. Every three bytes of data make one record (two numeric
// values in [0,1) and a categorical value); records alternate between
// two summaries whose bucket counts are fuzzed separately, one of them
// optionally Bloom-summarized. The two are merged in both orders, and every
// input record must still match a point query on its own values in both
// results.
func FuzzMergeKeepsMatches(f *testing.F) {
	f.Add([]byte{0, 0, 0, 255, 255, 255, 17, 34, 51, 68, 85, 102}, uint8(8), uint8(13), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(1), uint8(200), true)
	f.Add([]byte{128, 128, 16, 129, 127, 17, 130, 126, 18, 131, 125, 19}, uint8(63), uint8(64), false)
	f.Fuzz(func(t *testing.T, data []byte, bucketsA, bucketsB uint8, bloomA bool) {
		s := mixedSchema()
		cfgA, cfgB := DefaultConfig(), DefaultConfig()
		cfgA.Buckets, cfgB.Buckets = 1+int(bucketsA), 1+int(bucketsB)
		if bloomA {
			cfgA.Categorical, cfgA.BloomBits, cfgA.BloomHashes = UseBloom, 128, 3
		}
		var recs, recsA, recsB []*record.Record
		for i := 0; i+3 <= len(data); i += 3 {
			r := mkRec(s, float64(data[i])/256, float64(data[i+1])/256,
				fmt.Sprintf("s%d.n%d", data[i+2]>>4, data[i+2]&15))
			recs = append(recs, r)
			if len(recs)%2 == 1 {
				recsA = append(recsA, r)
			} else {
				recsB = append(recsB, r)
			}
		}
		a, err := FromRecords(s, cfgA, recsA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FromRecords(s, cfgB, recsB)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range [][2]*Summary{{a, b}, {b, a}} {
			merged := order[0].Clone()
			if err := merged.Merge(order[1]); err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if !merged.MatchRange(0, r.Num(0), r.Num(0)) || !merged.MatchRange(1, r.Num(1), r.Num(1)) ||
					!merged.MatchEq(2, r.Str(2)) {
					t.Fatalf("%d-bucket into %d-bucket merge lost record (%g, %g, %q)",
						len(order[1].Hists[0].Counts), len(order[0].Hists[0].Counts), r.Num(0), r.Num(1), r.Str(2))
				}
			}
		}
	})
}
