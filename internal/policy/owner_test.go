package policy

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"roads/internal/record"
	"roads/internal/summary"
)

// ownerSchema has two numeric attributes and one categorical whose dotted
// values condense under CondenseAbove.
func ownerSchema() *record.Schema {
	return record.MustSchema([]record.Attribute{
		{Name: "a0", Kind: record.Numeric},
		{Name: "a1", Kind: record.Numeric},
		{Name: "site", Kind: record.Categorical},
	})
}

func randomRecord(s *record.Schema, id string, rng *rand.Rand) *record.Record {
	r := record.New(s, id, "own")
	r.SetNum(0, rng.Float64())
	r.SetNum(1, rng.Float64())
	r.SetStr(2, fmt.Sprintf("net.%d.%d", rng.Intn(3), rng.Intn(6)))
	return r
}

// TestOwnerExportEqualsFromRecords is the owner's summary contract: after
// every write of a seeded random schedule — SetRecords, AddRecords with
// duplicate IDs, UpdateRecords of present, absent and repeated IDs,
// RemoveRecords of present and absent IDs, one view change and one config
// change — the export carries the version and record count of
// summary.FromRecords over Records(), stamped the same way. Equal versions
// are what keep the incrementally kept summary invisible on the wire. In
// value-set mode removals subtract; in Bloom mode they force rebuilds.
func TestOwnerExportEqualsFromRecords(t *testing.T) {
	for _, tc := range []struct {
		name            string
		cfg             summary.Config
		removalsRebuild bool
	}{
		{"value-set", summary.Config{Buckets: 32, Min: 0, Max: 1, Categorical: summary.UseValueSet, CondenseAbove: 8}, false},
		{"bloom", summary.Config{Buckets: 32, Min: 0, Max: 1, Categorical: summary.UseBloom, BloomBits: 256, BloomHashes: 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := ownerSchema()
			o := NewOwner("own", s, nil)
			rng := rand.New(rand.NewSource(42))
			cfg := tc.cfg
			var ids []string // every ID issued, live or not
			fresh := func() *record.Record {
				id := fmt.Sprintf("r%04d", len(ids))
				ids = append(ids, id)
				return randomRecord(s, id, rng)
			}
			known := func() string { return ids[rng.Intn(len(ids))] }
			o.SetRecords([]*record.Record{fresh(), fresh(), fresh()})

			for step := 0; step < 400; step++ {
				switch {
				case step == 150:
					o.Policy.SetView("guest", View{Name: "guest"})
				case step == 250:
					cfg.Buckets = 16
				case step%97 == 96:
					recs := make([]*record.Record, 5+rng.Intn(20))
					for i := range recs {
						recs[i] = fresh()
					}
					o.SetRecords(recs)
				default:
					switch rng.Intn(4) {
					case 0: // append, sometimes under an ID already present
						recs := []*record.Record{fresh(), fresh()}
						if rng.Intn(3) == 0 {
							recs = append(recs, randomRecord(s, known(), rng))
						}
						o.AddRecords(recs...)
					case 1: // upsert present, absent and repeated IDs
						id := known()
						o.UpdateRecords(randomRecord(s, id, rng), fresh(), randomRecord(s, id, rng))
					case 2: // remove present and absent IDs
						o.RemoveRecords(known(), known(), "absent")
					case 3: // remove only absent IDs
						o.RemoveRecords("absent", "never")
					}
				}
				got, err := o.ExportSummary(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := summary.FromRecords(s, cfg, o.Records())
				if err != nil {
					t.Fatal(err)
				}
				want.PolicyRev = o.Policy.Rev()
				want.ComputeVersion()
				if got.Version != want.Version || got.Records != want.Records || got.Origin != "own" {
					t.Fatalf("step %d: export version %d over %d records from %q; FromRecords gives version %d over %d",
						step, got.Version, got.Records, got.Origin, want.Version, want.Records)
				}
			}
			// The five SetRecords and the config change rebuild the summary;
			// in Bloom mode so does the export after every removal.
			const setsAndConfig = 6
			if n := o.StoreStats().ShardRebuilds; (n > setsAndConfig) != tc.removalsRebuild || n < setsAndConfig {
				t.Fatalf("%d summary rebuilds; want %d, plus removals' in Bloom mode: %v", n, setsAndConfig, tc.removalsRebuild)
			}
		})
	}
}

// TestRecordsCopyOnWrite proves the contract behind the zero-copy
// Records(): a snapshot taken at any moment never changes. A writer
// rewrites, removes, re-adds and replaces records of a 64-record owner
// while readers walk their snapshots twice; both walks must see the same
// records. Under -race this also proves the readers share no written
// memory with the writer.
func TestRecordsCopyOnWrite(t *testing.T) {
	s := camSchema()
	o := NewOwner("own", s, nil)
	mk := func(i int) *record.Record { return rec(s, fmt.Sprintf("r%02d", i%64), float64(i%10)/10, "x") }
	for i := 0; i < 64; i++ {
		o.AddRecords(mk(i))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap := o.Records()
				first := append([]*record.Record(nil), snap...)
				for i, r := range snap {
					if r != first[i] {
						t.Errorf("snapshot of %d records changed at %d", len(snap), i)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 4000 && !t.Failed(); i++ {
		switch i % 4 {
		case 0:
			o.UpdateRecords(mk(i))
		case 1:
			o.RemoveRecords(mk(i).ID)
		case 2:
			o.AddRecords(mk(i - 1))
		case 3:
			if i%400 == 3 {
				o.SetRecords(o.Records())
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestGenerationAdvances pins the generation contract export caches rely
// on: an unchanged owner keeps its generation, every write moves it, and
// removing only absent IDs is no write.
func TestGenerationAdvances(t *testing.T) {
	s := camSchema()
	o := NewOwner("own", s, nil)
	g := o.Generation()
	for _, w := range []struct {
		name  string
		write func()
		moves bool
	}{
		{"nothing", func() {}, false},
		{"AddRecords", func() { o.AddRecords(rec(s, "a", 0.1, "x")) }, true},
		{"UpdateRecords", func() { o.UpdateRecords(rec(s, "a", 0.2, "x")) }, true},
		{"RemoveRecords of an absent ID", func() { o.RemoveRecords("absent") }, false},
		{"RemoveRecords", func() { o.RemoveRecords("a") }, true},
		{"SetRecords", func() { o.SetRecords(nil) }, true},
	} {
		w.write()
		if moved := o.Generation() != g; moved != w.moves {
			t.Fatalf("%s: generation moved %v, want %v", w.name, moved, w.moves)
		}
		g = o.Generation()
	}
}

// BenchmarkOwnerWriteExport times an owner's write path end to end: each
// iteration rewrites one record and exports, the work an owner does per
// write before its server can propagate it. It uses only the Owner API.
func BenchmarkOwnerWriteExport(b *testing.B) {
	s := record.DefaultSchema(6)
	for _, n := range []int{50, 500, 5000} {
		for _, buckets := range []int{64, 1000} {
			b.Run(fmt.Sprintf("records=%d/buckets=%d", n, buckets), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				mk := func(i int) *record.Record {
					r := record.New(s, fmt.Sprintf("r%05d", i), "own")
					for j := 0; j < 6; j++ {
						r.SetNum(j, rng.Float64())
					}
					return r
				}
				recs := make([]*record.Record, n)
				for i := range recs {
					recs[i] = mk(i)
				}
				o := NewOwner("own", s, nil)
				o.SetRecords(recs)
				cfg := summary.DefaultConfig()
				cfg.Buckets = buckets
				if _, err := o.ExportSummary(cfg); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o.UpdateRecords(mk(i % n))
					if _, err := o.ExportSummary(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
