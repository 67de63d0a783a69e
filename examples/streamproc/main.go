// Streamproc: the paper's motivating scenario — collaborating stream
// processing sites (System S style, ref [1]) discovering data sources
// across organizations. Each site publishes sensor/video feed descriptors;
// a planning client searches for feeds matching a processing job's needs
// using multi-dimensional queries over rate, resolution and encoding.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"roads/internal/live"
	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
	"roads/internal/transport"
)

func main() {
	// The paper's running example record:
	//   {type=camera, encoding=MPEG2, rate=100Kbps, resolution=640x480}
	// Rates and resolutions are normalized to [0,1] (1.0 = 10 Mbps / 4K).
	schema := record.MustSchema([]record.Attribute{
		{Name: "rate", Kind: record.Numeric},
		{Name: "resolution", Kind: record.Numeric},
		{Name: "freshness", Kind: record.Numeric}, // how recent the feed is
		{Name: "type", Kind: record.Categorical},
		{Name: "encoding", Kind: record.Categorical},
	})

	// One live server per site, joined into a hierarchy of degree 3: site i
	// under site (i-1)/3.
	const sites = 9
	scfg := summary.DefaultConfig()
	scfg.Buckets = 128
	tr := transport.NewChan()
	cl, err := live.StartCluster(tr, live.ClusterConfig{
		N:           sites,
		Schema:      schema,
		Summary:     scfg,
		MaxChildren: 3,
		AddrFor:     func(i int) string { return fmt.Sprintf("site%d", i) },
		JoinVia:     func(i int) int { return (i - 1) / 3 },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()

	rng := rand.New(rand.NewSource(42))
	types := []string{"camera", "microphone", "traffic-sensor"}
	encodings := map[string][]string{
		"camera":         {"MPEG2", "MPEG4", "H264"},
		"microphone":     {"PCM", "MP3"},
		"traffic-sensor": {"CSV", "XML"},
	}
	owners := make([]*policy.Owner, sites)
	for i := 0; i < sites; i++ {
		site := fmt.Sprintf("site%d", i)
		owner := policy.NewOwner(site+"-feeds", schema, nil)
		var feeds []*record.Record
		for f := 0; f < 40; f++ {
			typ := types[rng.Intn(len(types))]
			encs := encodings[typ]
			r := record.New(schema, fmt.Sprintf("%s-feed%02d", site, f), site)
			r.SetNum(0, rng.Float64())
			r.SetNum(1, rng.Float64())
			r.SetNum(2, rng.Float64())
			r.SetStr(3, typ)
			r.SetStr(4, encs[rng.Intn(len(encs))])
			feeds = append(feeds, r)
		}
		owner.SetRecords(feeds)
		if err := cl.AttachOwner(i, owner); err != nil {
			log.Fatal(err)
		}
		owners[i] = owner
	}
	if err := cl.WaitConverged(sites*40, time.Minute); err != nil {
		log.Fatal(err)
	}

	// A planning job needs high-rate MPEG2 camera feeds — the paper's
	// example query: type=camera AND rate>150Kbps AND encoding=MPEG2
	// (150 Kbps normalizes to 0.015; we ask for substantially more to
	// show dimension-based pruning).
	jobs := []*query.Query{
		query.New("ingest-hd-video",
			query.NewEq("type", "camera"),
			query.NewAbove("rate", 0.6),
			query.NewEq("encoding", "MPEG2"),
		),
		query.New("fresh-audio",
			query.NewEq("type", "microphone"),
			query.NewAbove("freshness", 0.8),
		),
		query.New("low-rate-sensors",
			query.NewEq("type", "traffic-sensor"),
			query.NewBelow("rate", 0.2),
			query.NewAbove("freshness", 0.5),
		),
	}
	planner := live.NewClient(tr, "planner")
	for _, q := range jobs {
		start := fmt.Sprintf("site%d", rng.Intn(sites))
		feeds, stats, err := planner.Resolve(start, q)
		if err != nil {
			log.Fatal(err)
		}
		want := 0
		for _, o := range owners {
			matches, err := o.Answer(q)
			if err != nil {
				log.Fatal(err)
			}
			want += len(matches)
		}
		if len(feeds) != want {
			log.Fatalf("job %s found %d feeds; the sites hold %d matches", q.ID, len(feeds), want)
		}
		fmt.Printf("job %-18s from %s: %2d feeds, %d/%d sites contacted in %v\n",
			q.ID, start, len(feeds), stats.Contacted, sites, stats.Elapsed.Round(time.Microsecond))
		for i, r := range feeds {
			if i == 3 {
				fmt.Printf("    ...\n")
				break
			}
			fmt.Printf("    %s rate=%.2f enc=%s\n", r.ID, r.Num(0), r.Str(4))
		}
	}
}
