// Command roadsd runs one live ROADS server over TCP. Servers form a
// hierarchy by joining a seed; each can host synthetic resource records
// through a co-located owner.
//
// Start a root:
//
//	roadsd -id srv0 -listen 127.0.0.1:7000
//
// Join more servers:
//
//	roadsd -id srv1 -listen 127.0.0.1:7001 -join 127.0.0.1:7000 -records 200
//
// Then query any of them with roadsctl.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"roads/internal/live"
	"roads/internal/obs"
	"roads/internal/policy"
	"roads/internal/record"
	"roads/internal/summary"
	"roads/internal/transport"
	"roads/internal/wire"
	"roads/internal/workload"
)

func main() {
	id := flag.String("id", "", "server ID (unique in the federation)")
	listen := flag.String("listen", "127.0.0.1:7000", "listen address")
	join := flag.String("join", "", "seed server address to join (empty = start as root)")
	attrs := flag.Int("attrs", 16, "schema attributes (4 per distribution family)")
	records := flag.Int("records", 0, "synthetic records to host via a co-located owner")
	buckets := flag.Int("buckets", 1000, "histogram buckets per attribute in the summaries this server builds (servers of one federation may differ)")
	degree := flag.Int("degree", 8, "max children")
	tick := flag.Duration("tick", 2*time.Second, "maintenance period t_s: summary refresh, report to the parent, replica push; a child is dead after 4 periods without a report, a replica after 16 unrenewed ones")
	var mergeSeeds stringsFlag
	flag.Var(&mergeSeeds, "merge-seed", "well-known address this server probes for a foreign root while it is a root itself, to detect and merge a split brain (repeatable; the -join seed is remembered automatically)")
	seed := flag.Int64("seed", 0, "workload seed (0 = derive from ID)")
	load := flag.String("load", "", "JSON-lines records file to host (overrides -records)")
	schemaFile := flag.String("schema", "", "schema JSON file (required with -load; default synthetic aN schema otherwise)")
	httpAddr := flag.String("http", "", "observability sidecar listen address, e.g. :9090 (serves /metrics, /statusz, /debug/pprof/; empty = disabled; bind to a trusted interface — pprof exposes profiles)")
	flag.Parse()

	if *id == "" {
		fmt.Fprintln(os.Stderr, "roadsd: -id is required")
		os.Exit(2)
	}
	if *attrs%4 != 0 || *attrs <= 0 {
		fmt.Fprintln(os.Stderr, "roadsd: -attrs must be a positive multiple of 4")
		os.Exit(2)
	}

	var schema *record.Schema
	var hosted []*record.Record
	if *load != "" {
		if *schemaFile == "" {
			fmt.Fprintln(os.Stderr, "roadsd: -load requires -schema")
			os.Exit(2)
		}
		schemaData, err := os.ReadFile(*schemaFile)
		if err != nil {
			log.Fatal(err)
		}
		schema, err = record.UnmarshalSchema(schemaData)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		hosted, err = record.ReadJSON(f, schema)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		wcfg := workload.Config{Nodes: 1, RecordsPerNode: max(1, *records), AttrsPerDist: *attrs / 4}
		rng := rand.New(rand.NewSource(seedFor(*seed, *id)))
		w, err := workload.Generate(wcfg, rng)
		if err != nil {
			log.Fatal(err)
		}
		schema = w.Schema
		if *records > 0 {
			hosted = w.PerNode[0]
		}
	}

	cfg := live.DefaultConfig(*id, *listen, schema)
	cfg.Summary = summary.Config{Buckets: *buckets, Min: 0, Max: 1, Categorical: summary.UseValueSet}
	cfg.MaxChildren = *degree
	cfg.AggregateEvery = *tick
	cfg.MergeSeeds = mergeSeeds

	reg := obs.NewRegistry()
	tr := transport.NewTCP()
	tr.RegisterMetrics(reg)
	wire.RegisterMetrics(reg)
	cfg.Metrics = reg
	srv, err := live.NewServer(cfg, tr)
	if err != nil {
		log.Fatal(err)
	}
	if *httpAddr != "" {
		h := obs.Handler(reg, func() any { return srv.StatusSnapshot() })
		hsrv := &http.Server{Addr: *httpAddr, Handler: h}
		go func() {
			if err := hsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatalf("roadsd %s: http sidecar: %v", *id, err)
			}
		}()
		log.Printf("roadsd %s: observability sidecar on %s (/metrics /statusz /debug/pprof/)", *id, *httpAddr)
	}
	if len(hosted) > 0 {
		owner := policy.NewOwner(*id+"-owner", schema, nil)
		owner.SetRecords(hosted)
		if err := srv.AttachOwner(owner); err != nil {
			log.Fatal(err)
		}
		log.Printf("roadsd %s: hosting %d records", *id, len(hosted))
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	log.Printf("roadsd %s: listening on %s", *id, *listen)
	if *join != "" {
		if err := srv.Join(*join); err != nil {
			log.Fatalf("roadsd %s: join: %v", *id, err)
		}
		log.Printf("roadsd %s: joined hierarchy via %s (parent %s)", *id, *join, srv.ParentID())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("roadsd %s: leaving", *id)
	srv.Stop()
	log.Printf("roadsd %s: transport %v", *id, tr.Stats())
	_ = tr.Close()
}

// stringsFlag collects a repeatable flag's values.
type stringsFlag []string

func (f *stringsFlag) String() string { return fmt.Sprint([]string(*f)) }

func (f *stringsFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func seedFor(seed int64, id string) int64 {
	if seed != 0 {
		return seed
	}
	var h int64 = 1469598103934665603
	for _, c := range id {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
