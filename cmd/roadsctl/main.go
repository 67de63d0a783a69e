// Command roadsctl queries a live ROADS federation. Predicates are given
// as attr=lo:hi (numeric range) or attr=value (categorical equality),
// matching the default aN attribute names of roadsd's synthetic schema.
//
//	roadsctl -server 127.0.0.1:7001 -q "a0=0.2:0.4" -q "a5=0.1:0.6"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"roads/internal/live"
	"roads/internal/query"
	"roads/internal/transport"
	"roads/internal/wire"
)

type predList []query.Predicate

func (p *predList) String() string { return fmt.Sprint(*p) }

func (p *predList) Set(v string) error {
	pred, err := query.ParsePredicate(v)
	if err != nil {
		return err
	}
	*p = append(*p, pred)
	return nil
}

func main() {
	server := flag.String("server", "127.0.0.1:7000", "any ROADS server address (the overlay lets queries start anywhere)")
	requester := flag.String("as", "anonymous", "requester identity presented to owners' sharing policies")
	limit := flag.Int("limit", 20, "max records to print (0 = all)")
	status := flag.Bool("status", false, "print the server's status snapshot instead of querying")
	deadline := flag.Duration("deadline", 10*time.Second, "overall resolve deadline; servers shed work that cannot meet it")
	retries := flag.Int("retries", 1, "retries per failed server contact before failing over to alternate replica holders")
	trace := flag.Bool("trace", false, "trace the resolve: print every server contact with its redirect path, per-hop latency, and the server's summary-match decisions")
	priority := flag.String("priority", "normal", "admission priority class claimed on the wire: low, normal or high (servers may pin a different class per requester)")
	var preds predList
	flag.Var(&preds, "q", "predicate attr=lo:hi, attr=value, attr>v or attr<v (repeatable)")
	flag.Parse()

	if *status {
		client := live.NewClient(transport.NewTCP(), *requester)
		st, err := client.Status(*server)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roadsctl:", err)
			os.Exit(1)
		}
		fmt.Printf("server %s at %s\n", st.ID, st.Addr)
		if st.IsRoot {
			fmt.Println("  role: root")
		} else {
			fmt.Printf("  parent: %s (root path %v)\n", st.ParentID, st.RootPath)
		}
		fmt.Printf("  children: %d, overlay replicas: %d, owners: %d\n", st.Children, st.Replicas, st.Owners)
		fmt.Printf("  records: %d local, %d in branch\n", st.LocalRecords, st.BranchRecords)
		fmt.Printf("  served: %d queries (%d shed over budget), %d redirects, %d summary reports\n",
			st.QueriesServed, st.QueriesShed, st.RedirectsIssued, st.SummariesRecv)
		if st.SummaryRebuildsSkipped+st.ReportsSuppressed+st.ReplicaPushDelta+st.ReplicaPushFull > 0 {
			fmt.Printf("  dissemination: %d rebuilds skipped, %d reports suppressed, %d delta / %d full push entries\n",
				st.SummaryRebuildsSkipped, st.ReportsSuppressed, st.ReplicaPushDelta, st.ReplicaPushFull)
		}
		if tr := st.Transport; tr != nil {
			fmt.Printf("  transport: %d calls (%d errors, %d retries), %d in-flight\n",
				tr.Calls, tr.Errors, tr.Retries, tr.InFlight)
			fmt.Printf("    conns: %d dialed, %d reused", tr.Dials, tr.Reuses)
			if tr.Dials+tr.Reuses > 0 {
				fmt.Printf(" (%.1f%% pooled)", 100*float64(tr.Reuses)/float64(tr.Dials+tr.Reuses))
			}
			fmt.Println()
			fmt.Printf("    bytes: %d sent, %d received; call latency p50 <= %dµs, p99 <= %dµs\n",
				tr.BytesSent, tr.BytesRecv, tr.P50Micros, tr.P99Micros)
		}
		return
	}
	if len(preds) == 0 {
		fmt.Fprintln(os.Stderr, "roadsctl: at least one -q predicate is required (or -status)")
		os.Exit(2)
	}
	q := query.New("roadsctl", preds...)
	client := live.NewClient(transport.NewTCP(), *requester)
	client.Retries = *retries
	client.Trace = *trace
	// Marks the request wire-v5 even at the default (normal) priority, so
	// an admission-controlled server sheds an over-budget requester to a
	// coarse answer instead of the pre-v5 error; old servers still work
	// via the client's per-address downgrade.
	client.CacheResults = true
	switch *priority {
	case "low":
		client.Priority = wire.PriorityLow
	case "normal":
		client.Priority = wire.PriorityNormal
	case "high":
		client.Priority = wire.PriorityHigh
	default:
		fmt.Fprintf(os.Stderr, "roadsctl: -priority must be low, normal or high, got %q\n", *priority)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *deadline)
	defer cancel()
	recs, stats, err := client.ResolveContext(ctx, *server, q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roadsctl:", err)
		os.Exit(1)
	}
	fmt.Printf("query: %s\n", q)
	fmt.Printf("matched %d records via %d servers in %v (estimated coverage %.0f%%)\n",
		len(recs), stats.Contacted, stats.Elapsed.Round(0), 100*stats.Coverage)
	if stats.Coarse > 0 {
		fmt.Printf("degraded: %d server(s) shed this query to a coarse summary-only answer (~%.0f matching records estimated); retry later or raise -priority\n",
			stats.Coarse, stats.CoarseEstimate)
	}
	if stats.Retried > 0 || stats.FailedOver > 0 {
		fmt.Printf("resilience: %d retries, %d failovers to alternate replica holders\n",
			stats.Retried, stats.FailedOver)
	}
	if stats.Failed > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d of %d contacted servers failed; results may be incomplete\n",
			stats.Failed, stats.Contacted+stats.Failed)
		for _, e := range stats.Errors {
			fmt.Fprintln(os.Stderr, "  ", e)
		}
	}
	if *trace {
		printTrace(stats)
	}
	for i, r := range recs {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... and %d more\n", len(recs)-*limit)
			break
		}
		fmt.Println(" ", r)
	}
}

// printTrace renders the resolve's hop log: one line per server contact in
// completion order, with the redirect path that led there, the round-trip
// latency, and — when the server answered — its evaluation trace.
func printTrace(stats live.QueryStats) {
	fmt.Printf("trace %s: %d hops\n", stats.TraceID, len(stats.Hops))
	for i, h := range stats.Hops {
		who := h.ServerID
		if who == "" {
			who = h.Addr
		}
		path := "(entry)"
		if len(h.Path) > 0 {
			path = ""
			for j, p := range h.Path {
				if j > 0 {
					path += " > "
				}
				path += p
			}
		}
		fmt.Printf("  hop %d [%s] %s (%s) via %s, rtt %v", i+1, h.Kind, who, h.Addr, path, h.RTT.Round(time.Microsecond))
		if h.Attempts > 1 {
			fmt.Printf(" (%d attempts)", h.Attempts)
		}
		fmt.Println()
		if h.Err != "" {
			fmt.Printf("        failed: %s\n", h.Err)
			continue
		}
		fmt.Printf("        returned %d records, %d redirects", h.Records, h.Redirects)
		if ti := h.Info; ti != nil {
			fmt.Printf("; eval %dµs, %d local matches", ti.EvalMicros, ti.LocalRecords)
			if len(ti.MatchedChildren) > 0 {
				fmt.Printf("; matched children %v of %d", ti.MatchedChildren, ti.Children)
			}
			if len(ti.MatchedReplicas) > 0 {
				fmt.Printf("; matched replicas %v of %d", ti.MatchedReplicas, ti.Replicas)
			}
		}
		fmt.Println()
	}
}
