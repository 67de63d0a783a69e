package main

import (
	"fmt"
	"runtime"
	"time"

	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/summary"
	"roads/internal/transport"
	"roads/internal/wire"
)

// probeQueries is how many of the workload's queries the store and summary
// timings loop over.
const probeQueries = 256

// timeEach runs fn reps times and returns the mean cost of one call in
// nanoseconds. The calls timed below are too large to inline, so dropping
// their results does not let the compiler drop the calls.
func timeEach(reps int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(reps)
}

// layerProbes times calls into each layer's public functions, after the
// window and after the federation has stopped, so nothing else runs.
func layerProbes(w workloadSpec, in *inputs, f *federation, pr *probe, put func(string, float64, int)) error {
	wireProbes(pr, put)
	storeProbes(in, put)
	if err := summaryProbes(in, f, put); err != nil {
		return err
	}
	rtt, err := echoRTT(w.TCP)
	if err != nil {
		return fmt.Errorf("echo round trip: %w", err)
	}
	put("transport.echo_rtt_us", rtt, echoCalls)
	return nil
}

// wireProbes times wire.AppendEncode and wire.Decode on the messages the
// probe captured from the live run. A kind the run never sent reports 0s.
func wireProbes(pr *probe, put func(string, float64, int)) {
	for kind, name := range captureKinds {
		encoded := pr.captured[kind] // the run is over: no more writers
		var msgs []*wire.Message
		var bytes, encodeNs, decodeNs, allocs float64
		for _, data := range encoded {
			m, err := wire.Decode(data)
			if err != nil {
				continue // cannot happen: the probe encoded it itself
			}
			msgs = append(msgs, m)
			bytes += float64(len(data))
		}
		n := len(msgs)
		if n > 0 {
			const rounds = 20
			buf := make([]byte, 0, 1<<16)
			encodeNs = timeEach(rounds*n, func(i int) {
				buf, _ = wire.AppendEncode(buf[:0], msgs[i%n])
			})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decodeNs = timeEach(rounds*n, func(i int) {
				_, _ = wire.Decode(encoded[i%n])
			})
			runtime.ReadMemStats(&after)
			allocs = float64(after.Mallocs-before.Mallocs) / float64(rounds*n)
			bytes /= float64(n)
		}
		put("wire.encode_"+name+"_ns", encodeNs, n)
		put("wire.decode_"+name+"_ns", decodeNs, n)
		put("wire."+name+"_bytes", bytes, n)
		if kind == wire.KindQueryReply {
			put("wire.decode_reply_allocs", allocs, n)
		}
	}
}

// storeProbes times the owner store on a detached copy of owner 0.
func storeProbes(in *inputs, put func(string, float64, int)) {
	o := policy.NewOwner("probe-owner", in.data.Schema, nil)
	recs := in.data.PerNode[0]
	o.SetRecords(recs)
	qs := probeSet(in.queries)
	put("store.search_us", timeEach(20*len(qs), func(i int) {
		_, _ = o.Answer(qs[i%len(qs)])
	})/1e3, len(qs))

	_, _ = o.ExportSummary(in.sumCfg)
	put("store.export_clean_us", timeEach(2000, func(int) {
		_, _ = o.ExportSummary(in.sumCfg)
	})/1e3, 2000)

	const writes = 500
	var update, dirty time.Duration
	for i := 0; i < writes; i++ {
		r := recs[i%len(recs)].Clone()
		r.SetNum(0, float64(i%97)/97)
		t := time.Now()
		o.UpdateRecords(r)
		update += time.Since(t)
		t = time.Now()
		_, _ = o.ExportSummary(in.sumCfg)
		dirty += time.Since(t)
	}
	put("store.update_us", float64(update)/writes/1e3, writes)
	put("store.export_dirty_us", float64(dirty)/writes/1e3, writes)
}

// summaryProbes times the summary algebra on the federation's real
// exports: merging every owner's export gives the content of the root's
// branch summary, which is what a broad query is matched against first.
func summaryProbes(in *inputs, f *federation, put func(string, float64, int)) error {
	exports := make([]*summary.Summary, len(f.owners))
	for i, o := range f.owners {
		var err error
		if exports[i], err = o.ExportSummary(in.sumCfg); err != nil {
			return fmt.Errorf("export summary of %s: %w", o.ID, err)
		}
	}
	var branch *summary.Summary
	const rounds = 10
	start := time.Now()
	for r := 0; r < rounds; r++ {
		branch = exports[0].Clone()
		for _, s := range exports[1:] {
			if err := branch.Merge(s); err != nil {
				return fmt.Errorf("merge summary of %s: %w", s.Origin, err)
			}
		}
	}
	merges := rounds * len(exports)
	put("summary.merge_us", float64(time.Since(start))/float64(merges)/1e3, merges)

	recs := in.data.PerNode[0]
	put("summary.from_records_us", timeEach(200, func(int) {
		_, _ = summary.FromRecords(in.data.Schema, in.sumCfg, recs)
	})/1e3, 200)
	put("summary.version_ns", timeEach(2000, func(int) {
		_ = branch.ComputeVersion()
	}), 2000)
	put("summary.branch_bytes", float64(branch.SizeBytes()), 1)
	qs := probeSet(in.queries)
	put("summary.match_ns", timeEach(200*len(qs), func(i int) {
		_ = qs[i%len(qs)].MatchSummary(branch)
	}), len(qs))
	return nil
}

func probeSet(qs []*query.Query) []*query.Query {
	if len(qs) > probeQueries {
		qs = qs[:probeQueries]
	}
	return qs
}

const echoCalls = 2000

// echoRTT is the median round trip (µs) of a bare Call carrying a small
// message to a handler that answers at once, on a fresh transport of the
// workload's kind: the floor under every query call.
func echoRTT(tcp bool) (float64, error) {
	var tr transport.Transport = transport.NewChan()
	addr := "echo"
	if tcp {
		t := transport.NewTCP()
		defer t.Close()
		tr, addr = t, fmt.Sprintf("127.0.0.1:%d", portBlock())
	}
	ln, err := tr.Listen(addr, func(m *wire.Message) *wire.Message {
		return &wire.Message{Kind: wire.KindAck, From: "echo"}
	})
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	req := &wire.Message{Kind: wire.KindAck, From: "bench"}
	rtts := make([]float64, 0, echoCalls)
	for i := 0; i < echoCalls+200; i++ {
		t := time.Now()
		if _, err := tr.Call(addr, req); err != nil {
			return 0, err
		}
		if i >= 200 { // the first calls dial and warm the pool
			rtts = append(rtts, float64(time.Since(t))/1e3)
		}
	}
	return median(rtts), nil
}
