package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"syscall"
	"time"

	"roads/internal/live"
	"roads/internal/loadgen"
	"roads/internal/policy"
	"roads/internal/query"
	"roads/internal/record"
	"roads/internal/summary"
	"roads/internal/transport"
	"roads/internal/workload"
)

// inputs is everything a run derives from the seed before it touches the
// system: the records, the query pool and the oracle's expected digests.
type inputs struct {
	data     *workload.Workload
	queries  []*query.Query
	want     []digest        // oracle digest per query, over stable records
	volatile map[string]bool // record IDs the writer may rewrite
	total    uint64
	sumCfg   summary.Config
}

// dataSeed generates every federation's records. The records are the same
// on every run and the seed draws the traffic — the query pool and hot set,
// entry servers, the writer's choices — because 64 owners are too few
// draws to average out: with seeded records, bytes and contacts per query
// moved 4–8% from seed to seed, more than the bound on a regression.
const dataSeed = 2008

// generate builds the inputs for one workload from the seed alone.
func generate(w workloadSpec, seed int64) (*inputs, error) {
	data, err := workload.Generate(workload.Config{
		Nodes:          w.Servers,
		RecordsPerNode: recordsPerOwner,
		AttrsPerDist:   attrsPerDist,
	}, rand.New(rand.NewSource(dataSeed)))
	if err != nil {
		return nil, err
	}
	queries, err := data.GenQueries(w.Pool, queryDims, queryRange, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	in := &inputs{
		data:     data,
		queries:  queries,
		volatile: map[string]bool{},
		total:    uint64(data.TotalRecords()),
		sumCfg:   summary.DefaultConfig(),
	}
	in.sumCfg.Buckets = summaryBuckets
	var stable []*record.Record
	for _, recs := range data.PerNode {
		for k, r := range recs {
			if w.Writer && k%volatileEvery == 0 {
				in.volatile[r.ID] = true
			} else {
				stable = append(stable, r)
			}
		}
	}
	in.want = oracle(queries, stable)
	return in, nil
}

// TCP listen addresses come from fixed blocks of ports below Linux's
// ephemeral range (32768+), so no pooled outgoing connection can be handed
// a port a server is about to listen on — the failure the
// listen-close-relisten trick in examples/livecluster hit at 64 servers.
// Every federation takes the next block, and a block that turns out to be
// taken (EADDRINUSE) is skipped.
const (
	tcpPortBase  = 21000
	tcpBlockSize = 512 // more than the largest TCP federation
	tcpBlocks    = 20  // 21000 … 31239
	tcpAttempts  = 4
)

var nextPortBlock atomic.Int32

// portBlock returns the first port of the next block.
func portBlock() int {
	return tcpPortBase + int(nextPortBlock.Add(1)-1)%tcpBlocks*tcpBlockSize
}

// federation is one built cluster with its owners.
type federation struct {
	tr     transport.Transport // what servers and clients call through
	stats  transport.Statser   // the bare transport's counters
	closer io.Closer           // non-nil for TCP: tears pooled conns down
	cl     *live.Cluster
	owners []*policy.Owner
	addrs  []string
	setup  time.Duration
	// stopped makes stop idempotent, so a run can stop the federation
	// before its after-window work and still defer stop for error paths.
	stopped bool
}

// wrapFn lets the traced run put its probe between the system and the bare
// transport; nil builds on the bare transport.
type wrapFn func(transport.Transport) transport.Transport

// build starts the workload's federation through the public API and waits
// for it to converge. The timed part is StartCluster + AttachOwner for all
// + WaitConverged.
func build(w workloadSpec, in *inputs, wrap wrapFn) (*federation, error) {
	parents, err := loadgen.Placement(w.Servers, fanOut, 0)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < tcpAttempts; attempt++ {
		f := &federation{addrs: make([]string, w.Servers)}
		base := portBlock()
		for i := range f.addrs {
			if w.TCP {
				f.addrs[i] = fmt.Sprintf("127.0.0.1:%d", base+i)
			} else {
				f.addrs[i] = fmt.Sprintf("srv%03d", i)
			}
		}
		if w.TCP {
			tcp := transport.NewTCP()
			f.tr, f.stats, f.closer = tcp, tcp, tcp
		} else {
			ch := transport.NewChan()
			f.tr, f.stats = ch, ch
		}
		if wrap != nil {
			f.tr = wrap(f.tr)
		}
		f.owners = make([]*policy.Owner, w.Servers)
		for i := range f.owners {
			f.owners[i] = policy.NewOwner(fmt.Sprintf("owner%d", i), in.data.Schema, nil)
			f.owners[i].SetRecords(in.data.PerNode[i])
		}

		start := time.Now()
		f.cl, err = live.StartCluster(f.tr, live.ClusterConfig{
			N:           w.Servers,
			Schema:      in.data.Schema,
			Summary:     in.sumCfg,
			MaxChildren: fanOut,
			AddrFor:     func(i int) string { return f.addrs[i] },
			JoinVia:     func(i int) int { return parents[i] },
			Tick:        w.Tick,
		})
		if err != nil {
			f.closeTransport()
			lastErr = fmt.Errorf("start cluster: %w", err)
			if w.TCP && errors.Is(err, syscall.EADDRINUSE) {
				continue
			}
			return nil, lastErr
		}
		for i, o := range f.owners {
			if err := f.cl.AttachOwner(i, o); err != nil {
				f.stop()
				return nil, fmt.Errorf("attach owner %d: %w", i, err)
			}
		}
		if err := f.cl.WaitConverged(in.total, 60*time.Second); err != nil {
			f.stop()
			return nil, err
		}
		f.setup = time.Since(start)
		return f, nil
	}
	return nil, lastErr
}

func (f *federation) closeTransport() {
	if f.closer != nil {
		_ = f.closer.Close() // TCP.Close only fails pooled conns; it returns nil
	}
}

// stop shuts every server down and waits for their loops to exit.
func (f *federation) stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	f.cl.Stop()
	f.closeTransport()
}
