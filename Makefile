GO ?= go

.PHONY: tier1 build vet test race chaos docs-check fuzz-smoke bench-smoke bench-transport bench bench-store bench-load bench-cache bench-fp bench-compare

# tier1 is the gate every change must pass: full build + vet + full test
# suite, plus race-enabled runs of the concurrency-heavy packages (the
# live protocol stack and the pooled transport), the fault-injection
# chaos suite, the documentation checks, five seconds of fuzzing the one
# wire decoder, and the canonical benchmark's own module (which `./...` at
# the root does not reach). test/race/chaos depend on vet so a vet failure
# stops the gate before any tests burn time; vet also fails on any file
# `gofmt -l .` lists.
tier1: build vet test race chaos docs-check fuzz-smoke bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; }

test: vet
	$(GO) test ./...

race: vet
	$(GO) test -race ./internal/live/... ./internal/transport/... ./internal/wire/... ./internal/loadgen/... ./internal/store/...

# chaos drives the deterministic fault-injection transport through the
# failure scenarios in internal/live/chaos_test.go (crashed redirect
# targets, one-way partitions, deadline-straddling delays, hung peers)
# under the race detector.
chaos: vet
	$(GO) test -race -run 'TestChaos|TestFaulty' ./internal/live/ ./internal/transport/

# docs-check validates every relative markdown link resolves and that
# every registered metric name appears in the OPERATIONS.md catalog (see
# cmd/docscheck).
docs-check:
	$(GO) run ./cmd/docscheck

# fuzz-smoke fuzzes wire.Decode for five seconds from the codec table's
# seeds: arbitrary input must never panic and whatever decodes must reach a
# decode/encode fixed point. There is one decoder; this keeps it fuzzed on
# every gate instead of only when someone remembers.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/wire/

# bench-smoke vets and tests the nested bench module and runs every
# canonical workload end to end on 8-server federations with 1 s windows: a
# transport, wire or client change is exactly what can break the
# benchmark's probe wrapper, and `go test ./...` at the root skips it.
bench-smoke:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./... && bash bench/run.sh -smoke

# bench-transport runs the RPC hot path's microbenchmarks — one pooled TCP
# round trip (serial and parallel, with allocations and writes per call),
# one in-process round trip and one fresh broad resolve of a 64-server
# federation over either transport (each under a context that cannot be
# cancelled and under one with a deadline; the tcp arms need ports
# 20100–20163), one batched replica-push round in the versioned steady
# state, the client cache key and the query-reply decode — and archives them as
# BENCH_pr14.json via cmd/benchjson. The dial-per-call and per-replica-push
# baseline arms are gone; EXPERIMENTS.md ("Archived baselines") says which
# archive holds them and that PushReplicas/batched changed workload.
BENCHTRANSPORT ?= BENCH_pr14.json
bench-transport:
	$(GO) test -bench 'BenchmarkTCPCall|BenchmarkChanCall|BenchmarkResolve|BenchmarkPushReplicas|BenchmarkCacheKey|BenchmarkDecodeQueryReply' -benchmem -run '^$$' ./internal/transport/ ./internal/live/ ./internal/wire/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(BENCHTRANSPORT)

# bench runs the query-hot-path, wire-codec, aggregation-tick, and
# sharded-store benchmarks — the first three under the sub-benchmark names
# their deleted baselines were compared under (snapshot, binary, delta;
# EXPERIMENTS.md "Archived baselines" maps the mutex, gob and full arms to
# their archives), the store's still beside its own baseline (sharded vs
# monolithic summary refresh across churn rates) — and archives the
# numbers as BENCH_pr8.json via cmd/benchjson (see EXPERIMENTS.md).
BENCHOUT ?= BENCH_pr8.json
bench:
	$(GO) test -bench 'BenchmarkHandleQuery|BenchmarkCodec|BenchmarkAggregationTick|BenchmarkShardedIngest|BenchmarkExportChurn' -benchmem -run '^$$' ./internal/live/ ./internal/wire/ ./internal/store/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(BENCHOUT)

# bench-store runs only the store-layer benchmarks: bulk-ingest linearity
# across sizes and shard counts, and the per-refresh summary-export cost at
# 0%/1%/100% churn, sharded vs the pre-sharding full-rebuild baseline.
BENCHSTORE ?= BENCH_store.json
bench-store:
	$(GO) test -bench 'BenchmarkShardedIngest|BenchmarkExportChurn|BenchmarkSearch' -benchmem -run '^$$' ./internal/store/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(BENCHSTORE)

# bench-load runs the live-topology load harness (cmd/roads-load →
# internal/loadgen) twice and archives both lines as BENCH_pr7.json via
# cmd/benchjson: the thousand-server record/kill churn run (LOADARGS,
# name-compatible with the BENCH_pr6 baseline for bench-compare) and a
# partition-churn run (LOADPARTARGS) that repeatedly severs and heals a
# ~30% subtree, reporting partitions-healed, split-brain seconds, post-heal
# re-convergence and the epoch-regression invariant. Override either for
# other shapes (see EXPERIMENTS.md for the knobs and archived baselines).
BENCHLOAD ?= BENCH_pr7.json
LOADARGS ?= -n 1000 -fanout 8 -mindepth 6 -owner-every 4 -queries 400 \
	-tick 250ms -churn-records 250ms -churn-kill 500ms -churn-revive 1s
LOADPARTARGS ?= -n 300 -fanout 4 -mindepth 5 -owner-every 4 -queries 300 \
	-tick 50ms -query-timeout 2s -drive-min 12s \
	-churn-partition 1s -churn-partition-frac 0.3 -churn-heal 4s
bench-load:
	( $(GO) run ./cmd/roads-load $(LOADARGS) ; \
	  $(GO) run ./cmd/roads-load $(LOADPARTARGS) ) | tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(BENCHLOAD)

# bench-cache runs the client-cache / admission-control load harness three
# times and archives all lines as BENCH_pr9.json via cmd/benchjson (the
# archived file dates from when servers also cached results, and has a
# cache-hit-rate column these runs no longer print; EXPERIMENTS.md "Archived
# baselines"):
#   1. unloaded baseline — high-priority drive clients with repeat-query
#      traffic and their client caches on (the p99 yardstick),
#   2. hot tenant — a shared low-priority identity flooding a small repeat
#      set while record churn keeps moving the fingerprints, with no
#      admission control (everyone's p99 degrades),
#   3. hot tenant + admission — same flood, but per-requester token
#      buckets shed the over-budget tenant to coarse summary-only answers;
#      high-priority p99 must land within 2x the unloaded baseline and
#      shed queries get coarse answers, never errors.
# See EXPERIMENTS.md for the archived numbers and the knob rationale.
BENCHCACHE ?= BENCH_pr9.json
CACHEBASEARGS ?= -n 200 -fanout 4 -mindepth 4 -owner-every 3 -queries 400 -clients 4 \
	-tick 250ms -repeat-frac 0.5 -client-cache -client-priority 2 -untraced -drive-min 8s
CACHEHOTARGS ?= $(CACHEBASEARGS) -churn-records 300ms -churn-owners 2 -hot-clients 8
CACHEADMARGS ?= $(CACHEHOTARGS) -admission-rate 40 -admission-burst 80
bench-cache:
	( $(GO) run ./cmd/roads-load $(CACHEBASEARGS) ; \
	  $(GO) run ./cmd/roads-load $(CACHEHOTARGS) ; \
	  $(GO) run ./cmd/roads-load $(CACHEADMARGS) ) | tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(BENCHCACHE)

# bench-fp runs the false-positive-descent load harness three times and
# archives all lines as BENCH_pr10.json via cmd/benchjson:
#   1. static baseline — a skewed workload (every query a narrow range on
#      the one hot window attribute) against the fixed summary geometry,
#      with adaptation disabled; the FP-descent yardstick,
#   2. adaptive — the identical workload and seed with feedback-driven
#      resolution on, under a summary byte budget matching the static
#      geometry's footprint (8 numeric attrs x (16 + 4x64) ≈ 2.2 KB), so
#      the planner must shed cold-attribute resolution to fund the hot
#      attribute's climb; fp-rate must land at <= half the static arm's at
#      equal (1.0) coverage,
#   3. categorical — hierarchical dotted categorical values summarized as
#      live Blooms with value-set condensation, mixed-dimension skewed
#      queries; exercises the summary plan/mode path and condensation
#      under load (conjunctive cross-attribute false positives dominate
#      here, which per-attribute resolution cannot remove — the line
#      documents byte cost and recall, not an fp-rate win).
# See EXPERIMENTS.md for the archived numbers and the knob rationale.
BENCHFP ?= BENCH_pr10.json
FPSTATICARGS ?= -n 120 -fanout 4 -mindepth 4 -owner-every 3 -records 6 \
	-buckets 64 -queries 800 -dims 1 -range 0.04 -query-skew 1.0 \
	-tick 100ms -replan-every 1 -drive-min 15s -seed 1
FPADAPTARGS ?= $(FPSTATICARGS) -summary-budget 2200
FPCATARGS ?= -n 160 -fanout 4 -mindepth 4 -owner-every 3 -records 12 \
	-buckets 32 -queries 800 -dims 2 -range 0.1 -query-skew 0.8 \
	-cat-attrs 2 -cat-vocab 24 -cat-depth 3 -summary-bloom -condense-above 12 \
	-tick 100ms -replan-every 2 -drive-min 8s -seed 1
bench-fp:
	( $(GO) run ./cmd/roads-load $(FPSTATICARGS) -no-adaptive ; \
	  $(GO) run ./cmd/roads-load $(FPADAPTARGS) ; \
	  $(GO) run ./cmd/roads-load $(FPCATARGS) ) | tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(BENCHFP)

# bench-compare diffs two benchjson archives (only the benchmarks present
# in both). Both are required — there is no default pair, because no pair
# of committed archives is regenerated by every PR:
#   make bench-compare OLD=BENCH_pr9.json NEW=BENCH_pr10.json
bench-compare:
ifeq ($(and $(OLD),$(NEW)),)
	@echo "usage: make bench-compare OLD=<archive.json> NEW=<archive.json>" >&2; exit 2
else
	$(GO) run ./cmd/benchjson -compare $(OLD) $(NEW)
endif
