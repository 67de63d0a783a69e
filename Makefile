GO ?= go

.PHONY: tier1 build vet test examples race chaos docs-check fuzz-smoke bench-smoke flakes

# tier1 is the gate every change must pass: full build + vet + full test
# suite, every example run to completion, plus race-enabled runs of the
# concurrency-heavy packages (the live protocol stack, the pooled
# transport and the owners' copy-on-write records) and of one stepped figure
# build (rounds on the experiment's goroutine, handlers and resolve workers
# beside it), the fault-injection chaos suite, the documentation checks,
# five seconds each of fuzzing the one wire decoder and the cross-geometry
# summary merge, and the canonical
# benchmark's own module (which `./...` at the root does not reach).
# test/examples/race/chaos depend on vet so a vet failure stops the gate
# before any tests burn time; vet also fails on any file `gofmt -l .` lists.
tier1: build vet test examples race chaos docs-check fuzz-smoke bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; }

test: vet
	$(GO) test ./...

# examples runs every program under examples/ to completion, each within two
# minutes: they are the documented tour of the system and have no tests of
# their own, so this is what notices when one stops working or one of its
# checks fails.
examples: vet
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		timeout 120s $(GO) run ./$$d >/dev/null || { echo "$$d failed or timed out"; exit 1; }; \
	done

race: vet
	$(GO) test -race ./internal/live/... ./internal/transport/... ./internal/wire/... ./internal/store/... ./internal/policy/...
	$(GO) test -race -run TestQueryColumnsDeterministic ./internal/experiment/

# chaos drives the deterministic fault-injection transport through the
# failure scenarios in internal/live/chaos_test.go (crashed redirect
# targets, one-way partitions, deadline-straddling delays, hung peers)
# under the race detector.
chaos: vet
	$(GO) test -race -run 'TestChaos|TestFaulty' ./internal/live/ ./internal/transport/

# flakes reruns the timing-sensitive live tests (the chaos suite, crash
# recovery, root election, stepping and resolve teardown) N times under the
# race detector, prints each failure with its messages and then, per test,
# how many runs failed; it exits non-zero when any did. Not part of tier1:
# at the default N it takes about five minutes on a 2-vCPU host.
N ?= 50
FLAKY = TestChaos|TestCrashed|TestRootCrash|TestStepped|TestParentFailure|TestResolveLeavesNoGoroutines
flakes:
	@$(GO) test -race -count $(N) -timeout 0 -v -run '$(FLAKY)' ./internal/live/ 2>&1 | awk ' \
		/^ +[^ ]+\.go:[0-9]+: / { msgs = msgs $$0 "\n" } \
		/^--- PASS: / { msgs = "" } \
		/^--- FAIL: / { printf "%s%s", $$0 "\n", msgs; msgs = "" } \
		/^--- (PASS|FAIL): / { runs[$$3]++; if ($$2 == "FAIL:") fails[$$3]++ } \
		/^(panic:|FAIL|ok)[ \t]/ { print; if ($$1 != "ok") bad++ } \
		END { for (t in runs) { printf "%-48s %d/%d failed\n", t, fails[t], runs[t] | "sort"; bad += fails[t] } \
			close("sort"); exit bad > 0 }'

# docs-check validates that every relative markdown link resolves, that the
# OPERATIONS.md metric catalog and flag tables match the code, and that every
# repo path and make target the main documents name exists (see
# cmd/docscheck).
docs-check:
	$(GO) run ./cmd/docscheck

# fuzz-smoke fuzzes wire.Decode for five seconds from the codec table's
# seeds: arbitrary input must never panic and whatever decodes must reach a
# decode/encode fixed point. There is one decoder; this keeps it fuzzed on
# every gate instead of only when someone remembers. Then five seconds of
# summary.Merge across two geometries: no merge may lose a record's match.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzMergeKeepsMatches$$' -fuzztime 5s ./internal/summary/

# bench-smoke vets and tests the nested bench module and runs every
# canonical workload end to end on 8-server federations with 1 s windows: a
# transport, wire or client change is exactly what can break the
# benchmark's probe wrapper, and `go test ./...` at the root skips it.
bench-smoke:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./... && bash bench/run.sh -smoke
