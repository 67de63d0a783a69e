GO ?= go

.PHONY: tier1 build vet test examples race chaos docs-check fuzz-smoke bench-smoke

# tier1 is the gate every change must pass: full build + vet + full test
# suite, every example run to completion, plus race-enabled runs of the
# concurrency-heavy packages (the live protocol stack, the pooled
# transport and the owners' copy-on-write records), the fault-injection chaos suite, the documentation checks,
# five seconds of fuzzing the one wire decoder, and the canonical
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

# chaos drives the deterministic fault-injection transport through the
# failure scenarios in internal/live/chaos_test.go (crashed redirect
# targets, one-way partitions, deadline-straddling delays, hung peers)
# under the race detector.
chaos: vet
	$(GO) test -race -run 'TestChaos|TestFaulty' ./internal/live/ ./internal/transport/

# docs-check validates that every relative markdown link resolves, that the
# OPERATIONS.md metric catalog and flag tables match the code, and that every
# repo path and make target the main documents name exists (see
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
