GO ?= go

.PHONY: all build vet lint test race alloc-gates bench-test gobench fuzz chaos trace-smoke loadgen-smoke dist-smoke cover serve ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint fails when any file is not gofmt-clean, then vets.
lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# alloc-gates runs the allocation budgets of the search hot path and the
# telemetry tax without -race: the race detector allocates on its own, so
# those tests skip themselves under it and `make race` never checks them.
alloc-gates:
	$(GO) test -count=1 -run 'AllocBudget|TelemetryTax' ./internal/core

# bench-test runs the benchmark module's golden tests: the paper's Tables
# 3-6 rows, the Figure 7 points sha256 and the stress6 digest, pinned in
# bench/testdata. bench/ is a module of its own, so `go test ./...` from
# the root never reaches it.
bench-test:
	cd bench && $(GO) test ./...

# gobench runs the in-tree go test benchmarks (overhead gates etc.).
# -run '^$' matches no test name, so only benchmarks execute (-run XXX
# relied on no test happening to contain the substring).
gobench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# fuzz smoke-tests the predictor-cache content key: determinism,
# rename-insensitivity, mutation-sensitivity, no panics.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=FuzzPredictCacheKey -fuzztime=$(FUZZTIME) ./internal/bad

# chaos runs the fault-injected service-plane smoke: an in-process server
# with ~10% injected job faults under random submissions and cancels,
# asserting the registry drains clean (no stuck runs, no leaked goroutines).
CHAOS_SECS ?= 30
CHAOS_STATS_OUT ?= chaos-stats.jsonl
chaos:
	CHOP_CHAOS_SMOKE=1 CHOP_CHAOS_SMOKE_SECS=$(CHAOS_SECS) \
		CHOP_CHAOS_STATS_OUT=$(abspath $(CHAOS_STATS_OUT)) \
		$(GO) test ./internal/serve -run TestChaosSmoke -count=1 -v

# trace-smoke exercises distributed tracing end to end across two real
# processes: chop serve -trace and a traced chop submit, stitched with
# chop trace -fail-on-orphans (fails on broken parent links) and exported
# as TRACE_SMOKE_DIR/perfetto.json for ui.perfetto.dev.
TRACE_SMOKE_DIR ?= trace-smoke
trace-smoke:
	TRACE_SMOKE_DIR=$(TRACE_SMOKE_DIR) ./scripts/trace-smoke.sh

# loadgen-smoke drives the SLO harness against a real admission-controlled
# chop serve process (API keys, quotas, rate limits) at low RPS, gates the
# resulting loadgen.json (p99 latency + goroutine/FD leak budgets), and
# checks that a wrong API key buckets under bad-key. Gate a change against
# a saved baseline with:
#   go run ./cmd/chop loadgen -compare loadgen-smoke/loadgen.json
LOADGEN_SECS ?= 10
LOADGEN_DIR ?= loadgen-smoke
loadgen-smoke:
	LOADGEN_DIR=$(LOADGEN_DIR) LOADGEN_SECS=$(LOADGEN_SECS) ./scripts/loadgen-smoke.sh

# dist-smoke runs the fault-tolerant distributed search across real
# processes: a coordinator and two chop serve workers, one stalled by
# fault injection and SIGKILLed mid-search. Gates on lease recovery
# (shards reassigned to the survivor) and on the merged result staying
# byte-identical to a serial run, for both heuristics; then stitches a
# clean traced run with chop trace -fail-on-orphans and exports
# DIST_SMOKE_DIR/perfetto.json.
DIST_SMOKE_DIR ?= dist-smoke
dist-smoke:
	DIST_SMOKE_DIR=$(DIST_SMOKE_DIR) ./scripts/dist-smoke.sh

# cover writes coverage.out plus a browsable HTML report.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -html=coverage.out -o coverage.html
	$(GO) tool cover -func=coverage.out | tail -1

# serve starts the HTTP service plane on :8080.
serve:
	$(GO) run ./cmd/chop serve -addr :8080 -log-level debug

# ci is what .github/workflows/ci.yml runs.
ci: lint build race alloc-gates bench-test
