GO ?= go

.PHONY: all build vet lint test race alloc-gates bench-test gobench fuzz chaos trace-smoke dist-smoke cover serve ci

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

# alloc-gates runs the allocation budgets of the search hot path, of one
# BAD prediction, of the telemetry planes, the trace plane included, and
# of one serve eval job, without -race: the race detector allocates on its
# own, so those tests skip themselves under it and `make race` never
# checks them.
alloc-gates:
	$(GO) test -count=1 -run 'AllocBudget|TelemetryTax' ./internal/core ./internal/bad ./internal/serve

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
# with ~10% injected job faults under random submissions and cancels from
# two tenants, asserting that quotas and preemption fired and that the
# registry drains clean (no stuck runs, no leaked goroutines, no tenant
# holding a run).
# CHAOS_STATS_OUT receives the /api/v1/stats payload as one JSON line a
# second through the soak, and once more at its end.
CHAOS_SECS ?= 30
CHAOS_STATS_OUT ?= chaos-stats.jsonl
chaos:
	CHOP_CHAOS_SMOKE=1 CHOP_CHAOS_SMOKE_SECS=$(CHAOS_SECS) \
		CHOP_CHAOS_STATS_OUT=$(abspath $(CHAOS_STATS_OUT)) \
		$(GO) test ./internal/serve -run TestChaosSmoke -count=1 -v

# trace-smoke exercises distributed tracing end to end across two real
# processes: chop serve -trace and a traced chop submit, stitched with
# chop trace -fail-on-orphans (fails on broken parent links) and exported
# as TRACE_SMOKE_DIR/perfetto.json for ui.perfetto.dev. It also fails unless
# the server trace's `chop explain -stats` shows 100% trial coverage over
# the trials `chop explain` counts, the one check of the phase fold inside
# a running chop serve.
TRACE_SMOKE_DIR ?= trace-smoke
trace-smoke:
	TRACE_SMOKE_DIR=$(TRACE_SMOKE_DIR) ./scripts/trace-smoke.sh

# dist-smoke runs the fault-tolerant distributed search across real
# processes: a coordinator and two chop serve workers, one stalled by
# fault injection and SIGKILLed mid-search. Gates on lease recovery
# (shards reassigned to the survivor) and on the merged result staying
# byte-identical to a serial run, for both heuristics; then runs a clean
# traced search against admission-controlled workers (-api-keys; a
# keyless submit must get bad-key), stitches it with chop trace
# -fail-on-orphans and exports DIST_SMOKE_DIR/perfetto.json.
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

# ci runs the gofmt, vet, build, race-test, allocation-gate and
# benchmark-golden steps of .github/workflows/ci.yml. CI also runs every
# Go benchmark once (go test -run '^$' -bench . -benchtime 1x ./...), the
# benchmark smoke, fuzz, chaos, trace-smoke, dist-smoke and coverage steps,
# which ci leaves out.
ci: lint build race alloc-gates bench-test
