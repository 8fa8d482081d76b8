# Convenience targets for the HMC-Sim (Go) repository.

GO ?= go

.PHONY: all build test test-race race bench bench-core bench-compare bench-serve serve serve-pprof metrics-smoke crash-smoke fabric-smoke skip-smoke cache-smoke sse-smoke table1 fig5 faults examples vet fmt clean

all: vet test build

build:
	$(GO) build ./...

vet:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...

fmt:
	gofmt -w .

test:
	$(GO) test ./...

race: test-race

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-core measures the engine hot path — the four Table I
# configurations (cycles/sec), the saturated clock loop (allocs/op), the
# isolated serial vault stages (3 and 4), the sparse
# gap-paced pairs whose wheel-vs-walk ratio is the event-wheel idle-skip
# speedup, and the packet CRC/build and queue Remove layer rows — and
# commits the parsed record to BENCH_core.json, including the speedup
# against the pre-optimization baseline.
bench-core:
	( $(GO) test -run '^$$' -bench 'BenchmarkTableI_|BenchmarkClockSaturated|BenchmarkSparse_|BenchmarkCRC$$|BenchmarkPacketBuildRequest$$|BenchmarkQueueRemove$$' -benchmem . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkVaultStage' -benchmem ./internal/core ) \
		| $(GO) run ./cmd/hmcsim-benchcore -out BENCH_core.json

# bench-compare is the perf regression gate: it re-runs the serial-path
# benchmarks — including the sparse idle-skip rows, so the wheel path is
# held to the same >10%-regression bar as the walked path — and fails if
# any regresses more than 10% against the committed BENCH_core.json.
# Each benchmark runs three times and the comparison takes the minimum,
# filtering shared-machine noise.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkTableI_|BenchmarkClockSaturated$$|BenchmarkSparse_' -benchmem -count 3 . \
		| $(GO) run ./cmd/hmcsim-benchcore -compare BENCH_core.json

# bench-serve pushes three 16-job batches (unique-seed Table I configs)
# through an in-process cache-enabled simulation service over real HTTP:
# a cold batch, a hot resubmission served from the result cache and a
# coalesced batch of identical concurrent submissions. The record lands
# in BENCH_serve.json with per-row throughput and the hot speedup; the
# run is its own gate — it fails on a >10% cold-row regression against
# the committed record or a hot row below the 5x cache contract
# (DESIGN.md §15).
bench-serve:
	$(GO) run ./cmd/hmcsim-submit -bench BENCH_serve.json -bench-jobs 16 -requests 65536

serve:
	$(GO) run ./cmd/hmcsim-serve

# serve-pprof runs the service with the net/http/pprof endpoints mounted
# under /debug/pprof/ (goroutine stacks, heap and CPU profiles). Opt-in
# because the profiling surface exposes process internals.
serve-pprof:
	$(GO) run ./cmd/hmcsim-serve -pprof

# metrics-smoke validates the /v1/metrics wire shapes end to end: the
# legacy JSON object and the Prometheus text exposition are both scraped
# over real HTTP and parsed line by line.
metrics-smoke:
	$(GO) test -run 'TestMetrics' -v ./internal/server

# crash-smoke is the end-to-end crash-safety check: SIGKILL hmcsim-serve
# mid-job, restart it over the same -data directory, and require the
# recovered job's digests to be bit-identical to an uninterrupted run
# (DESIGN.md §12).
crash-smoke:
	$(GO) test -run 'TestCrashRecovery' -v .
	$(GO) test -run 'TestSuspendResumeDigestIdentical|TestJournalRecovery|TestIdempotentSubmit' -v ./internal/server

# fabric-smoke exercises the multi-cube system-graph layer end to end:
# the fabric conformance suite (digest + trace bit-identity across the
# inert Workers field, with and without fault injection), a 2x2 mesh
# run through the offline CLI, and a topology capture round-tripped
# through the JSON spec loader (DESIGN.md §13).
fabric-smoke:
	$(GO) test -run 'TestFabric' -v ./internal/fabric/... ./internal/server
	$(GO) run ./cmd/hmcsim-fabric -requests 16384
	$(GO) run ./cmd/hmcsim-topo -topo ring -devs 4 -json > $(or $(TMPDIR),/tmp)/hmcsim-ring4.json
	$(GO) run ./cmd/hmcsim-fabric -spec $(or $(TMPDIR),/tmp)/hmcsim-ring4.json -requests 4096

# skip-smoke exercises the event-wheel idle-skip layer end to end: the
# randomized wheel-vs-walk equivalence property (digest + trace stream
# bit-identity, with and without fault injection, across a mid-skip
# suspend/resume and a multi-cube fabric), the wheel unit tests, and one
# skip-heavy workload with the wheel force-disabled so the walk fallback
# path stays exercised in CI (DESIGN.md §14).
skip-smoke:
	$(GO) test -run 'TestIdleSkip' -v ./internal/eval
	$(GO) test -run 'TestAdvanceIdle|TestTimedLinkFailure|TestCheckpointCarriesSkipStats' -v ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkSparse_ChaseGap500Walk' -benchtime 1x .

# cache-smoke exercises the content-addressed result cache end to end:
# spec-key canonicalization (field order, defaults, execution hints),
# hit/coalesce provenance and digest identity over real HTTP, verify
# sampling across worker counts, follower cancellation, and the cache
# index rebuild from the journal after a crash (DESIGN.md §15).
cache-smoke:
	$(GO) test -run 'TestJobKey|TestHashJSON' -v ./internal/server/cache ./internal/ckey
	$(GO) test -run 'TestCache|TestCancelFollower|TestLeaderFailure' -v ./internal/server

# sse-smoke exercises the multi-tenant streaming layer end to end: the
# SSE lifecycle over real HTTP (mid-run subscribe, monotone cycles,
# exactly one terminal event, client disconnect, drain cut), bearer
# auth and per-tenant quotas, fair-share dispatch properties, and the
# paging and retry-drain regression tests (DESIGN.md §16).
sse-smoke:
	$(GO) test -run 'TestSSE|TestFairShare|TestFairQueue|TestTenant|TestBearerAuth|TestListPaging|TestShutdownSettlesPendingRetry' -v ./internal/server

table1:
	$(GO) run ./cmd/hmcsim-table1

fig5:
	$(GO) run ./cmd/hmcsim-fig5 -heatmap

faults:
	$(GO) run ./cmd/hmcsim-faults

examples:
	for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

clean:
	$(GO) clean ./...
