GO ?= go

.PHONY: build test vet size lint lint-json staticcheck govulncheck race check gates chaos fuzz bench bench-plan bench-sched bench-smoke bench-stats bench-engine bench-kappa bench-trsv bench-micro telemetry-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# size prints the non-test, non-testdata Go line count of every package
# directory, then the total — the numbers ROADMAP.md and the simplicity
# issues quote, regenerable with one command.
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# lint runs the repo's own analyzer suite (docs/LINTING.md): the six
# per-package contracts (hot-path allocation discipline, nil-safe
# recorder, padded atomic counters, error taxonomy, cooperative
# cancellation, checkout/release pairing) plus the three whole-program
# concurrency contracts built on the call graph and lockset layer
# (lockorder, atomicmix, goroutineleak). Built from this module, so it
# needs nothing beyond the Go toolchain. lint-json emits the same
# findings as a self-validating maskedspgemm/lint/v1 document.
lint:
	$(GO) run ./cmd/spgemm-lint ./...

lint-json:
	$(GO) run ./cmd/spgemm-lint -json ./...

# staticcheck is optional tooling: run it when installed, skip silently
# when the host doesn't have it (no network installs in CI containers).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# govulncheck is likewise optional: audit the dependency graph when the
# tool is present, skip silently otherwise.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

# The scheduler, kernel and public facade are the concurrency-bearing
# packages: run them under the race detector with the Guided policy,
# panic containment, cancellation and parallel plan paths exercised by
# their tests. The model, graph and chaos packages ride along: their
# recalibrator, fused-algorithm and seeded-injector tests drive the same
# kernels concurrently.
race:
	$(GO) test -race ./internal/sched/... ./internal/core/... ./internal/exec/... ./internal/tiling/... ./internal/obs/... ./internal/telemetry/... ./internal/model/... ./internal/graph/... ./internal/chaos/... ./spgemm/...

# gates are the spgemm-bench runs that fail when an invariant breaks:
# warm pool hit rate and fused allocations (bench-engine), solve
# bit-identity (bench-trsv), the fault matrix (chaos) and the live
# endpoints (telemetry-smoke) — plus one iteration of the
# micro-benchmarks the per-unit numbers are regenerated from
# (bench-micro), so they cannot rot. CI's gates job runs exactly this.
gates: bench-engine bench-trsv chaos telemetry-smoke bench-micro

check: vet lint staticcheck govulncheck race test gates

# bench is the end-to-end yardstick (BENCHMARK.json, benchmark/README.md):
# five workloads through the public facade, eight end-to-end metrics.
# spgemm-bench regenerates the paper's figures; this is what a change is
# judged by.
bench:
	$(GO) run ./benchmark

# telemetry-smoke is the live-observability gate: run a small stats
# experiment with an ephemeral debug listener attached, then have the
# tool self-check its own server before exiting — /metrics must parse
# as Prometheus text exposition with every required series present and
# a nonzero run count, /stats must pass stats/v1 validation, /flight
# must pass flightrec/v1 validation, /healthz must answer. Part of
# `make gates`; see docs/OBSERVABILITY.md, "Live telemetry".
telemetry-smoke:
	$(GO) run ./cmd/spgemm-bench -experiment stats -shift 6 \
		-graphs GAP-road-sim -reps 2 -budget 1s -telemetry-check

# chaos is the fault-injection gate: the seeded chaos suite runs under
# the race detector (fault matrix, quarantine, retry ladder, stall
# watchdog), then the bench drill replays the matrix against a shared
# engine and pins the nil-injector fast path's allocations. Both fail
# on any pool-invariant violation (Engine.SelfCheck), untyped error, or
# result divergence. Part of `make gates`; see docs/RESILIENCE.md.
CHAOS_SEED ?= 1
chaos:
	$(GO) test -race -run 'Chaos|Retry|Stall|Injected|Quarantine|SelfCheck|PanicErrorUnwrap|Seeded|NilInjector|StepExecutes' \
		./internal/chaos/... ./internal/sched/... ./internal/exec/... ./internal/core/... ./spgemm/...
	$(GO) run ./cmd/spgemm-bench -experiment chaos -chaos-seed $(CHAOS_SEED)

# Short fuzz passes over the hostile-input surface: the MatrixMarket
# text parser and the binary CSR container.
FUZZTIME ?= 15s
fuzz:
	$(GO) test ./internal/mtx -fuzz='^FuzzRead$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mtx -fuzz='^FuzzReadBinary$$' -fuzztime=$(FUZZTIME)

bench-plan:
	$(GO) run ./cmd/spgemm-bench -experiment plan -shift 3

bench-sched:
	$(GO) run ./cmd/spgemm-bench -experiment sched -shift 3

# bench-smoke pushes a tiny graph through the stats experiment end to
# end (flag parsing, corpus selection, recorder, tables). The rows'
# bench-results/v1 round-trip is pinned for every experiment by
# TestExperimentsRegistry; add -json to keep results_stats.json.
bench-smoke:
	$(GO) run ./cmd/spgemm-bench -experiment stats -shift 6 \
		-graphs GAP-road-sim -reps 2 -budget 1s

bench-stats:
	$(GO) run ./cmd/spgemm-bench -experiment stats -shift 3 -json

# bench-engine is the execution-engine and fused-pipeline regression
# gate: run the warm iterative workloads (k-truss, BC-batch) on a small
# graph engineless, through an engine, and through an engine with the
# fused formulation. The experiment itself fails unless every warm loop
# serves >= 95% of its workspace checkouts from the pool, the fused
# formulation allocates no more per operation than the materializing
# one, and all three columns agree on the checksum. Part of `make gates`.
bench-engine:
	$(GO) run ./cmd/spgemm-bench -experiment engine -shift 6 \
		-graphs GAP-road-sim -reps 2 -budget 1s

# bench-trsv is the triangular-solve regression gate: solve L·x = 1 on
# a small graph with the serial substitution loop and the
# dependency-wave schedule. Bit-identity between the two solutions is
# asserted unconditionally inside the experiment; the speedup bound is
# opt-in via TRSV_SPEEDUP (e.g. TRSV_SPEEDUP=1.0) because the wave win
# needs real cores — timing on a single-core runner proves nothing.
# Part of `make gates`.
TRSV_SPEEDUP ?= 0
bench-trsv:
	$(GO) run ./cmd/spgemm-bench -experiment trsv -shift 6 \
		-graphs GAP-road-sim,hollywood-2009-sim -reps 2 -budget 1s \
		-min-trsv-speedup $(TRSV_SPEEDUP)

# bench-micro runs the micro-benchmarks behind the quoted per-unit
# numbers once each: per-entry vs batched accumulator updates (ns/update
# per kind), the four iteration spaces on the circuit graph (ns/flop),
# and batched BC on the 57 x 100 road lattice (us/multiply: the fixed
# cost of one small product, the number the tile crossover exists to
# cut), and one product repeated through a Multiplier, a Multiplier on
# a shared engine and MxM on an engine (allocs/op and B/op must agree
# across the three), one warm triangular solve through the facade,
# through core's automatic mode (facade-auto and core-auto must differ by
# the result vector only), and core's serial and wave modes (ns/nnz),
# and the solve verdict's unit costs: one serial substitution walked in
# substitution order and in level-set order (ns/nnz), and a wave run's
# spawn and staggered barrier crossing, and one hypersparse product at
# the production crossover, masked and complemented (ns/multiply: a
# one-tile run's cost in its live rows), and both accumulator families
# swept over cols/RowCap (ns/flop: the medians internal/model derives the
# planner's dense-state factor from). One iteration is a smoke test;
# for numbers drop `-benchtime 1x` and add `-count`.
bench-micro:
	$(GO) test -run '^$$' -bench '^BenchmarkAccumulatorRow$$' -benchtime 1x ./internal/accum
	$(GO) test -run '^$$' -bench '^BenchmarkAccumulatorChoice$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkIterationSpaces$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkGraphAlgorithms$$/^BCBatch$$/^road-57x100$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkRepeatedMultiply$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkTRSVWarm$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkSolveOrder$$' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkWaveCrossing$$' -benchtime 1x ./internal/sched
	$(GO) test -run '^$$' -bench '^BenchmarkHypersparseProduct$$' -benchtime 1x ./internal/core

# bench-kappa exercises the online κ recalibrator against an offline
# sweep. Timing-sensitive, so it is informational rather than part of
# `make check`; add -kappa-slack via KAPPA_SLACK to assert the bound.
KAPPA_SLACK ?= 0
bench-kappa:
	$(GO) run ./cmd/spgemm-bench -experiment kappa-adapt -shift 3 \
		-reps 3 -budget 2s -kappa-slack $(KAPPA_SLACK)
