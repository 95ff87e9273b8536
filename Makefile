GO ?= go

.PHONY: build test vet size lint lint-json staticcheck govulncheck race check chaos fuzz bench-plan bench-sched bench-smoke bench-stats bench-engine bench-fusion bench-kappa bench-trsv telemetry-smoke

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
# their tests.
race:
	$(GO) test -race ./internal/sched/... ./internal/core/... ./internal/exec/... ./internal/tiling/... ./internal/obs/... ./internal/telemetry/... ./spgemm/...

check: vet lint staticcheck govulncheck race test bench-engine bench-fusion bench-trsv chaos telemetry-smoke

# telemetry-smoke is the live-observability gate: run a small stats
# experiment with an ephemeral debug listener attached, then have the
# tool self-check its own server before exiting — /metrics must parse
# as Prometheus text exposition with every required series present and
# a nonzero run count, /stats must pass stats/v1 validation, /flight
# must pass flightrec/v1 validation, /healthz must answer. Part of
# `make check`; see docs/OBSERVABILITY.md, "Live telemetry".
telemetry-smoke:
	$(GO) run ./cmd/spgemm-bench -experiment stats -shift 6 \
		-graphs GAP-road-sim -reps 2 -budget 1s -telemetry-check

# chaos is the fault-injection gate: the seeded chaos suite runs under
# the race detector (fault matrix, quarantine, retry ladder, stall
# watchdog), then the bench drill replays the matrix against a shared
# engine and pins the nil-injector fast path's allocations. Both fail
# on any pool-invariant violation (Engine.SelfCheck), untyped error, or
# result divergence. Part of `make check`; see docs/RESILIENCE.md.
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

# bench-smoke pushes a tiny graph through the full stats pipeline: the
# tool writes BENCH_stats.json and self-validates that the document
# strictly round-trips through its declared schema before exiting 0.
bench-smoke:
	$(GO) run ./cmd/spgemm-bench -experiment stats -shift 6 \
		-graphs GAP-road-sim -reps 2 -budget 1s -stats-json
	@rm -f BENCH_stats.json

bench-stats:
	$(GO) run ./cmd/spgemm-bench -experiment stats -shift 3 -stats-json

# bench-engine is the execution-engine regression gate: run the warm
# iterative workloads (k-truss, BC-batch) on a small graph through a
# shared engine and fail unless every warm loop serves >= 95% of its
# workspace checkouts from the pool. Part of `make check`.
bench-engine:
	$(GO) run ./cmd/spgemm-bench -experiment engine -shift 6 \
		-graphs GAP-road-sim -reps 2 -budget 1s -min-hit-rate 0.95

# bench-fusion is the fused-pipeline regression gate: run the fused
# k-truss and BC-batch formulations warm against their materializing
# twins on a small graph and fail if any fused workload allocates more
# per operation than its unfused twin (results are checksum-compared
# inside the experiment). Part of `make check`.
bench-fusion:
	$(GO) run ./cmd/spgemm-bench -experiment fusion -shift 6 \
		-graphs GAP-road-sim -reps 2 -budget 1s -check-fused-allocs

# bench-trsv is the triangular-solve regression gate: solve L·x = 1 on
# a small graph with the serial substitution loop and the
# dependency-wave schedule, self-validating the bench-trsv/v1 document.
# Bit-identity between the two solutions is asserted unconditionally
# inside the experiment; the speedup bound is opt-in via TRSV_SPEEDUP
# (e.g. TRSV_SPEEDUP=1.0) because the wave win needs real cores —
# timing on a single-core runner proves nothing. Part of `make check`.
TRSV_SPEEDUP ?= 0
bench-trsv:
	$(GO) run ./cmd/spgemm-bench -experiment trsv -shift 6 \
		-graphs GAP-road-sim,hollywood-2009-sim -reps 2 -budget 1s \
		-trsv-json -min-trsv-speedup $(TRSV_SPEEDUP)
	@rm -f BENCH_trsv.json

# bench-kappa exercises the online κ recalibrator against an offline
# sweep. Timing-sensitive, so it is informational rather than part of
# `make check`; add -kappa-slack via KAPPA_SLACK to assert the bound.
KAPPA_SLACK ?= 0
bench-kappa:
	$(GO) run ./cmd/spgemm-bench -experiment kappa-adapt -shift 3 \
		-reps 3 -budget 2s -kappa-slack $(KAPPA_SLACK)
