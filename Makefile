GO ?= go

.PHONY: build test passes examples vet size lint staticcheck govulncheck race check gates chaos fuzz bench bench-plan bench-sched bench-smoke bench-stats bench-engine bench-trsv bench-micro bench-tc

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# passes runs the whole suite once and prints how many tests and
# subtests passed and failed, then the name of each failed test and of
# each package that failed outside its tests (a build failure) — the
# pass count CHANGES.md and the issues quote, from one command. It exits
# non-zero when anything failed.
passes:
	@$(GO) test -json -count=1 ./... 2>&1 | awk ' \
		function field(k,   v) { v = $$0; if (!sub(".*\"" k "\":\"", "", v)) return ""; sub(/".*/, "", v); return v } \
		/"Action":"(pass|fail)"/ { \
			a = field("Action"); t = field("Test"); p = field("Package"); \
			if (t == "") { if (a == "fail") broken[p] = 1 } \
			else if (a == "pass") pass++; \
			else { fail++; failed[p] = 1; names = names "FAIL " p " " t "\n" } \
		} \
		END { \
			printf "passes: %d  failures: %d\n%s", pass, fail, names; \
			for (p in broken) if (!(p in failed)) { print "FAIL " p " (failed outside any test: build or TestMain)"; fail++ } \
			exit (fail > 0) \
		}'

# examples runs every program under examples/. Each exits non-zero on
# error, so a demo left broken by a change to the public facade fails
# here rather than only when a reader runs it (go build proves only
# that it compiles).
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

vet:
	$(GO) vet ./...

# size prints the non-test, non-testdata Go line count of every package
# directory, then the total — the numbers ROADMAP.md and the simplicity
# issues quote, regenerable with one command.
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# lint runs the repo's own analyzer suite (docs/LINTING.md), three
# analyzers that each catch a defect no test catches: hotpathalloc
# (allocation-free //spgemm:hotpath functions), errtaxonomy (error
# chains wrapped with %w) and goroutineleak (every go statement has an
# observable exit, checked over the call graph). Built from this module,
# so it needs nothing beyond the Go toolchain.
lint:
	$(GO) run ./cmd/spgemm-lint ./...

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
# their tests. The obs recorder (shared by concurrent runs) and the
# telemetry histogram (lock-free records) are written from many
# goroutines too. The model, graph and chaos packages ride along: their
# cost-model, graph-algorithm and seeded-injector tests drive the same
# kernels concurrently. The chaos suite's fault matrix runs here too,
# since its five packages run whole; `make chaos` reruns just it.
race:
	$(GO) test -race ./internal/sched/... ./internal/core/... ./internal/exec/... ./internal/tiling/... ./internal/obs/... ./internal/telemetry/... ./internal/model/... ./internal/graph/... ./internal/chaos/... ./spgemm/...

# gates are the runs that fail when an invariant breaks: the
# spgemm-bench warm pool hit rate and checksums (bench-engine)
# and solve bit-identity (bench-trsv) — plus one iteration of the
# micro-benchmarks the per-unit numbers are regenerated from
# (bench-micro), the recorder's table end to end (bench-smoke) and the
# trianglecount CLI end to end (bench-tc), so they cannot rot. CI's
# gates job runs exactly this.
# The seeded fault matrix is not a gate of its own: `make race`, which
# CI's test job runs, covers the chaos suite's five packages whole.
gates: bench-engine bench-trsv bench-micro bench-smoke bench-tc

check: vet lint staticcheck govulncheck race test examples gates

# bench is the end-to-end yardstick (BENCHMARK.json, benchmark/README.md):
# five workloads through the public facade, eight end-to-end metrics.
# spgemm-bench regenerates the paper's figures; this is what a change is
# judged by.
bench:
	$(GO) run ./benchmark

# chaos reruns the fault-injection suite alone: the seeded chaos tests
# run under the race detector (fault matrix, quarantine, the facade's faulted
# calls, stall watchdog) and fails on any pool-invariant violation
# (Engine.SelfCheck), untyped error, or result divergence. `make race`
# runs the same tests with the rest of their packages; this target
# reruns just the suite. See docs/RESILIENCE.md.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Stall|Injected|Quarantine|SelfCheck|PanicErrorUnwrap|Seeded|NilInjector|StepExecutes' \
		./internal/chaos/... ./internal/sched/... ./internal/exec/... ./internal/core/... ./spgemm/...

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
# TestExperimentsRegistry; add -json to keep results_stats.json. Part
# of `make gates`.
bench-smoke:
	$(GO) run ./cmd/spgemm-bench -experiment stats -shift 6 \
		-graphs GAP-road-sim -reps 2 -budget 1s

# bench-tc runs the trianglecount CLI end to end on a tiny road graph:
# flag parsing, corpus selection, the count warm on an engine, and the
# recorder's table. Part of `make gates`.
bench-tc:
	$(GO) run ./cmd/trianglecount -corpus GAP-road-sim -shift 6 -engine -repeat 2 -stats

bench-stats:
	$(GO) run ./cmd/spgemm-bench -experiment stats -shift 3 -json

# bench-engine is the execution-engine regression gate: run the warm
# iterative workload (k-truss; BC checks out no workspace) on a small
# graph engineless and through an engine. The experiment itself fails unless every warm
# loop serves >= 95% of its workspace checkouts from the pool and both
# columns agree on the checksum. Part of `make gates`.
bench-engine:
	$(GO) run ./cmd/spgemm-bench -experiment engine -shift 6 \
		-graphs GAP-road-sim -reps 2 -budget 1s

# bench-trsv is the triangular-solve regression gate: solve L·x = 1 on
# small graphs with the serial substitution loop and the
# dependency-wave schedule. Bit-identity of both solutions with the
# per-entry reference is asserted unconditionally inside the
# experiment, on a road graph, a social graph and
# arabic-2005-sim, the skewed graph the verdict's unit costs come from.
# The speedup bound is opt-in via TRSV_SPEEDUP (e.g. TRSV_SPEEDUP=1.0)
# because the wave win needs real cores — timing on a single-core
# runner proves nothing. Part of `make gates`.
TRSV_SPEEDUP ?= 0
bench-trsv:
	$(GO) run ./cmd/spgemm-bench -experiment trsv -shift 6 \
		-graphs GAP-road-sim,hollywood-2009-sim,arabic-2005-sim -reps 2 -budget 1s \
		-min-trsv-speedup $(TRSV_SPEEDUP)

# bench-micro runs the micro-benchmarks behind the quoted per-unit
# numbers once each: per-entry vs batched accumulator updates (ns/update
# per kind), the four iteration spaces on the circuit graph (ns/flop),
# the facade's triangle count warm on an engine on the LiveJournal graph,
# and on the road graph at corpus scale at one and two workers (ns/op
# and allocs/op: the pair is the count's p = 2 speedup), the lower
# view's two row kernels forced on the eight triangle-count graphs
# (ns/op and the work per op: the rows internal/model fits the view's
# unit costs to),
# BFS on the road graph (ns/op and allocs/op), BC on the 57 x 100 road
# lattice at 1, 4 and 16 sources (ms/op and allocs/op, which must not
# grow with the source count), k-truss(4) warm on an engine (B/round: what a round
# allocates once its result storage is recycled) and its round rule's
# unit costs on a corpus-scale web graph (rounds/full and rounds/delta:
# ns and probes per visit — the medians internal/model derives the
# rule's probe weight from), one product repeated
# with MxM on a shared engine (the facade's warm repeat path: allocs/op,
# B/op), one warm triangular solve through the facade,
# through core's automatic mode (facade-auto and core-auto must differ by
# the result vector only), and core's serial and wave modes (ns/nnz),
# and the solve verdict's unit costs: one serial substitution walked in
# substitution order and in level-set order (ns/nnz), and a wave run's
# spawn (ns/op, and allocs/op: what one warm multi-worker run allocates) and
# staggered barrier crossing, both accumulator families
# swept over cols/RowCap (ns/flop: the medians internal/model derives the
# planner's dense-state factor from) and the dense state swept over its
# bytes (ns/work: the medians internal/model derives the window floor
# from), and matrix construction on RMAT 2^16 and a 300^2 road lattice:
# ToCSR on shuffled triples, Symmetrize and Transpose (ns/nnz; Symmetrize
# should stay within 4x Transpose). One iteration is a smoke test;
# for numbers drop `-benchtime 1x` and add `-count`.
bench-micro:
	$(GO) test -run '^$$' -bench '^BenchmarkAccumulatorRow$$' -benchtime 1x ./internal/accum
	$(GO) test -run '^$$' -bench '^BenchmarkAccumulatorChoice$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkIterationSpaces$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkGraphAlgorithms$$/^TriangleCount$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkGraphAlgorithms$$/^BFSRoad$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkGraphAlgorithms$$/^BC$$/^road-57x100$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkGraphAlgorithms$$/^KTruss$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkRepeatedMultiply$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkTRSVWarm$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkViewKernels$$' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkSolveOrder$$' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkWaveCrossing$$' -benchtime 1x ./internal/sched
	$(GO) test -run '^$$' -bench '^BenchmarkBuild$$' -benchtime 1x ./internal/sparse
