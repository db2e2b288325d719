# Development entry points for the EPRONS reproduction.
#
#   make check      — everything CI needs: build, lint (gofmt + vet), tests,
#                     and the race detector over the concurrency-bearing
#                     packages (internal/parallel and internal/core for the
#                     worker pool and sweeps; internal/sim because every
#                     sweep worker drives its own engine; internal/netsim,
#                     internal/cluster and internal/faults for the
#                     fault-injection availability harness that runs inside
#                     parallel sweeps; internal/controller, internal/workload
#                     and internal/experiments for the overload control
#                     plane and its parallel sweeps; internal/placement
#                     for the replicated search tier).
#   make lint       — gofmt (must be clean) + go vet.
#   make bench      — the allocation/latency benchmarks the perf work tracks
#                     (engine scheduling/cancellation, packet forwarding,
#                     background elephants packet vs fluid, FFT convolution
#                     reuse, DVFS decide, consolidation at k=16/k=32, Fig 10
#                     end-to-end packet/fluid/k=8, Fig 15 end-to-end).
#   make bench-json — run the tier-1 benches and snapshot them to
#                     BENCH_<n>.json (name, ns/op, B/op, allocs/op) so the
#                     perf trajectory is machine-readable across PRs.
#   make benchcmp   — run the tier-1 benches twice (-count=$(BENCHCOUNT))
#                     and print benchstat-style deltas between the two runs
#                     (a noise-floor check); or compare two recorded runs:
#                     make benchcmp OLD=old.txt NEW=new.txt
#   make benchguard — run the tier-1 benches once and compare against the
#                     latest BENCH_<n>.json snapshot; fails (exit != 0) when
#                     any benchmark's B/op or allocs/op grew more than
#                     $(BENCHGUARD_PCT)% (ns/op is reported but not gated —
#                     wall time is machine-sensitive, allocation counts are
#                     deterministic). Part of `make check`.
#   make race       — just the race-detector subset, plus a race-enabled
#                     Fig 10 smoke sweep with two concurrent cell workers
#                     and a race-enabled replicated-tier smoke sweep (R=3,
#                     hedged selection) of the parallel replica harness.
#   make fuzz-short — a bounded run of the native fuzz targets (surge
#                     multiplier safety, admission hysteresis invariants,
#                     replica failover conservation under random crash/repair
#                     schedules, fluid promote/demote vs a dense
#                     reference, analytic-twin monotonicity, route-segment
#                     intern/materialize equivalence, consolidation kernel
#                     vs its frozen node-path reference); FUZZTIME=30s
#                     lengthens each target's budget.
#   make twincheck  — validate the closed-form analytic twin against the
#                     DES on the Fig 10 grid and the trained server table
#                     (quick grid); fails when an in-domain cell breaks
#                     the pinned error bands.

GO ?= go
FUZZTIME ?= 10s
GOFMT ?= gofmt

# The tier-1 benchmark suite tracked across PRs: scheduler hot path,
# packet pipeline, background-elephant cost (packet vs fluid), FFT/DVFS
# kernels, the consolidation kernel (Balance at k=32, Greedy at k=16), and
# the Fig 10 (packet, fluid, k=8, k=16, k=32) and Fig 15 end-to-end
# sweeps.
BENCH_PATTERN = 'BenchmarkEngine|BenchmarkNetsimForward|BenchmarkNetsimBackground|BenchmarkFFT|BenchmarkDVFS|BenchmarkAblationConvolution|BenchmarkConsolidate|BenchmarkFig10|BenchmarkFig15DiurnalSavings'
BENCH_PKGS = . ./internal/sim ./internal/netsim ./internal/fft ./internal/dvfs ./internal/consolidate
BENCHCOUNT ?= 3
BENCHGUARD_PCT ?= 10

.PHONY: check build lint vet test race fuzz-short bench bench-json benchcmp benchguard twincheck

check: build lint test race twincheck benchguard

build:
	$(GO) build ./...

lint:
	@fmt_out=$$($(GOFMT) -l cmd examples internal); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/parallel ./internal/core ./internal/sim ./internal/netsim ./internal/cluster ./internal/faults ./internal/controller ./internal/workload ./internal/experiments ./internal/metrics ./internal/topology ./internal/placement
	$(GO) run -race ./cmd/netsweep -fig 10 -duration 0.2 -workers 2
	$(GO) run -race ./cmd/epronsim -replicas 3 -selection hedged -faultrates 1 -faultdur 0.5

# Each `go test -fuzz` invocation accepts exactly one target, so the
# corpus-growing runs go one per line.
fuzz-short:
	$(GO) test -run XXX -fuzz FuzzSurgeMultiplier -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run XXX -fuzz FuzzAdmission -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run XXX -fuzz FuzzReplicaFailover -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run XXX -fuzz FuzzFluidPromoteDemote -fuzztime $(FUZZTIME) ./internal/netsim
	$(GO) test -run XXX -fuzz FuzzTwinMonotonic -fuzztime $(FUZZTIME) ./internal/twin
	$(GO) test -run XXX -fuzz FuzzRouteIntern -fuzztime $(FUZZTIME) ./internal/fattree
	$(GO) test -run XXX -fuzz FuzzConsolidateKernel -fuzztime $(FUZZTIME) ./internal/consolidate

twincheck:
	$(GO) run ./cmd/joint -twincheck -quick

bench:
	$(GO) test -run XXX -bench $(BENCH_PATTERN) -benchmem $(BENCH_PKGS)

bench-json:
	$(GO) test -run XXX -bench $(BENCH_PATTERN) -benchmem -count $(BENCHCOUNT) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson

# Memory-regression gate: a fresh single-count tier-1 bench run against the
# newest recorded snapshot. B/op and allocs/op are stable enough to gate
# hard; ns/op deltas are printed for the eyeball only.
benchguard:
	@base=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1); \
	if [ -z "$$base" ]; then echo "benchguard: no BENCH_<n>.json baseline; run make bench-json first"; exit 1; fi; \
	new=$$(mktemp); \
	echo "benchguard: tier-1 bench run vs $$base (threshold $(BENCHGUARD_PCT)% on B/op, allocs/op)..."; \
	$(GO) test -run XXX -bench $(BENCH_PATTERN) -benchmem $(BENCH_PKGS) > $$new || { cat $$new; rm -f $$new; exit 1; }; \
	$(GO) run ./cmd/benchcmp -guard -threshold $(BENCHGUARD_PCT) $$base $$new; st=$$?; \
	rm -f $$new; exit $$st

benchcmp:
ifdef OLD
	$(GO) run ./cmd/benchcmp $(OLD) $(NEW)
else
	@old=$$(mktemp); new=$$(mktemp); \
	echo "benchcmp: run 1/2 (count=$(BENCHCOUNT))..."; \
	$(GO) test -run XXX -bench $(BENCH_PATTERN) -benchmem -count $(BENCHCOUNT) $(BENCH_PKGS) > $$old; \
	echo "benchcmp: run 2/2..."; \
	$(GO) test -run XXX -bench $(BENCH_PATTERN) -benchmem -count $(BENCHCOUNT) $(BENCH_PKGS) > $$new; \
	$(GO) run ./cmd/benchcmp $$old $$new; \
	rm -f $$old $$new
endif
