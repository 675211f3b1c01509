# Convenience targets for the interference reproduction.

GO ?= go

.PHONY: all build test test-race verify bench profile cover cover-check results faults crash examples fuzz fabric serve load-test chaos-soak failover-drill clean

all: build vet test test-race bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# cmd/benchmark is its own module (see its README), so ./... skips it.
test:
	$(GO) test ./...
	cd cmd/benchmark && $(GO) vet . && $(GO) test .

# Race-check the whole tree — the parallel experiment runner
# (internal/runner) fans experiments out over a worker pool, so the
# tier-1 verify flow runs the suite under the race detector too.
test-race:
	$(GO) test -race ./...

# Re-run every experiment and diff against the golden files in results/
# (non-zero exit + unified diff on drift). Populates the point cache at
# results/.cache, so a repeat verify replays unchanged points in well
# under a second.
verify:
	$(GO) run ./cmd/interference -all -verify -q

# Performance trajectory: solver/kernel/stats microbenchmarks (with
# their reference baselines), the per-point and per-figure paper
# benchmarks, the golden campaign's deterministic counters (fluid
# solves, points executed, memo hits: BenchmarkCampaignCounters), the
# task runtime's idle-worker herd (BenchmarkWorkerHerd) and the MPI
# ping-pong's resumes per iteration (BenchmarkPingPong), all
# folded into BENCH_sim.json by cmd/benchreport. End-to-end walls come
# from `bash cmd/benchmark/run.sh`. Compare trajectories with
#   go run ./cmd/benchreport -totext <old.json> > old.txt   (+ new)
#   benchstat old.txt new.txt
bench:
	$(GO) test -bench=. -benchmem -benchtime=200ms -run='^$$' ./internal/fluid ./internal/sim ./internal/stats ./internal/kernels ./internal/bench ./internal/runner ./internal/taskrt ./internal/mpi > bench_output.txt
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' . >> bench_output.txt
	$(GO) run ./cmd/benchreport -in bench_output.txt -out BENCH_sim.json

# CPU profile of the golden campaign (BenchmarkCampaignCounters, 4
# campaigns, no point cache), printed flat and cumulative: one command
# to re-measure the terms a solver optimisation would go after. The
# profile stays in cpu.pprof for `go tool pprof`.
profile:
	$(GO) test -bench='BenchmarkCampaignCounters$$' -benchtime=4x -run='^$$' -cpuprofile cpu.pprof ./internal/runner
	$(GO) tool pprof -top -nodecount=40 cpu.pprof
	$(GO) tool pprof -top -cum -nodecount=40 cpu.pprof

# Total test coverage, and the ratchet: fail if total coverage drops
# more than 0.5 points below the committed baseline
# (.github/coverage-baseline.txt). Raise the baseline when coverage
# durably improves.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	base=$$(cat .github/coverage-baseline.txt); \
	awk -v t="$$total" -v b="$$base" 'BEGIN { \
		if (t + 0.5 < b) { printf "coverage %.1f%% is more than 0.5 points below the %.1f%% baseline\n", t, b; exit 1 } \
		printf "coverage %.1f%% (baseline %.1f%%)\n", t, b }'

# Regenerate every experiment's golden file in results/ (ASCII tables).
results:
	$(GO) run ./cmd/interference -all -runs 3 -update -q

# Run the fault-injection experiment family (ping-pong and overlap
# under the built-in fault-intensity sweep; see EXPERIMENTS.md).
faults:
	$(GO) run ./cmd/interference -exp faults

# Run the node-crash fault-tolerance experiments: ping-pong under peer
# death and the resilient CG with checkpoint rollback (EXPERIMENTS.md).
crash:
	$(GO) run ./cmd/interference -exp faults-crash-pingpong
	$(GO) run ./cmd/interference -exp faults-crash-cg

# Run every example program, then the ping-pong sweep (to 4 KiB) and
# the cluster preset summary.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/placement
	$(GO) run ./examples/intensity
	$(GO) run ./examples/kernels
	$(GO) run ./examples/autotune
	$(GO) run ./examples/distributed
	$(GO) run ./examples/faults
	$(GO) run ./cmd/pingpong -max 4096
	$(GO) run ./cmd/topo

# Short fuzz passes: fluid solver invariants, the fluid differential
# fuzzer (every program on both fill paths under the reference-solver
# oracle), machine-spec JSON parsing, fabric-spec JSON parsing, fault-schedule spec parsing,
# campaign-spec submissions, point-payload decoding, point-cache pack
# and index parsing, table-cell formatting.
fuzz:
	$(GO) test ./internal/fluid/ -fuzz FuzzSolverInvariants -fuzztime 30s
	$(GO) test ./internal/fluid/ -fuzz FuzzFluid -fuzztime 30s
	$(GO) test ./internal/topology/ -fuzz FuzzReadSpec -fuzztime 30s
	$(GO) test ./internal/topology/ -fuzz FuzzFabricSpec -fuzztime 30s
	$(GO) test ./internal/fault/ -fuzz FuzzParseSchedule -fuzztime 30s
	$(GO) test ./internal/server/ -fuzz FuzzSubmitSpec -fuzztime 30s
	$(GO) test ./internal/bench/ -fuzz FuzzDecodePayload -fuzztime 30s
	$(GO) test ./internal/runner/ -fuzz FuzzParseIdx -fuzztime 30s
	$(GO) test ./internal/runner/ -fuzz FuzzScanPackRefs -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzTableCell -fuzztime 30s

# The switched-fabric battery: topology shape/routing invariants, the
# max-min property storm over random fabrics, the pinned two-node
# network (wire names, capacity, latency, transfer instants), the fabric
# experiment determinism sweep, the 128-host multi-job worlds under the
# fluid differential oracle (TestFabricDifferentialK8), and the 1k-host
# solve budget — all under the race detector.
fabric:
	$(GO) test -race -count=1 -run 'Fabric' ./internal/topology/ ./internal/net/ ./internal/bench/ ./internal/runner/ ./internal/server/

# Boot the campaign daemon on :7077 with its point cache under
# interfd-data/ (clients: `interference -remote http://host:7077` or raw
# POSTs to /campaign; see EXPERIMENTS.md). SIGINT/SIGTERM drain
# gracefully: admission closes, in-flight campaigns finish within
# -drain-timeout (default 30s), the cache is flushed, exit 0 — a client
# resubmits a campaign that outlived the window, replaying its flushed
# points.
serve:
	$(GO) run ./cmd/interfd

# The daemon concurrency battery under the race detector: many clients,
# overlapping campaign specs, byte-identity and exactly-once assertions
# (size with SERVER_LOAD_CLIENTS / SERVER_LOAD_PER_CLIENT).
load-test:
	$(GO) test -race -run TestServerLoad -count=1 -v ./internal/server/

# The chaos battery under the race detector: the load storm against
# daemons with failing disks and a hostile network, asserting
# byte-identity, the exactly-once bound, degradation behaviour
# and graceful shutdown, a CLI -remote run retrying one injected 503,
# 500 or cut response, torn point-cache pack and index writes, plus the
# runner.Flight unit tests and the
# regressions for a panicked flight leader and a cancelled campaign.
# Reproduce a red run with its printed seed:
# CHAOS_SEED=<n> make chaos-soak. Size with CHAOS_SOAK_CLIENTS /
# CHAOS_SOAK_PER_CLIENT.
chaos-soak:
	$(GO) test -race -run 'TestServerChaosSoak|TestCampaignDegrade|TestHealedDiskServesNextCampaign|TestRemoteRetriesTransientFailure|TestDaemonGracefulShutdown|TestDaemonChaosDrill|TestCacheTornWrite|TestFlight|PanickedLeader|TestCancelledCampaignJoinsNothing' -count=1 -v ./internal/runner/ ./internal/server/ ./cmd/interfd/ ./cmd/interference/

# The stampede battery under the race detector: the in-process failover
# soak (two replicas, one cache dir, a kill switch in the transport),
# the server overload storm at 2x capacity and the admission unit tests
# (fair share, drain-rate Retry-After), and the end-to-end drill — two
# real interfd processes sharing a -cache-dir, one SIGKILLed
# mid-storm, byte-identical completion required. Size with REPLICA_SOAK_CLIENTS /
# REPLICA_SOAK_PER_CLIENT and FAILOVER_DRILL_CLIENTS /
# FAILOVER_DRILL_PER_CLIENT.
failover-drill:
	$(GO) test -race -run 'TestFailoverSoak|TestServerOverloadStorm|TestOverload|TestServerFairShareShedding|TestInterfdFailoverDrill' -count=1 -v ./internal/replica/ ./internal/server/ ./cmd/interfd/

clean:
	rm -rf results test_output.txt bench_output.txt
