# Convenience targets for the checks CI (and pre-commit hands) should
# run. `make ci` is the full gate; the individual targets exist so a
# quick edit-compile loop doesn't have to pay for the race campaigns.

GO ?= go

# The golden campaign: the spec behind testdata/golden_4x4_seed3.json
# and `make shardcheck` (CI's shard job); cmd/faultcampaign's golden4x4
# and e2e's goldenArgs spell it too. Keep them in sync.
GOLDEN_FLAGS = -mesh 4x4 -vcs 4 -rate 0.12 -seed 3 -inject 300 -post 400 \
	-drain 5000 -epoch 400 -faults 96

# Coverage floor for `make cover` (percent of statements across
# ./internal/...). Raise it when coverage rises; never lower it to
# merge — add tests instead.
COVER_FLOOR = 89.0

.PHONY: all build fmt vet lint deadcode test race cover e2e e2e-dist benchfleet ci golden paper paper-fleet shardcheck identity fuzz-smoke build386 test386

all: ci

build:
	$(GO) build ./...

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint = formatting + vet, plus staticcheck and govulncheck when they
# are installed (the CI lint job installs both; the local gate must
# not depend on a download).
lint: fmt vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go vet ran)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipped"; fi

# deadcode links every main package (cmd/, bench) with the linker's
# dependency dump and fails on any function or method declared in a
# non-test file under internal/ that none of them links and
# testdata/deadcode.allow does not name with a reason, or on an
# allowlist line that has gone stale (see deadcode_link_test.go). A helper
# only one package's tests use belongs in that package's _test.go files.
deadcode:
	$(GO) test -count=1 -tags deadcode -run '^TestDeadcode$$' .

# test also vets and race-checks the telemetry packages — they are
# quick under -race, unlike the full campaign suite (see race).
test: vet
	$(GO) test ./...
	$(GO) test -race ./internal/metrics ./internal/trace

# The campaign, simulator, metrics, trace and server packages are the
# concurrent ones (worker pools forking clones, lock-free instrument
# updates, NDJSON writers, the daemon's queue/worker/event fan-out);
# run them under the race detector, plus the step-loop packages (core,
# router, soa, fault) whose shared-array state campaign workers mutate in
# parallel, forever, whose golden monitor a split window's two goroutines
# hand between them and campaign workers follow, and statehash, whose
# test folds one shared snapshot from several goroutines (a state fold may write the fold cache of a network
# its goroutine steps, never a snapshot's: DESIGN.md §3.2). Measured on the shared two-core box at PR 27: 4 min 27 s of
# wall (`internal/campaign` 266 s race-enabled, which bounds it;
# `internal/sim` 105 s, `internal/core` 107 s; uncached tier-1 `go test
# ./...` is 32 s of wall), against 5 min 5 s and 38 s at PR 26: every
# campaign's fault-free warm-up steps its awake routers only. ROADMAP item
# 10's race target (< 5 min) is met with half a minute to spare. The
# campaign package was 12 min at PR 17 and 14 at PR 20, over go test's
# ten-minute default, which is why this target carried `-timeout 30m`
# until an armed fault stopped costing the mesh (PR 22).
race:
	$(GO) test -race ./internal/campaign ./internal/sim ./internal/metrics \
		./internal/trace ./internal/server ./internal/obs ./internal/coordinator \
		./internal/core ./internal/router ./internal/soa ./internal/fault \
		./internal/statehash ./internal/forever

# cover enforces the coverage floor over ./internal/... and leaves the
# profile in cover.out for inspection (`go tool cover -html=cover.out`).
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./internal/...
	@total="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}')"; \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { if (t+0 < f+0) exit 1 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# e2e runs every test in ./e2e: it builds the real nocalertd binary,
# SIGKILLs it mid-campaign over HTTP, restarts it, and requires the
# resumed job's report to be byte-identical to an uninterrupted run's (see
# e2e/restart_test.go), runs the distributed gate below, and scrapes a
# fresh daemon's /metrics after two shards of one campaign through omlint
# (e2e/metrics_test.go: golden-cache hit and miss, group-wait count). -count=1:
# the tests drive daemons go's test cache cannot see, so a repeated run
# runs them again instead of reporting the cached pass.
e2e:
	$(GO) test -tags e2e ./e2e -count=1 -v -timeout 20m

# e2e-dist is the distributed gate alone, for a local run (CI's e2e job
# runs it through make e2e): a coordinator dispatching the
# golden campaign to a local 3-worker fleet, one worker SIGKILLed
# mid-flight, merged report byte-identical to the unsharded run and the
# committed fixture (see e2e/distributed_test.go).
e2e-dist:
	$(GO) test -tags e2e ./e2e -run TestDistributed -count=1 -v -timeout 20m

# The paper-scale 8×8 campaign behind testdata/report_8x8_seed3.json: the
# 0.05 injection rate, a 64-fault sample at cycle 300. `make identity` also
# runs the Observation-3 table (permanent faults) on it.
REPORT_8X8_FLAGS = -mesh 8x8 -rate 0.05 -inject 300 -post 500 \
	-drain 10000 -epoch 1500 -faults 64 -seed 3 -fig none -progress=false

# The 16×16 campaign `make identity` holds the default run path to -fullsim
# on, a small universe on the largest mesh. No report is committed: the two
# runs' reports are compared with each other.
REPORT_16X16_FLAGS = -mesh 16x16 -rate 0.02 -inject 300 -post 500 \
	-drain 10000 -epoch 1500 -faults 32 -seed 3 -fig none -progress=false

# A 4×4 campaign whose golden ForEVeR flags (an epoch of 25 cycles: every
# run's ForEVeR answer is TP or FP): `make identity` holds the default run
# path to -fullsim on it, where a fast-path or reconverged run's ForEVeR
# answer comes from the golden monitor's recorded flags. No report is
# committed; a 2048-fault sample keeps it to a few seconds.
FLAGGING_FLAGS = -mesh 4x4 -rate 0.12 -inject 300 -post 200 -epoch 25 \
	-seed 7 -faults 2048 -fig none -progress=false

# The multi-cycle campaign behind testdata/report_8x8_multicycle_seed3.json
# (and the repository benchmark's w8x8_fixedcost at full scale): the
# paper's injection instants on the 8×8 mesh, the one committed report
# whose runs overlap the golden warm-up that publishes their groups.
MULTICYCLE_FLAGS = -mesh 8x8 -rate 0.05 -inject 0,16000,32000 -post 500 \
	-drain 10000 -epoch 1500 -faults 96 -seed 3 -fig none -progress=false

# benchfleet runs the repository benchmark's fleet workload alone (8
# shards of one campaign over two in-process daemons, see bench/) with
# its traced repetition, so the result carries the per-layer rows the
# golden artefact cache is judged by: coordinator.golden_recompute_s,
# coordinator.fleet_overhead_ratio, campaign.fixed_cost_share. Needs two
# cores. Compare two result files with `go run ./bench -compare A B`.
BENCHFLEET_OUT ?= bench-fleet.json
benchfleet:
	$(GO) run ./bench -workload svc_fleet8 -trace 1 -out $(BENCHFLEET_OUT)

# golden regenerates the committed fixtures — the 4×4 and 8×8 record
# fixtures, the armed-fault report fixture, the full JSON report
# fixtures the identity gate compares against and the multi-cycle
# one TestMulticycleReportFixture holds the warm-up pipeline to — after
# an intentional behaviour change; commit the diff it produces.
golden:
	$(GO) test ./internal/campaign -run 'TestGoldenFixture|TestArmedFaultReportFixture' -update-golden -v
	$(GO) run ./cmd/faultcampaign $(GOLDEN_FLAGS) -fig none -progress=false \
		-json testdata/report_4x4_seed3.json
	$(GO) run ./cmd/faultcampaign $(REPORT_8X8_FLAGS) \
		-json testdata/report_8x8_seed3.json
	$(GO) run ./cmd/faultcampaign $(MULTICYCLE_FLAGS) \
		-json testdata/report_8x8_multicycle_seed3.json

# The paper's campaign spec (§5.1): the 8×8 mesh at the 0.05 injection
# rate. `make paper` injects every one of its 32 256 fault locations
# (-faults 0) at each of PAPER_CYCLES and TestPaperPopulation re-runs
# cycle 0; keep the test's paperFlags in sync.
PAPER_FLAGS = -mesh 8x8 -rate 0.05 -seed 1
PAPER_CYCLES = 0 16000 32000

# paper regenerates testdata/paper/, the files EXPERIMENTS.md quotes
# (docs_test.go holds the quotes to them): for each of the paper's
# injection instants one full-population campaign through a checkpoint and
# merge (cycleC.json, the report; cycleC.txt, merge's stdout with the
# records checksum; the campaign and merge each exit 1, and the recipe
# stops, on a NoCAlert false negative), the Observation-3 table on the same spec, which
# `-fig obs3` alone prints without a main campaign (obs3.txt: 40
# transient and 40 permanent SA1-grant faults at cycle 32 000), and the
# hardware model's Figure 10 and §5.5 (hwcost.txt). About 20 s on two
# cores; run it after an intentional behaviour change and commit the diff
# it produces. The checkpoints, every run's record, stay in .paper/ for
# folds over the population.
paper:
	rm -rf .paper && mkdir -p .paper testdata/paper
	$(GO) build -o .paper/faultcampaign ./cmd/faultcampaign
	for c in $(PAPER_CYCLES); do \
		.paper/faultcampaign $(PAPER_FLAGS) -faults 0 -inject $$c -checkpoint .paper/c$$c.ndjson || exit 1; \
		.paper/faultcampaign merge -out testdata/paper/cycle$$c.json .paper/c$$c.ndjson \
			> testdata/paper/cycle$$c.txt || exit 1; \
	done
	.paper/faultcampaign $(PAPER_FLAGS) -inject 32000 -fig obs3 -progress=false > testdata/paper/obs3.txt
	$(GO) run ./cmd/hwcost > testdata/paper/hwcost.txt

# paper-fleet is make paper's cycle-32 000 campaign through the fleet: two
# local nocalertd daemons, each started and found by its listen line on
# stdout, the spec dispatched over them as two shards (each daemon warms its
# own golden reference up), and the merged report compared byte for byte
# with testdata/paper/cycle32000.json. The trap kills both daemons and
# removes .paper-fleet/ on every exit path, an interrupt included. It needs
# make paper's committed output, not its .paper/ checkpoints, and is no part
# of ci.
paper-fleet:
	@set -e; rm -rf .paper-fleet; mkdir -p .paper-fleet; \
	trap 'trap "" INT TERM HUP; kill $$(cat .paper-fleet/*.pid 2>/dev/null) 2>/dev/null; wait; rm -rf .paper-fleet' EXIT; \
	trap 'exit 1' INT TERM HUP; \
	$(GO) build -o .paper-fleet/nocalertd ./cmd/nocalertd; \
	$(GO) build -o .paper-fleet/faultcampaign ./cmd/faultcampaign; \
	workers=; for d in 0 1; do \
		.paper-fleet/nocalertd -addr localhost:0 -dir .paper-fleet/state$$d \
			> .paper-fleet/daemon$$d.out 2> .paper-fleet/daemon$$d.err & echo $$! > .paper-fleet/daemon$$d.pid; \
		for i in $$(seq 1 50); do grep -q 'listening on' .paper-fleet/daemon$$d.out && break; sleep 0.1; done; \
		addr="$$(sed -n 's/^nocalertd: listening on \([^ ]*\).*/\1/p' .paper-fleet/daemon$$d.out)"; \
		test -n "$$addr" || { echo "daemon $$d never came up"; cat .paper-fleet/daemon$$d.err; exit 1; }; \
		workers="$$workers$${workers:+,}http://$$addr"; \
	done; \
	.paper-fleet/faultcampaign dispatch -workers "$$workers" $(PAPER_FLAGS) -faults 0 -inject 32000 \
		-progress=false -out .paper-fleet/cycle32000.json > .paper-fleet/dispatch.txt || { cat .paper-fleet/dispatch.txt; exit 1; }; \
	head -1 .paper-fleet/dispatch.txt; tail -1 .paper-fleet/dispatch.txt; \
	cmp .paper-fleet/cycle32000.json testdata/paper/cycle32000.json; \
	echo "paper-fleet: the fleet's report is testdata/paper/cycle32000.json"

# identity proves the result-invisible switches invisible. The three
# committed JSON report fixtures (the golden 4×4 campaign, the paper-scale
# 8×8 one and the multi-cycle one whose runs overlap the golden warm-up)
# must come out byte for byte by default and under -fullsim (the
# full-simulation reference run path: no fast path, reconvergence,
# frontier or fast-forward). The reference sweep (every node stepped,
# every port visited) is no flag: TestGoldenEngineIdentity and
# TestMulticycleReportFixture hold it to the same reports in tier-1. The 16×16
# campaign, where a run's drain and horizon are cheapest to get
# wrong (256 routers replayed around a cone of three), must report the
# same by default and under -fullsim, and so must the 4×4 campaign whose
# golden ForEVeR flags. Faults that stay armed — only the
# router that hosts one visits its faults' ports whole and leaves the
# inert skip; on the frontier to the end of the run, fast-forwarded from
# the fixed point a permanent fault settles in — are held to the reference
# run path by the one armed campaign the CLI spells, the Observation-3
# table (40 permanent SA1-grant faults, a third of them deadlocks; named
# alone, -fig obs3 runs no main campaign and prints the table only), which
# must read the same in both modes, and through the test binary to the reference
# sweep too by the armed-fault report fixture and the double-fault groups. Last, the fuzzers search for
# 72 s (fuzz-smoke), one of them holding the frontier to the full simulation in lockstep. One shell, so the trap
# removes .identity/ whether or not a cmp fails.
identity:
	@set -ex; rm -rf .identity; mkdir -p .identity; trap 'rm -rf .identity' EXIT; \
	for mode in default fullsim; do \
		case $$mode in default) flags= ;; *) flags=-$$mode ;; esac; \
		$(GO) run ./cmd/faultcampaign $(GOLDEN_FLAGS) -fig none -progress=false $$flags \
			-json .identity/4x4-$$mode.json; \
		cmp .identity/4x4-$$mode.json testdata/report_4x4_seed3.json; \
		$(GO) run ./cmd/faultcampaign $(REPORT_8X8_FLAGS) $$flags -json .identity/8x8-$$mode.json; \
		cmp .identity/8x8-$$mode.json testdata/report_8x8_seed3.json; \
		$(GO) run ./cmd/faultcampaign $(MULTICYCLE_FLAGS) $$flags -json .identity/multicycle-$$mode.json; \
		cmp .identity/multicycle-$$mode.json testdata/report_8x8_multicycle_seed3.json; \
		$(GO) run ./cmd/faultcampaign $(REPORT_8X8_FLAGS) -fig obs3 $$flags > .identity/obs3-$$mode.txt; \
		cmp .identity/obs3-default.txt .identity/obs3-$$mode.txt; \
	done; \
	grep -q '^permanent ' .identity/obs3-default.txt; \
	$(GO) run ./cmd/faultcampaign $(REPORT_16X16_FLAGS) -json .identity/16x16-default.json; \
	$(GO) run ./cmd/faultcampaign $(REPORT_16X16_FLAGS) -fullsim -json .identity/16x16-fullsim.json; \
	cmp .identity/16x16-default.json .identity/16x16-fullsim.json; \
	$(GO) run ./cmd/faultcampaign $(FLAGGING_FLAGS) -json .identity/flagging-default.json; \
	$(GO) run ./cmd/faultcampaign $(FLAGGING_FLAGS) -fullsim -json .identity/flagging-fullsim.json; \
	cmp .identity/flagging-default.json .identity/flagging-fullsim.json; \
	$(GO) test -count=1 -run 'TestArmedFaultReportFixture|TestDoubleFaultGroupMatchesReference' ./internal/campaign; \
	$(MAKE) fuzz-smoke

# fuzz-smoke lets the six fuzzers search on for 72 s between them from their
# seed corpora (which plain `go test` already runs). FuzzFrontierLockstep
# picks meshes up to 6×6, VC counts, rates, routing algorithms and faults,
# the frontier held to the full simulation cycle by cycle;
# FuzzCheckpointResume truncates, extends and flips a shard checkpoint,
# which must then read without a panic and, once resumed, take an append
# and read back whole; FuzzSpecIntake decodes bytes as a job's spec the way
# the daemon does, which must normalize and validate without a panic, and,
# once valid, keep its hash under a second normalization; FuzzJobStateRecover
# writes bytes as a job's state manifest and rebuilds the daemon's job table
# from it, which must, without a panic, refuse it or recover only jobs a
# submission would take: spec hashing to the manifest's recorded spec_hash,
# spec validating, shard index inside [0, shards); FuzzMergeShards reads
# bytes as one shard's checkpoint and merges it beside its honest sibling
# into a report, which must, without a panic, be refused or name, record
# by record, the fault the campaign's universe has at that index. Its
# seed is a 19 KB checkpoint, whose minimization would take the whole
# 12 s, so it is capped at 2 s. FuzzOpenMetricsExposition registers
# counters, gauges and histograms under colliding and invalid names, adds,
# sets (NaN and ±Inf included) and observes, and holds the exposition of
# whatever the registry took to ValidateOpenMetrics. A failing input
# is written under the package's testdata/fuzz/ — commit it with the fix.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFrontierLockstep -fuzztime 12s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzCheckpointResume -fuzztime 12s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzSpecIntake -fuzztime 12s ./internal/campaign
	$(GO) test -run '^$$' -fuzz FuzzJobStateRecover -fuzztime 12s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzMergeShards -fuzztime 12s -fuzzminimizetime 2s ./internal/campaign
	$(GO) test -run '^$$' -fuzz FuzzOpenMetricsExposition -fuzztime 12s ./internal/metrics

# build386 is a build-only cross-compile of the whole module for a
# 32-bit target: the SoA state uses explicitly sized element types
# (int32/uint32/uint64), and this catches any accidental dependence on
# 64-bit int.
build386:
	GOARCH=386 $(GO) build ./...

# test386 runs the short tests of the simulator's packages on the 32-bit
# target, where int is 32 bits: build386 only compiles, and a size worked
# out for amd64 (the transcript's per-event bytes were) or an arbiter or a
# Bernoulli draw that leans on a 64-bit int shows only when tests run.
TEST386_PKGS = ./internal/bitvec ./internal/rng ./internal/flit ./internal/router \
	./internal/sim ./internal/forever ./internal/core ./internal/fault ./internal/golden
test386:
	GOARCH=386 $(GO) test -short $(TEST386_PKGS)

# shardcheck is CI's shard job: run the golden campaign as 4 independent
# shards, merge the checkpoints, and require the merged records to be
# bit-identical to the committed fixture and the merged report to be
# byte-identical to an unsharded run's -json. The merged report stays in
# .shardcheck/merged_report.json, which CI uploads.
shardcheck:
	rm -rf .shardcheck && mkdir -p .shardcheck
	$(GO) build -o .shardcheck/faultcampaign ./cmd/faultcampaign
	for i in 0 1 2 3; do \
		.shardcheck/faultcampaign $(GOLDEN_FLAGS) -progress=false \
			-shard $$i/4 -checkpoint .shardcheck/shard$$i.ndjson || exit 1; \
	done
	.shardcheck/faultcampaign merge -fig none -golden testdata/golden_4x4_seed3.json \
		-out .shardcheck/merged_report.json .shardcheck/shard*.ndjson
	.shardcheck/faultcampaign $(GOLDEN_FLAGS) -progress=false -fig none \
		-json .shardcheck/unsharded_report.json
	cmp .shardcheck/merged_report.json .shardcheck/unsharded_report.json
	@echo "shardcheck: the merged report is bit-identical to the unsharded run"

# ci mirrors the CI test and lint jobs and then races, running every test
# once: the dead-code gate, the 386 cross-build and short 386 tests, ./internal/... under the coverage floor, every other
# package, then the concurrent packages under the race detector.
ci: lint deadcode build build386 test386 cover
	$(GO) test $$($(GO) list ./... | grep -v /internal/)
	$(MAKE) race
