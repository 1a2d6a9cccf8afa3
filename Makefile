GO ?= go

.PHONY: all build vet test race cover bench bench-smoke exact-ref profile-fw fuzz-smoke chaos transition daemon degrade

all: build vet test

build:
	$(GO) build ./...

# vet also holds the docs to the tree, the code to its callers and every
# exported field to a writer outside tests (TestDocs, TestNoDeadExports,
# TestNoTestOnlyKnobs and their fixtures: one type-checked load, a few
# seconds), so every target that depends on it fails on a dead export, a
# knob only tests turn or a stale name.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(GO) test -count=1 -run 'TestDocs|TestNoDeadExports|TestDeadExportsFixture|TestNoTestOnlyKnobs|TestTestOnlyKnobsFixture' .

test:
	$(GO) test ./...

# Each CI job runs one or two of the targets below, so the test lists
# exist once, here.

# race runs the full suite under the race detector; the parallel solver
# and evaluation engine must stay clean here at any worker count. It
# includes the worker-pool gates (DESIGN.md §14) and go vet's copylocks
# check, which keeps core.Plan from being copied by value.
race: build vet
	$(GO) test -race ./...

# cover writes the suite's coverage profile, which CI keeps as an artifact.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...

# bench runs the repository's one benchmark, the command BENCHMARK.json
# declares (bench/r3bench; see bench/README.md for its flags).
bench:
	bash bench/run.sh

# bench-smoke runs the hot-path gates (DESIGN.md §4–§8, §12):
# zero-allocation kernels, sweeps and emulator hops (./internal/netem), the
# pinned-base allocation ceiling, worst-load differentials, the dense
# oracles of the sparse commodity rows, of loop cancellation, of the
# sparse protection half and of the row-by-row protection clean-up
# (sanitizeProt), the per-OD oracle of the per-destination exact LP
# (optimum, valid rows, loads), the canonical form of every plan's sparse
# base and protection rows against their dense view, the paired
# line-search probes against single ones, the block sweeps' line-search
# objective against its documented contract, the pinned plan digests, the
# plan encoder against encoding/json and its allocation whatever the
# collector did, the shortest-path baselines' loads bit for bit, the
# per-scenario baselines' allocation per scenario (link loads, no dense
# flow, pooled scratches; ./internal/protect); then,
# verbosely, the SPF kernel plan differential (flat reference, heap and
# delta-stepping DynTree rebuilds); then vet plus the smoke test of the
# nested benchmark module (bench/ has its own go.mod, so the root `go test
# ./...` never compiles it).
bench-smoke:
	$(GO) test -count=1 -run 'ZeroAlloc|TestPinnedPrecomputeAllocationCeiling|TestWorstLoadSelectionDifferential|TestColTop|TestSparseRowMatchesDenseRow|TestCancelLoopsMatchesDenseOracle|TestMinMLUMatchesDenseOracle|TestMinMLUExactMatchesPerODOracle|TestSparseProtectionMatchesDenseOracle|TestSanitizeProtMatchesDenseOracle|TestPlanBaseRowsAreCanonical|TestTernaryMinPairMatchesSingleProbe|TestSweepLSEMatchesDirectObjective|TestBenchmarkPlanDigest|TestEncodeBytesMatchesJSONOracle|TestEncodeAllocIsSteady|TestBaselineSchemesGolden|TestBaselineLoadsAllocation' . ./internal/core ./internal/spf ./internal/routing ./internal/mcf ./internal/exp ./internal/netem ./internal/protect
	$(GO) test -count=1 -run 'TestSPFModeByteIdentity' -v ./internal/core
	cd bench && $(GO) vet ./... && $(GO) test ./...

# exact-ref pins the exact min-MLU references under r3plan's default
# traffic that are too slow for the tier-1 suite: generated-100's optimum
# (about a minute). UUNet's reference runs in go test ./... as well.
exact-ref:
	$(GO) test -count=1 -tags exactref -run 'TestExactReference' ./internal/mcf

# profile-fw captures CPU and allocation profiles of a precompute on the
# generated topology via r3plan's -cpuprofile/-memprofile flags; inspect
# with `go tool pprof cpu_fw.pprof`.
profile-fw: build
	$(GO) run ./cmd/r3plan -net generated -f 1 -effort 100 -workers 1 \
		-cpuprofile cpu_fw.pprof -memprofile mem_fw.pprof

# chaos runs the seeded fault-injection property suite — the 30%-loss
# convergence acceptance test, Theorem 3 permutation tests, the
# loop-guard and invariant-checker tests — plus vet, the pinned digests of
# the r3emu emulation under both forwarders, then a seeded chaos sweep
# (DESIGN.md §12).
chaos: vet
	$(GO) test -count=1 -run 'TestChaos|TestReliableFlood|TestFireOnce|TestReflood|TestTheorem3|TestForwardLoopGuard|TestInvariant' ./internal/netem
	$(GO) test -count=1 -run 'TestFingerprint' ./internal/mplsff
	$(GO) test -count=1 -run 'TestChaosLossSweep|TestEmulationFingerprintGolden' ./internal/exp
	$(GO) run ./cmd/r3emu -fig sweep -phase 1 -effort 40 -chaos-runs 2

# transition runs, under the race detector, the scheduler suite (both models: sequence
# goldens, property/differential tests, the crossing-commodities
# constructs), delta/round versioning, staged delivery of both kinds of
# sequence through the emulator, both staged-vs-one-shot sweeps, and the
# copy-on-write State gates (eager-copy oracle, plan-never-written hash,
# concurrent NewState, allocation bound; DESIGN.md §9); then the staged
# scheduling smoke runs (DESIGN.md §10).
transition:
	$(GO) test -race -count=1 ./internal/transition
	$(GO) test -race -count=1 -run 'TestDiff|TestApplyRound|TestApplyDelta|TestFailAll' ./internal/mplsff ./internal/core
	$(GO) test -race -count=1 -run 'TestStaged|TestFailAtSilent|TestSwapStaged' ./internal/netem
	$(GO) test -race -count=1 -run 'TestTransitionSweep|TestSwapSweep' ./internal/exp
	$(GO) test -race -count=1 -run 'TestState|TestNewState|TestCloneIsolation|TestFailAll' ./internal/core ./internal/mplsff
	$(GO) run ./cmd/r3plan -net abilene -total 150 -effort 40 -fail 12,13,18,19 -stage
	$(GO) run ./cmd/r3emu -transition -transition-seeds 2 -effort 40
	$(GO) run ./cmd/r3emu -swap -swap-seeds 2 -effort 40

# daemon runs the control-plane suite under the race detector (lifecycle
# byte-identity, concurrent reads across swaps, cache determinism,
# breaker/rate-limit admission) and builds the r3d planner daemon; CI's
# daemon-smoke job then drives the binary over HTTP (DESIGN.md §11).
daemon: vet
	$(GO) test -race -count=1 ./internal/controlplane
	$(GO) build -o r3d ./cmd/r3d

# degrade runs the generalized-scenario suite under the race detector —
# degradation-envelope property tests and polytope differentials,
# hard-failure byte-identity gates, workload-grammar parsers and scenario
# evaluation — plus quick sweeps with and without
# a surge, envelope planning with a what-if replay, and the pinned
# degradation plan digest (DESIGN.md §3).
degrade: vet
	$(GO) test -race -count=1 -run 'TestDegradation|TestScenario|TestSurge|TestWorkload|TestParse|TestVerify|TestEnumerate|TestSample|TestApplyScenario|TestEffectiveKind|TestNodeScenario' ./internal/core
	$(GO) test -race -count=1 -run 'TestCapScale' ./internal/mcf
	$(GO) test -race -count=1 -run 'TestEvaluateScenarios|TestBottleneckScaled|TestScenarioScheme' ./internal/eval
	$(GO) test -race -count=1 -run 'TestDegradationSweep' ./internal/exp
	$(GO) test -race -count=1 -run 'TestScenarioEndpoint' ./internal/controlplane
	$(GO) run ./cmd/r3sim -exp degrade -quick
	$(GO) run ./cmd/r3sim -exp degrade -quick -surge 1.3 -surgefrac 0.25
	$(GO) run ./cmd/r3plan -net abilene -total 150 -effort 40 -workload 'alpha=0.5,budget=1.5' -verify 1 -verifycap 64
	$(GO) run ./cmd/r3plan -net abilene -total 150 -effort 40 -degrade 0.5 -degradelinks '4:0.5' -fail 0
	$(GO) run ./cmd/r3plan -net sbc -degrade 0.5 -budget 2 -effort 60 -fingerprint | grep -qx 'plan digest: 5f65cc6b98082ffd'

# fuzz-smoke runs each fuzz target briefly.
fuzz-smoke:
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/topo
	$(GO) test -fuzz '^FuzzParseMatrix$$' -fuzztime 10s ./internal/traffic
	$(GO) test -fuzz '^FuzzLPDifferential$$' -fuzztime 10s ./internal/lp
	$(GO) test -fuzz '^FuzzLUSolve$$' -fuzztime 10s ./internal/lp
	$(GO) test -fuzz '^FuzzWorkloadSpec$$' -fuzztime 10s ./internal/core
	$(GO) test -fuzz '^FuzzStateOracle$$' -fuzztime 10s ./internal/core
	$(GO) test -fuzz '^FuzzHopRule$$' -fuzztime 10s ./internal/spf
	$(GO) test -fuzz '^FuzzCancelLoops$$' -fuzztime 10s ./internal/routing
