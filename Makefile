GO ?= go

.PHONY: all build vet test race bench bench-smoke profile-fw fuzz-smoke chaos transition daemon degrade

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the parallel solver
# and evaluation engine must stay clean here at any worker count.
race: build vet
	$(GO) test -race ./...

# bench runs the repository's one benchmark, the command BENCHMARK.json
# declares (bench/r3bench; see bench/README.md for its flags).
bench:
	bash bench/run.sh

# bench-smoke runs exactly the commands of the CI bench-smoke job: the
# hot-path gates (zero-allocation kernels and sweeps, the pinned-base
# allocation ceiling, cross-kernel plan bytes, worst-load differentials, the
# dense oracles of the sparse commodity rows, of loop cancellation and of
# the sparse protection half, the paired line-search probes against single
# ones, the pinned plan digests, the plan encoder against encoding/json and
# its allocation whatever the collector did, the shortest-path baselines'
# loads bit for bit), the
# SPF kernel plan differential (flat reference, heap and delta-stepping
# DynTree rebuilds), and vet plus the smoke test of the nested benchmark
# module (bench/ has its own go.mod, so the root `go test ./...` never
# compiles it).
bench-smoke:
	$(GO) test -count=1 -run 'ZeroAlloc|TestPinnedPrecomputeAllocationCeiling|TestSPFModeByteIdentity|TestWorstLoadSelectionDifferential|TestColTop|TestSparseRowMatchesDenseRow|TestCancelLoopsMatchesDenseOracle|TestMinMLUMatchesDenseOracle|TestSparseProtectionMatchesDenseOracle|TestTernaryMinPairMatchesSingleProbe|TestBenchmarkPlanDigest|TestEncodeBytesMatchesJSONOracle|TestEncodeAllocIsSteady|TestBaselineSchemesGolden' . ./internal/core ./internal/spf ./internal/routing ./internal/mcf ./internal/exp
	$(GO) test -count=1 -run 'TestSPFModeByteIdentity' -v ./internal/core
	cd bench && $(GO) vet ./... && $(GO) test ./...

# profile-fw captures CPU and allocation profiles of a precompute on the
# generated topology via r3plan's -cpuprofile/-memprofile flags; inspect
# with `go tool pprof cpu_fw.pprof`.
profile-fw: build
	$(GO) run ./cmd/r3plan -net generated -f 1 -effort 100 -workers 1 \
		-cpuprofile cpu_fw.pprof -memprofile mem_fw.pprof

# chaos runs the seeded fault-injection property suite — the 30%-loss
# convergence acceptance test, Theorem 3 permutation tests, the
# loop-guard and invariant-checker tests — plus vet, mirroring the CI
# chaos-smoke job.
chaos: vet
	$(GO) test -count=1 -run 'TestChaos|TestReliableFlood|TestFireOnce|TestReflood|TestTheorem3|TestForwardLoopGuard|TestInvariant|TestDetectDelay' ./internal/netem
	$(GO) test -count=1 -run 'TestFingerprint' ./internal/mplsff
	$(GO) test -count=1 -run 'TestChaosLossSweep' ./internal/exp

# transition runs exactly the commands of the CI transition-smoke job:
# under the race detector, the scheduler suite (both models: sequence
# goldens, property/differential tests, the crossing-commodities
# constructs), delta/round versioning, staged delivery of both kinds of
# sequence through the emulator, both staged-vs-one-shot sweeps, and the
# copy-on-write State gates (eager-copy oracle, plan-never-written hash,
# concurrent NewState, allocation bound); then the staged scheduling smoke
# runs. go vet, whose copylocks check keeps core.Plan from being copied by
# value, runs in `make race`, as it does in the CI race job.
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
# breaker/rate-limit admission) and builds the r3d planner daemon,
# mirroring the CI daemon-smoke job.
daemon: vet
	$(GO) test -race -count=1 ./internal/controlplane
	$(GO) build -o r3d ./cmd/r3d

# degrade runs the generalized-scenario suite under the race detector —
# degradation-envelope property tests and polytope differentials,
# hard-failure byte-identity gates, workload-grammar parsers, scenario
# evaluation and emulator degradation — plus a quick sweep and the pinned
# degradation plan digest, mirroring the CI workload-smoke job.
degrade: vet
	$(GO) test -race -count=1 -run 'TestDegradation|TestScenario|TestSurge|TestWorkload|TestParse|TestVerify|TestEnumerate|TestSample|TestApplyScenario|TestEffectiveKind|TestNodeScenario' ./internal/core
	$(GO) test -race -count=1 -run 'TestCapScale' ./internal/mcf
	$(GO) test -race -count=1 -run 'TestEvaluateScenarios|TestBottleneckScaled|TestScenarioScheme' ./internal/eval
	$(GO) test -race -count=1 -run 'TestDegrade' ./internal/netem
	$(GO) test -race -count=1 -run 'TestDegradationSweep' ./internal/exp
	$(GO) test -race -count=1 -run 'TestScenarioEndpoint' ./internal/controlplane
	$(GO) run ./cmd/r3sim -exp degrade -quick
	$(GO) run ./cmd/r3plan -net sbc -degrade 0.5 -budget 2 -effort 60 -fingerprint | grep -qx 'plan digest: 1ec22dedf367705a'

# fuzz-smoke runs each fuzz target briefly, mirroring the CI job.
fuzz-smoke:
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/topo
	$(GO) test -fuzz '^FuzzParseMatrix$$' -fuzztime 10s ./internal/traffic
	$(GO) test -fuzz '^FuzzLPDifferential$$' -fuzztime 10s ./internal/lp
	$(GO) test -fuzz '^FuzzLUSolve$$' -fuzztime 10s ./internal/lp
	$(GO) test -fuzz '^FuzzWorkloadSpec$$' -fuzztime 10s ./internal/core
	$(GO) test -fuzz '^FuzzStateOracle$$' -fuzztime 10s ./internal/core
	$(GO) test -fuzz '^FuzzHopRule$$' -fuzztime 10s ./internal/spf
	$(GO) test -fuzz '^FuzzCancelLoops$$' -fuzztime 10s ./internal/routing
