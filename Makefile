GO ?= go

.PHONY: all build test tier1 tier1-remote tier1-fleet specs-verify race vet reach bench bench-all chaos fmt cache-stress

all: build test

# require-tests REGEX, PACKAGES: fail when REGEX selects no test in one of
# the packages. `go test -run` passes with "no tests to run" when nothing
# matches, so a renamed test would otherwise drop out of its gate silently.
# `go test -list` prints the matching names of each package followed by
# its "ok"/"?" status line.
define require-tests
	@$(GO) test -list '$(1)' $(2) | awk '/^(ok|\?|FAIL)[ \t]/ { if (n == 0) { print "gate: -run \"$(1)\" selects no test in " $$2; bad = 1 } n = 0; next } { n++ } END { exit bad }'
endef

# Tier-1: the repository's baseline gate.
build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The gate runs fmt and vet and forces fresh test execution (no cached
# results), so a flaky or order-dependent test cannot hide behind the
# build cache. The golden-output fences must exist: a renamed golden test
# would otherwise leave tier-1 silently; so must the V_MIN descent fences
# (the bounded descent against its exhaustive oracle, and the rung
# prediction's rounding bound), the AC solve's bit-identity pins (the PDN
# transfers against the original solve and across worker counts, the
# pattern elimination against its dense oracle), the transfer cache's one
# build per key, the assembler codec's reference oracle, the
# multi-part MEASURE local/remote bit-identity pins, the droop/ptp batch
# against its batch-of-one Measure, MEASURE's metric field (an unknown
# metric, a voltage-blind domain's capability error, a phased droop part
# against the local batch), and the persistent
# store's read-path, frame-cap, LRU-touch and block-accounting tests, the
# meas record key's analyzer field and pinned identity (the name of every
# meas record on disk), the GA's carried readings against a fresh
# measurement, and MONITOR's stream-lost close. The persistent store is cross-process
# shared mutable state, so its whole suite runs under the race detector here;
# so do the transfer solve's fan-out and its one-build cache, which share a
# transfer set across goroutines.
# Its read path works at the system-call level, so the module must also build
# for darwin, windows and freebsd: a field of one GOOS's syscall types fails
# here rather than on a user's machine. The perfbench
# harness is a nested module (perfbench/go.mod replaces repro with ../), so
# the root ./... never compiles it; its smoke tests run separately, with
# the same module settings as perfbench/run.sh. Non-test code no program
# links fails the gate (reach).
tier1: build fmt vet reach specs-verify tier1-remote tier1-fleet
	$(call require-tests,GAGolden|SweepGolden|VoltageGAGolden,.)
	$(call require-tests,BoundedDescentMatchesExhaustive,./internal/vmin)
	$(call require-tests,RungPredictionWithinBound,./internal/vmin)
	$(call require-tests,TransfersMatchSolveACRef,./internal/pdn)
	$(call require-tests,TransfersWorkerCountInvariant,./internal/pdn)
	$(call require-tests,TransferSetBuiltOnce,./internal/platform)
	$(call require-tests,CSolvePatternMatchesDense,./internal/linalg)
	$(call require-tests,CodecMatchesReference,./internal/isa)
	$(call require-tests,MultiPartMeasureEquivalence,./internal/lab)
	$(call require-tests,MeasureBatchEquivalence,./internal/backend)
	$(call require-tests,GetReadPathEdges,./internal/castore)
	$(call require-tests,GCEvictsUnreadBeforeTouched,./internal/castore)
	$(call require-tests,BudgetChargesWholeBlocks,./internal/castore)
	$(call require-tests,GetQuarantinesOversizedEntry,./internal/castore)
	$(call require-tests,PutRefusesOversizedPayload,./internal/castore)
	$(call require-tests,MeasStoreKeyedByAnalyzer,./internal/core)
	$(call require-tests,MeasDiskKeyPinned,./internal/core)
	$(call require-tests,CarriedReadingsMatchFreshMeasurement,./internal/ga)
	$(call require-tests,VoltageBatchMatchesMeasure,./internal/core)
	$(call require-tests,MeasureUnknownMetric,./internal/lab)
	$(call require-tests,MeasureCapabilityError,./internal/lab)
	$(call require-tests,MeasurePhasedVoltageEquivalence,./internal/lab)
	$(call require-tests,MonitorPartCountClosesSession,./internal/lab)
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...
	GOOS=freebsd $(GO) build ./...
	GOFLAGS=-count=1 $(GO) test -race ./internal/castore
	GOFLAGS=-count=1 $(GO) test -race -run 'WorkerCountInvariant|BuiltOnce|TransfersMatchSolveACRef' ./internal/pdn ./internal/platform
	GOFLAGS=-count=1 $(GO) test ./...
	cd perfbench && GOFLAGS='-mod=readonly -count=1' GOPROXY=off GOTOOLCHAIN=local GOWORK=off $(GO) test ./...

# Spec hygiene: every embedded platform spec must strict-parse, build,
# survive a save/load round trip and keep its persistent-cache identity
# stable across it (specgen -check-builtin), and the byte-identity pins
# against the pre-registry constructors must hold.
specs-verify:
	$(GO) run ./cmd/specgen -check-builtin
	GOFLAGS=-count=1 $(GO) test -run 'Registry|Spec|Arch|DefineArch' ./internal/platform ./internal/isa

# Local/remote backend equivalence: the lab protocol suite and the Backend
# interface tests, which drive every command's measurement path against an
# in-process labtarget (including through the chaos proxy) and require
# bit-identical output to a local bench, bad powered-core fields included
# and powered cores carried per request (no rig state to leak between
# concurrent callers).
REMOTE_TESTS = Hello|Caps|Verb|Dispatch|ProtocolErrors|Sweep|Vmin|BadV9Headers|PoweredCoresPerRequest|Chaos|Monitor|Stats|Equivalence|Capability|Determinism|FlagInventory
REMOTE_PKGS = ./internal/lab ./internal/backend ./internal/cli
tier1-remote:
	$(call require-tests,$(REMOTE_TESTS),$(REMOTE_PKGS))
	$(call require-tests,BadV9HeadersRejected,./internal/lab)
	$(call require-tests,PoweredCoresPerRequest,./internal/backend)
	GOFLAGS=-count=1 $(GO) test -run '$(REMOTE_TESTS)' $(REMOTE_PKGS)

# Fleet: the campaign orchestrator's chaos suite under the race detector —
# bit-identity of sharded GA generations / sweeps / shmoo lattices against
# a single backend at several layouts, a rig killed mid-campaign failing
# over onto survivors, checkpoint restart replaying without re-measuring,
# campaign keys pinned so older checkpoint journals stay resumable (and a
# droop campaign's key blind to the analyzer's sample count), one
# lab round trip per remote generation, concurrent requests at different
# powered-core counts through a pooled Remote and a fleet, and the pool
# close-under-load and batch-parallelism regressions the orchestrator
# leans on.
tier1-fleet:
	$(call require-tests,PoolCloseUnderLoad|SweepPointMatchesDirect,./internal/lab)
	$(call require-tests,MeasureBatchParallelismZero|MeasStoreKeyedByReceiveChain,./internal/core)
	$(call require-tests,FleetKeysPinned,./internal/fleet)
	$(call require-tests,FleetDroopKeyIgnoresSamples,./internal/fleet)
	$(call require-tests,FleetRemoteGenerationOneRoundTrip,./internal/fleet)
	$(call require-tests,PoweredCoresPerRequest,./internal/backend)
	GOFLAGS=-count=1 $(GO) test -race ./internal/fleet
	GOFLAGS=-count=1 $(GO) test -race -run 'PoweredCoresPerRequest' ./internal/backend
	GOFLAGS=-count=1 $(GO) test -race -run 'PoolCloseUnderLoad|SweepPointMatchesDirect' ./internal/lab
	GOFLAGS=-count=1 $(GO) test -race -run 'MeasureBatchParallelismZero|MeasStoreKeyedByReceiveChain' ./internal/core

# Chaos: the remote-lab fault-injection suite (deterministic drop/delay/
# garble proxy, reconnect-and-retry, pooled GA vs direct equivalence)
# under the race detector. The transport's retry loop, the per-session
# server goroutines and the pool checkout all run concurrently here.
CHAOS_TESTS = Chaos|Reconnect|Deadline|Pool|Concurrent|Shutdown|Desync|Garbled
chaos:
	$(call require-tests,$(CHAOS_TESTS),./internal/lab)
	$(GO) test -race ./internal/lab/chaos
	$(GO) test -race -run '$(CHAOS_TESTS)' ./internal/lab

# Tier-2: vet plus the race detector over the full module. The concurrent
# paths (GA worker pool, parallel sweeps/shmoos, the batch driver, the
# FFT plan caches and the remote-lab client pool) must stay race-clean.
# The local/remote bit-identity tests use the lab's default 10 s I/O
# deadline, because one remote SHMOO can take half a second under -race;
# the chaos and deadline tests keep their 500 ms window.
race: tier1 chaos
	$(GO) vet ./...
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Non-test functions under internal/ that no command, example or the
# perfbench driver links, less the allowlist cmd/reach/allow.txt; fails on
# any other and on a stale allowlist entry.
reach:
	$(GO) run ./cmd/reach

# Hot-path benchmarks (sweep, shmoo, spectra and fitness evaluation,
# batched and fleet generations, warm start) plus the stage benchmarks
# kept next to their stage (the analyzer's MeasurePeak, the real-input
# FFT, the PDN transfer solve, one V_MIN ladder rung, the lab wire's
# assembler codec beside its reference, and one persistent-store hit),
# printed as plain `go test -bench` output. The end-to-end benchmark is perfbench (BENCHMARK.json).
bench:
	$(GO) test -bench 'BenchmarkSpectraEvaluation|BenchmarkFitnessEvaluation|BenchmarkResonanceSweep|BenchmarkShmoo|BenchmarkGenerationBatch|BenchmarkFleetGeneration|BenchmarkWarmStart|BenchmarkMeasurePeak|BenchmarkRFFT8192|BenchmarkTransfers8192|BenchmarkLadderRung|BenchmarkFormatParseProgram|BenchmarkStoreGetHit' \
		-benchmem -benchtime 1s -run '^$$' . ./internal/instrument ./internal/dsp ./internal/pdn ./internal/platform ./internal/isa ./internal/castore

# Hammers the persistent store's concurrent surface (mixed Put/Get under
# GC pressure, cross-handle sharing) repeatedly under the race detector.
# Longer than tier-1; run before touching castore internals.
CACHE_STRESS_TESTS = StoreConcurrentAccess|CrossStoreSharing|GCEvicts
cache-stress:
	$(call require-tests,$(CACHE_STRESS_TESTS),./internal/castore)
	$(GO) test -race -run '$(CACHE_STRESS_TESTS)' -count=10 ./internal/castore

# The full benchmark suite, one iteration each (smoke).
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
