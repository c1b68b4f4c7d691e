GO ?= go

.PHONY: build test race vet staticcheck bench-smoke bench bench-json test-loss test-fault test-soak bench-reliable bench-pipeline bench-syscall check-bench5 bench-obs check-bench6 test-obs test-multiproc bench-multiproc check-bench7 test-churn test-partition ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 race coverage: the substrate (MPSC inbox, UDP conduit), the
# operations plane (event bus, histograms, export server), the two
# applications whose access patterns the bulk-RMA memory model governs
# (GUPS, matching: plain segment copies ordered only by completion
# edges, DESIGN.md §5), plus the runtime facade. -p 1 serializes the
# packages: the root package holds wall-clock shape assertions (eager vs
# defer ratios) that lose their margin when another package's stress
# tests compete for the CPU under the race detector.
race:
	$(GO) test -race -p 1 ./internal/gasnet/ ./internal/obs/ ./internal/gups/ ./internal/matching/ .

vet:
	$(GO) vet ./...

# Deep static analysis. Skips gracefully when the tool is not on PATH so
# offline checkouts can still run `make ci`; CI installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)" ; \
	fi

# bench/ is its own module (gupcxx/bench, replace gupcxx => ../), so the
# tier-1 build never compiles it: this is what makes a root-module API
# change that breaks the benchmark fail the PR that makes it (~10 s).
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Substrate fast-path microbenchmarks (ring vs seed mutex queue, wire
# coalescing, collective exchange). The full paper-figure suite lives in
# cmd/benchall.
BENCH_PATTERN = BenchmarkAMInjection|BenchmarkUDPCoalesce
bench:
	$(GO) test -run XXX -bench '$(BENCH_PATTERN)' -benchmem -count 3 ./internal/gasnet/
	$(GO) test -run XXX -bench BenchmarkCollectiveExchange -benchmem -count 3 .

# Re-record the benchmark baseline (BENCH_1.json holds the checked-in one).
bench-json:
	{ $(GO) test -run XXX -bench '$(BENCH_PATTERN)' -benchmem -count 3 ./internal/gasnet/ ; \
	  $(GO) test -run XXX -bench BenchmarkCollectiveExchange -benchmem -count 3 . ; } \
	| ./scripts/bench2json.sh > BENCH_1.json

# Run the UDP-touching test packages with deterministic fault injection on
# every domain: 25% drop + duplication + reordering from a fixed seed. The
# reliability layer (DESIGN.md §8) must make every test pass regardless.
test-loss:
	GUPCXX_UDP_FAULT="drop=0.25,dup=0.05,reorder=0.10,seed=7" \
		$(GO) test -count 1 ./internal/gasnet/ .

# Failure-path suite under adversarial wire presets (DESIGN.md §10):
# heavy loss, then a duplication/reordering storm. Exercises the liveness
# detector (no false peer-down under loss), retransmit exhaustion,
# deadline expiry, panic containment, and collective abort. Tests that
# arm an explicit FaultConfig keep their deterministic faults; every
# other UDP domain inherits the preset from the environment.
FAULT_TESTS = 'TestPeerKilledMidRun|TestBarrierAbortsOnPeerDeath|TestWireRPCHandlerPanicContained|TestClosureRPCPanicContained|TestOpDeadlineOnSlowWire|TestRPCWireUnregisteredFails|TestRetransmitExhaustionMarksPeerDown|TestHeartbeat'
test-fault:
	GUPCXX_UDP_FAULT="drop=0.40,seed=11" \
		$(GO) test -count 1 -run $(FAULT_TESTS) ./internal/gasnet/ .
	GUPCXX_UDP_FAULT="drop=0.10,dup=0.20,reorder=0.25,seed=23" \
		$(GO) test -count 1 -run $(FAULT_TESTS) ./internal/gasnet/ .

# Thirty seconds of mixed RMA/RPC/collective churn from four ranks over a
# 25%-drop wire with a deliberately starved send window, under the race
# detector. Exercises the flow-control machinery end to end (DESIGN.md
# §11): RTT estimation, AIMD window moves, credit admission, bounded
# backpressure, reorder-budget shedding. Every op must resolve with a
# value or a typed error, and teardown must leave no goroutines behind.
test-soak:
	GUPCXX_SOAK_SECONDS=30 GUPCXX_UDP_FAULT="drop=0.25,seed=7" \
		$(GO) test -count 1 -race -run TestSoakMixedChurn -timeout 10m .

# Reliability-layer overhead: sequenced vs raw datagrams on a clean wire,
# plus recovery cost at 10% drop. BENCH_2.json holds the checked-in record.
bench-reliable:
	$(GO) test -run XXX -bench BenchmarkReliableOverhead -benchmem -count 3 ./internal/gasnet/ \
		| ./scripts/bench2json.sh > BENCH_2.json

# Unified-pipeline op latency/allocs per version (put/get/fetchadd/rpc).
# BENCH_3.json holds the checked-in record; check_bench3.sh fails the
# target if any eager-version row regressed to allocating.
bench-pipeline:
	$(GO) test -run XXX -bench 'BenchmarkOpPipeline$$' -benchmem -count 3 . \
		| ./scripts/bench2json.sh > BENCH_3.json
	./scripts/check_bench3.sh BENCH_3.json

# Same pipeline suite re-recorded after the flow-control work (BENCH_4.json
# is the checked-in record): admission sits on the initiation path, so this
# is the proof it costs nothing on-node — the eager rows must still show
# zero allocations, enforced by the same gate as BENCH_3.
bench-flow:
	$(GO) test -run XXX -bench 'BenchmarkOpPipeline$$' -benchmem -count 3 . \
		| ./scripts/bench2json.sh > BENCH_4.json
	./scripts/check_bench3.sh BENCH_4.json

# Vectorized-datapath record: per-version pipeline rows plus the
# asynchronous completion-form rows (future vs continuation) and the UDP
# coalescing bench with its syscalls-per-burst metrics. BENCH_5.json is
# the checked-in record; check_bench5.sh fails the regeneration if a
# continuation row allocates or an eager row regresses.
bench-syscall:
	{ $(GO) test -run XXX -bench 'BenchmarkOpPipeline$$|BenchmarkOpPipelineAsync$$' -benchmem -count 3 . ; \
	  $(GO) test -run XXX -bench BenchmarkUDPCoalesce -benchmem -count 3 ./internal/gasnet/ ; } \
	| ./scripts/bench2json.sh > BENCH_5.json
	./scripts/check_bench5.sh BENCH_5.json

# Validate the checked-in BENCH_5 record without re-running the benches —
# cheap enough for every CI run; bench-syscall re-records and re-checks.
check-bench5:
	./scripts/check_bench5.sh BENCH_5.json

# Operations-plane overhead record: the eager pipeline baseline next to
# the same families with the metrics plane active (Observed = listener
# bound, nil phase hook; Sampled = latency hook installed on every
# rank). BENCH_6.json is the checked-in record; check_bench6.sh pins
# both new row sets at 0 allocs/op and bounds the nil-observer latency
# overhead against the baseline at 3% geomean.
bench-obs:
	$(GO) test -run XXX -bench 'BenchmarkOpPipeline($$|Observed|Sampled)' -benchmem -count 3 . \
		| ./scripts/bench2json.sh > BENCH_6.json
	./scripts/check_bench6.sh BENCH_6.json

# Validate the checked-in BENCH_6 record without re-running the benches.
check-bench6:
	./scripts/check_bench6.sh BENCH_6.json

# Operations-plane test suite: the bus/histogram/export unit tests plus
# the root integration tests (live scrape, handler mount, lifecycle,
# event drain after Close, observed-pipeline allocation contract).
test-obs:
	$(GO) test ./internal/obs/
	$(GO) test -run 'TestMetrics|TestWorldCloseWithActiveSubscribers|TestOpPipelineObserved|TestEvent' .

# Process-per-rank acceptance: the boot package's rendezvous/launcher
# units, the gptr wire-encoding contract, and the os/exec suites that
# spawn real rank processes over loopback UDP (4-rank smoke world, abrupt
# peer death, launcher fault injection) — all under the race detector.
# Then the real thing: gupcxxrun launching the microbench driver as a
# 4-process world.
test-multiproc:
	$(GO) test -race -count 1 ./internal/boot/
	$(GO) test -race -count 1 -run 'TestGptrWire|FuzzDecodeGptr|TestMultiproc' ./internal/gasnet/ .
	$(GO) build -o bin/gupcxxrun ./cmd/gupcxxrun
	$(GO) build -o bin/microbench ./cmd/microbench
	./bin/gupcxxrun -n 4 -- ./bin/microbench -samples 2 -topk 1 -iters 2000

# Churn suite (DESIGN.md §15): epoch-based peer readmission end to end.
# The in-process units (incarnation gating, stale-datagram drops,
# generation-scoped sweeps, the DisableReadmission escape hatch), the
# boot-layer units (restartable rendezvous, join backoff, RestartRank),
# then the kill/restart soak: a 4-rank process world under 25% injected
# loss where one rank is SIGKILLed and relaunched three times — each
# incarnation must be readmitted by every survivor and the world must
# finish cleanly. All under the race detector.
test-churn:
	$(GO) test -race -count 1 -run 'TestChurn' ./internal/gasnet/
	$(GO) test -race -count 1 -run 'TestSpecJoinWait|TestRendezvousRejoin|TestJoinBackoffDeadline|TestRestartRank' ./internal/boot/
	$(GO) test -race -count 1 -run 'TestMultiprocChurn' -timeout 10m .

# Partition suite (DESIGN.md §16): the scenario engine and
# same-incarnation healing end to end. The in-process units (scenario DSL
# parsing, mid-run fault arming, latency injection, partition→Down→heal,
# asymmetric one-way loss, retransmit-backoff re-arm on heal, the
# DisableHealing kill switch), then the split-brain soak: a 4-rank
# process world cut 2|2 by GUPCXX_UDP_SCENARIO, held apart long past
# DownAfter, and healed — every severed pair must return to Alive under
# the same incarnation with zero readmissions. All under the race
# detector.
test-partition:
	$(GO) test -race -count 1 -run 'TestScenarioParse|TestSetFaultMidRunArming|TestLatencyInjection|TestPartition|TestDisableHealing|TestAsymmetricLoss|TestHealResets' ./internal/gasnet/
	$(GO) test -race -count 1 -run 'TestMultiprocPartition' -timeout 10m .

# Cross-process record: the op-pipeline families on an in-process UDP
# world (wire armed, locality resolves to memory) next to the same
# families crossing a real process boundary over loopback (rank 1 is a
# spawned child). BENCH_7.json is the checked-in record; check_bench7.sh
# pins the in-process eager rows at 0 allocs/op and requires all four
# cross-process families to be present.
bench-multiproc:
	$(GO) test -run XXX -bench 'BenchmarkOpPipelineUDP$$|BenchmarkOpPipelineMultiproc$$' -benchmem . \
		| ./scripts/bench2json.sh > BENCH_7.json
	./scripts/check_bench7.sh BENCH_7.json

# Validate the checked-in BENCH_7 record without re-running the benches.
check-bench7:
	./scripts/check_bench7.sh BENCH_7.json

# Everything CI runs, in CI's order.
ci: build test race vet bench-smoke staticcheck check-bench5 check-bench6 check-bench7 test-obs test-loss test-fault test-soak test-multiproc test-churn test-partition
