GO ?= go

.PHONY: build test race vet staticcheck fuzz-smoke bench-smoke bench bench-compare test-loss test-fault test-soak test-obs test-multiproc test-churn test-partition ci

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
	test -z "$$(gofmt -l .)"

# Deep static analysis. Skips gracefully when the tool is not on PATH so
# offline checkouts can still run `make ci`; CI installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)" ; \
	fi

# Five seconds of coverage-guided fuzzing per target: `go test` alone only
# replays each target's seed corpus. A crasher lands under the package's
# testdata/fuzz/ — commit it; it is then a regression seed tier-1 replays.
FUZZ_TARGETS = \
	./internal/gasnet:FuzzLifecycle ./internal/gasnet:FuzzStreams ./internal/gasnet:FuzzDecodeMsg \
	./internal/gasnet:FuzzDecodeDatagram ./internal/gasnet:FuzzDecodeFrameSeq ./internal/gasnet:FuzzDispatchWire \
	.:FuzzDecodeGptr \
	./internal/serial:FuzzDecoderNeverPanics ./internal/serial:FuzzEncodeDecodeRoundTrip
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime 5s "$${t%%:*}"; \
	done

# bench/ is its own module (gupcxx/bench, replace gupcxx => ../), so the
# tier-1 build never compiles it: this is what makes a root-module API
# change that breaks the benchmark fail the PR that makes it (~10 s).
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The repository's one benchmark (bench/README.md): all six workloads,
# untraced then traced, ~4.5 min; writes bench/out/record.json.
bench:
	bash bench/run.sh

# Judge this tree against another commit: check BASE out in a throwaway
# git worktree under $TMPDIR, run its benchmark there, run this tree's,
# then print this tree's verdict (improved / unchanged / regressed /
# unresolved) per workload x end-to-end metric. ~9 min.
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<git ref>" >&2; exit 2; }
	@set -e; \
	wt="$$(mktemp -d "$${TMPDIR:-/tmp}/gupcxx-bench-base.XXXXXX")"; \
	trap 'git worktree remove --force "$$wt" >/dev/null 2>&1 || rm -rf "$$wt"' EXIT; \
	git worktree add --detach "$$wt" "$(BASE)" >/dev/null; \
	bash "$$wt/bench/run.sh" >/dev/null; \
	bash bench/run.sh >/dev/null; \
	bash bench/run.sh -compare "$$wt/bench/out/record.json" bench/out/record.json

# Run the UDP-touching test packages with deterministic fault injection on
# every domain: 25% drop + duplication + reordering from a fixed seed. The
# reliability layer (DESIGN.md §8) must make every test pass regardless.
test-loss:
	GUPCXX_UDP_FAULT="drop=0.25,dup=0.05,reorder=0.10,seed=7" \
		$(GO) test -count 1 ./internal/gasnet/ .

# Failure-path suite under adversarial wire presets (DESIGN.md §10):
# heavy loss, then a duplication/reordering storm. Exercises the liveness
# detector (no false peer-down under loss), retransmit exhaustion,
# deadline expiry, panic containment, collective abort, and the send
# rule's ship points (last barrier token, teardown, backstop), and the
# receive path's frame delivery (one inbox entry per datagram, each
# message dispatched once in order, payloads isolated), and the
# value-less ops' cumulative reply (one nack and one reply per round,
# every op completed once, in order; and from a round nested in a
# callback or RPC body, so two ranks blocked on each other complete). Tests that arm an explicit
# FaultConfig keep their deterministic faults; every other UDP domain
# inherits the preset from the environment.
FAULT_TESTS = 'TestPeerKilledMidRun|TestBarrierAbortsOnPeerDeath|TestWireRPCHandlerPanicContained|TestClosureRPCPanicContained|TestOpDeadlineOnSlowWire|TestRPCWireUnregisteredFails|TestRetransmitExhaustionMarksPeerDown|TestHeartbeat|TestBarrierShipsLastToken|TestCloseShipsStagedSends|TestStagedSendShipsWithoutProgress|TestRoundTripAckRidesNextRequest|TestFrameDelivery|TestRPCWireArgsAppendIsolated|TestCumulativeReply|TestNestedRoundsReplyToEachOther|TestSymmetricWaitInsideCallback|TestSymmetricRPCBodiesWait'
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
# generation-scoped sweeps), the boot-layer units (restartable
# rendezvous, join backoff, RestartRank), then the kill/restart soak: a
# 4-rank process world under 25% injected loss where one rank is
# SIGKILLed and relaunched three times — each incarnation must be
# readmitted by every survivor and the world must finish cleanly. All
# under the race detector.
test-churn:
	$(GO) test -race -count 1 -run 'TestChurn' ./internal/gasnet/
	$(GO) test -race -count 1 -run 'TestSpecJoinWait|TestRendezvousRejoin|TestJoinBackoffDeadline|TestRestartRank' ./internal/boot/
	$(GO) test -race -count 1 -run 'TestMultiprocChurn' -timeout 10m .

# Partition suite (DESIGN.md §16): the scenario engine and
# same-incarnation healing end to end. The in-process units (scenario DSL
# parsing, mid-run fault arming, latency injection, partition→Down→heal,
# asymmetric one-way loss, retransmit-backoff re-arm on heal), then the
# split-brain soak: a 4-rank process world cut 2|2 by
# GUPCXX_UDP_SCENARIO, held apart long past DownAfter, and healed — every
# severed pair must return to Alive under the same incarnation with zero
# readmissions. All under the race detector.
test-partition:
	$(GO) test -race -count 1 -run 'TestScenarioParse|TestSetFaultMidRunArming|TestLatencyInjection|TestPartition|TestAsymmetricLoss|TestHeal' ./internal/gasnet/
	$(GO) test -race -count 1 -run 'TestMultiprocPartition' -timeout 10m .

# Everything CI runs, in CI's order.
ci: build test race vet fuzz-smoke bench-smoke staticcheck test-obs test-loss test-fault test-soak test-multiproc test-churn test-partition
