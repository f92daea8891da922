# Lateral — build, test, and reproduce.

GO ?= go

.PHONY: all verify fmt build vet test race-hotpath race cover bench bench-smoke bench-baseline experiments fuzz cluster-soak stall-soak sim-soak audit-soak policy-soak epoch-soak shard-soak coalesce-soak examples clean

all: build vet test race-hotpath

# Tier-1 verify chain (ROADMAP.md): what must stay green on every change.
verify: fmt build vet test

# gofmt gate: prints every file gofmt would rewrite and fails if any.
fmt:
	@gofmt -l .
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The invocation hot path is lock-sensitive end to end — tracing, the
# deadline watchdog, the wire budget, and failover routing: run every
# package on that path under the race detector on each tier-1 pass.
race-hotpath:
	$(GO) test -race ./internal/telemetry ./internal/core ./internal/distributed ./internal/cluster

race:
	$(GO) test -race ./...

# Coverage with checked-in floors for the invocation-path packages. Floors
# sit ~5 points under measured coverage (core 93.0, cluster 94.7,
# distributed 86.6, journal 97.9, cap 98.7, policy 91.9, shard 93.9 at
# the time they were set): they catch a test deletion or a big untested
# addition without flaking on small refactors.
COVER_FLOORS := core:88 cluster:89 distributed:81 journal:85 cap:93 policy:86 shard:85

cover:
	$(GO) test -cover ./...
	@for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) test -cover ./internal/$$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$pkg"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN { print (p >= f) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "cover: $$pkg at $$pct% is below the $$floor% floor"; exit 1; fi; \
		echo "cover: $$pkg $$pct% >= $$floor% floor"; \
	done

# Regenerate every experiment table (EXPERIMENTS.md's source of truth).
experiments:
	$(GO) run ./cmd/lateralbench

# Full benchmark pass, one iteration per experiment plus the
# mechanism micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bench rot (compile errors,
# panics, a broken fixture) in CI without paying full measurement time.
# The zero-alloc gates ride along: the batched-ingest hot path must stay
# at 0 allocs/op per reading and the coalesced sealed-record hot path at
# 0 allocs/op per sub-frame at depth 16 — asserted, not just measured.
bench-smoke:
	$(GO) test -bench . -benchtime=1x -benchmem -run '^$$' ./...
	$(GO) test -count=1 -run 'TestBatchIngestZeroAllocPerReading|TestCoalescedZeroAllocPerSubFrame' ./internal/distributed

# Regenerate the checked-in baselines: E22 pipelining (BENCH_e22.json),
# E23 sharded fleet (BENCH_e23.json), E26 rolling replace
# (BENCH_e26.json), and E27 frame coalescing (BENCH_e27.json). Wire
# rounds, frame/record counts, allocs/op, and epoch/healthy counts are
# machine-independent; ops/sec and p99 are not.
bench-baseline:
	$(GO) run ./cmd/lateralbench -e22-json BENCH_e22.json
	$(GO) run ./cmd/lateralbench -e23-json BENCH_e23.json
	$(GO) run ./cmd/lateralbench -e26-json BENCH_e26.json
	$(GO) run ./cmd/lateralbench -e27-json BENCH_e27.json

# Short fuzzing pass over every parser that consumes attacker bytes.
fuzz:
	$(GO) test -fuzz=FuzzDecodeQuote   -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzServerRespond -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzSessionOpen   -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzVPFSRead      -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzLegacyFSNames -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzDistributedFrame -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzBatchFrameDecode -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzCoalescedRecord -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzScheduleDecode -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzJournalDecode -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzPolicyDecode  -fuzztime=10s -run '^$$' .

# Short soak of the attested replica fleet under the race detector:
# concurrent callers, repeated crash/heal cycles, plus the full E19 chaos
# experiment (crash + tampered build) with -race.
cluster-soak:
	$(GO) test -race -count=5 -run TestSoakUnderChaos ./internal/cluster
	$(GO) test -race -run TestE19ClusterScalesAndSurvivesChaos ./internal/experiments

# Repeated stall-containment runs under the race detector: wedged replicas,
# abandoned handlers, and Delayer chaos (E20) must stay bounded and leak
# nothing across iterations.
stall-soak:
	$(GO) test -race -count=5 -run TestE20StallContainment ./internal/experiments
	$(GO) test -race -count=5 -run 'TestWatchdog|TestFanInBoundedAdmission' ./internal/core

# Deterministic simulation soak: many explorer seeds over the mixed-fault
# schedule, with all four invariants checked after every step, then the
# mutation smoke test under the race detector. Replay a failing seed with
#   go test ./internal/simtest -run TestExploreSeeds -simtest.seed=<seed>
sim-soak:
	$(GO) test -count=1 ./internal/simtest -run TestExploreSeeds -simtest.soak=500
	$(GO) test -race -count=1 -run 'TestMutationIsCaught|TestExploreReplayIsByteIdentical' ./internal/simtest
	$(GO) test -race -count=3 -run TestE21Simulation ./internal/experiments

# Fleet black-box soak: 500 seeds where a journal-tamper fault mutates a
# recorded entry mid-run — the auditor invariant must detect every one —
# plus the exactly-once quarantine journaling race test and the E24
# auditor-replay experiment under the race detector.
audit-soak:
	$(GO) test -count=1 ./internal/simtest -run TestAuditTamperSoak -simtest.soak=500
	$(GO) test -race -count=3 -run TestQuarantineJournaledExactlyOnce ./internal/cluster
	$(GO) test -race -count=1 -run TestE24 ./internal/experiments

# Dynamic-membership soak: 500 seeds where the fault schedule includes
# join/leave transitions — the eighth invariant (no call completes against
# an evicted or stale-keyed replica) must hold on every seed — plus the
# epoch-schedule unit and the E26 rolling-replace experiment under the
# race detector.
epoch-soak:
	$(GO) test -count=1 ./internal/simtest -run TestEpochSoak -simtest.soak=500
	$(GO) test -race -count=1 -run TestEpochScheduleTransitions ./internal/simtest
	$(GO) test -race -count=1 -run 'TestE26RollingReplace|TestE26BaselinePhases' ./internal/experiments

# Sharded-fabric soak: 500 seeds where the fault schedule splits and
# merges shard cells under crashes, duplication, and skew while single
# and batched readings stream through the router — the ninth invariant
# (every reading routes where the current epoch's shard map assigns it,
# none double-counted across a rebalance) must hold on every seed — plus
# the pinned transition/mutation/codec tests and the E23 million-client
# experiment under the race detector.
shard-soak:
	$(GO) test -count=1 ./internal/simtest -run TestShardSoak -simtest.soak=500
	$(GO) test -race -count=1 -run 'TestShardScheduleTransitions|TestShardCheckerCatchesMisrouting|TestShardFaultCodecRoundTrips' ./internal/simtest
	$(GO) test -race -count=1 -run TestE23ShardedFleet ./internal/experiments

# Coalesced-record soak: 500 seeds of concurrent callers racing their
# request frames into shared sealed records on every replica stub while
# one-shot coalesce faults drop or tamper individual sub-frames — the
# tenth invariant (every sub-frame of a coalesced record completes
# exactly once or its caller sees a typed error) must hold at every
# quiesce and every caller outcome must be typed — plus the fault-codec
# and checker-mutation pins under the race detector.
coalesce-soak:
	$(GO) test -count=1 ./internal/simtest -run TestCoalesceSoak -simtest.soak=500
	$(GO) test -race -count=1 -run 'TestCoalesceSoak|TestCoalesceFaultCodecRoundTrips|TestCoalesceCheckerCatchesMisaccounting' ./internal/simtest

# Chain-aware policy soak: 500 seeds where the explorer's operation mix
# includes mosaic exfiltration attempts under the full mixed-fault
# schedule — the no-tainted-egress invariant must hold on every seed —
# plus the E25 confused-deputy experiment under the race detector.
policy-soak:
	$(GO) test -count=1 ./internal/simtest -run TestPolicyExfilSoak -simtest.soak=500
	$(GO) test -race -count=1 -run TestE25 ./internal/experiments

examples:
	$(GO) run ./examples/quickstart -substrate all
	$(GO) run ./examples/mailclient
	$(GO) run ./examples/smartmeter
	$(GO) run ./examples/cloudstore
	$(GO) run ./examples/dualphone

clean:
	$(GO) clean ./...
	rm -rf testdata
