# Lateral — build, test, and reproduce.

GO ?= go

.PHONY: all verify fmt build vet test race-hotpath race cover bench bench-smoke bench-check bench-baseline experiments fuzz soak examples clean

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
# The allocation gates ride along: the batched-ingest hot path must stay
# at 0 allocs/op per reading, the coalesced sealed-record hot path at
# 0 allocs/op per sub-frame at depth 16, and a budgeted hop through core
# at 1 allocation per call — asserted, not just measured.
bench-smoke:
	$(GO) test -bench . -benchtime=1x -benchmem -run '^$$' ./...
	$(GO) test -count=1 -run 'TestBatchIngestZeroAllocPerReading|TestCoalescedZeroAllocPerSubFrame|TestGuardedDeliverAllocs' ./internal/distributed ./internal/core

# The repository benchmark (bench/, run by bench/run.sh) is its own Go
# module, so the root `go build ./...` never compiles it: vet and test it
# here, so an API change that breaks the benchmark fails CI.
bench-check:
	cd bench && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test -count=1 ./...

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

# The one soak: TestSoak over 500 seeds. Each seed runs a replayable
# explorer pass through its seeded schedule of all thirteen fault verbs,
# with all ten invariants checked after every step, then a racing pass of
# concurrent callers while a membership and a shard transition fire, with
# every invariant checked as each round ends; the soak fails if any verb,
# transition or exfil denial went unexercised. Then the simtest package
# and every feature's concurrency pin under the race detector: the fleet
# under chaos and exactly-once quarantine journaling, the core watchdog
# and admission bounds, and experiments E19-E21 and E23-E26. Replay a
# failing seed's replayable pass with
#   go test ./internal/simtest -run TestSoak -simtest.seed=<seed> -v
soak:
	$(GO) test -count=1 ./internal/simtest -run TestSoak -simtest.soak=500
	$(GO) test -race -count=1 ./internal/simtest
	$(GO) test -race -count=5 -run 'TestSoakUnderChaos|TestQuarantineJournaledExactlyOnce' ./internal/cluster
	$(GO) test -race -count=5 -run 'TestWatchdog|TestFanInBoundedAdmission' ./internal/core
	$(GO) test -race -count=5 -run 'TestE20StallContainment|TestE21Simulation' ./internal/experiments
	$(GO) test -race -count=1 -run 'TestE19ClusterScalesAndSurvivesChaos|TestE23ShardedFleet|TestE24|TestE25|TestE26' ./internal/experiments

examples:
	$(GO) run ./examples/quickstart -substrate all
	$(GO) run ./examples/mailclient
	$(GO) run ./examples/smartmeter
	$(GO) run ./examples/cloudstore
	$(GO) run ./examples/dualphone

clean:
	$(GO) clean ./...
	rm -rf testdata
