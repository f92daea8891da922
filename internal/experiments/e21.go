package experiments

import (
	"fmt"
	"time"

	"lateral/internal/simtest"
)

// E21Simulation reproduces the paper's trustworthiness argument as a
// falsification engine: instead of measuring one scripted scenario, it
// explores randomly generated operation sequences against a fleet of
// attested replicas under every fault verb the simulation can mount — the
// wire adversary's crash, one-way partition, congestion, tampering, clock
// skew and duplication, plus journal tampering, membership and shard
// transitions, and coalesced sub-frame faults — drawn per seed by
// simtest.SoakSchedule, and checks all ten simtest invariants after every
// step. The whole stack runs on a virtual clock, so a seed is a complete,
// replayable universe: the experiment re-runs one seed and asserts the
// event traces are byte-identical.
func E21Simulation() (Table, error) {
	t := Table{
		ID:     "E21",
		Title:  "deterministic fleet simulation",
		Anchor: "§III-B trustworthy invocation; attestation-gated fleet membership",
		Header: []string{"scenario", "seeds", "ops", "faults", "violations"},
	}

	// Round 1: random exploration across a batch of seeds, fault-free.
	const seeds, ops = 8, 24
	totalOps, totalViol := 0, 0
	for s := 1; s <= seeds; s++ {
		res, err := simtest.Explore(simtest.ExploreConfig{Seed: uint64(s), Ops: ops, Replicas: 3})
		if err != nil {
			return t, err
		}
		totalOps += res.Ops
		totalViol += len(res.Violations)
	}
	t.AddRow("random ops, no faults", seeds, totalOps, 0, totalViol)
	t.Check("random ops, no faults: every invariant holds", totalViol == 0, fmt.Sprintf("%d violations", totalViol))

	// Round 2: each seed's soak schedule — every fault verb composed over
	// the same seeds. All invariants must still hold.
	totalOps, totalViol, totalFaults := 0, 0, 0
	for s := 1; s <= seeds; s++ {
		res, err := simtest.Explore(simtest.ExploreConfig{Seed: uint64(s), Ops: ops, Replicas: 3, Schedule: simtest.SoakSchedule(uint64(s), 3)})
		if err != nil {
			return t, err
		}
		totalOps += res.Ops
		totalViol += len(res.Violations)
		totalFaults += res.Faults
	}
	t.AddRow("mixed-fault schedule", seeds, totalOps, totalFaults, totalViol)
	t.Check("mixed-fault schedule: every invariant holds", totalViol == 0, fmt.Sprintf("%d violations", totalViol))
	t.Check("mixed-fault schedule injected faults", totalFaults > 0, fmt.Sprintf("%d faults", totalFaults))

	// Round 3: seed replay. The same seed and schedule must reproduce a
	// byte-identical event trace — the property that makes every failure
	// in rounds 1 and 2 debuggable.
	cfg := simtest.ExploreConfig{Seed: 42, Ops: ops, Replicas: 3, Schedule: simtest.SoakSchedule(42, 3)}
	a, err := simtest.Explore(cfg)
	if err != nil {
		return t, err
	}
	b, err := simtest.Explore(cfg)
	if err != nil {
		return t, err
	}
	identical := a.TraceBytes() == b.TraceBytes()
	t.AddRow("seed replay byte-identical", 1, a.Ops, a.Faults, len(a.Violations))
	t.Check("seed replay byte-identical", identical && !a.Failed(),
		fmt.Sprintf("identical traces=%s, %d violations", boolCell(identical), len(a.Violations)))

	// Round 4: quarantine is absorbing. Tamper with one replica's wire
	// traffic, let the pool quarantine it, heal the wire, and verify the
	// replica never re-enters service — attestation failures are
	// unforgivable by design.
	res, err := simtest.Explore(simtest.ExploreConfig{
		Seed: 7, Ops: ops, Replicas: 3,
		Schedule: []simtest.Schedule{
			{At: 0, Fault: simtest.Fault{Kind: simtest.FaultTamper, Target: simtest.ReplicaName(1)}},
			{At: 2 * time.Millisecond, Fault: simtest.Fault{Kind: simtest.FaultHeal, Target: simtest.ReplicaName(1)}},
			{At: 4 * time.Millisecond, Fault: simtest.Fault{Kind: simtest.FaultTamper}},
		},
	})
	if err != nil {
		return t, err
	}
	t.AddRow("tamper -> quarantine absorbing", 1, res.Ops, res.Faults, len(res.Violations))
	t.Check("tamper -> quarantine absorbing", !res.Failed(), fmt.Sprintf("%d violations", len(res.Violations)))

	t.Notes = append(t.Notes,
		"invariants checked after every step: all ten, every run",
		"replay a soak seed with: go test ./internal/simtest -run TestSoak -simtest.seed=<seed> -v",
	)
	return t, nil
}
