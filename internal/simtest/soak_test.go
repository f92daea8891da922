package simtest

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/distributed"
)

// soakConfig is seed's replayable half: the explorer's one operation mix
// driven through the seed's all-verb schedule. -simtest.seed=N replays
// exactly this run.
func soakConfig(seed uint64) ExploreConfig {
	return ExploreConfig{Seed: seed, Ops: 30, Replicas: 3, Schedule: SoakSchedule(seed, 3)}
}

// soakCoverage is what a soak must have exercised across its seeds.
// TestSoak fails on any gap, so a run that never reached a mechanism
// cannot pass vacuously.
type soakCoverage struct {
	applied   map[string]int    // fault verb -> entries applied, either half
	committed map[FaultKind]int // transitions that took effect mid racing round
	denied    atomic.Int64      // exfil attempts the policy refused
}

func newSoakCoverage() *soakCoverage {
	return &soakCoverage{applied: make(map[string]int), committed: make(map[FaultKind]int)}
}

// soakSeeds is how many seeds a soak test runs: N under -simtest.soak=N,
// otherwise plain, capped at 4 under -short.
func soakSeeds(plain uint64) uint64 {
	switch {
	case *soakFlag > 0:
		return uint64(*soakFlag)
	case testing.Short():
		return min(plain, 4)
	}
	return plain
}

// TestSoak is the one soak. Each seed runs two halves on fresh
// deployments, and all ten invariants are checked throughout:
//
//   - the replayable half explores the one operation mix through the
//     seed's SoakSchedule, which applies all thirteen fault verbs, checking
//     every invariant after every step. It is deterministic: a failure
//     prints the seed, and -simtest.seed=N replays that run's trace byte
//     for byte;
//   - the racing half (raceSeed) races concurrent callers through the pool
//     and the shard router while a membership transition and a shard
//     transition fire, checking every invariant as each round ends.
//
// Across the seeds the soak then asserts its own coverage: every verb
// applied, every transition kind committed under load, and exfil denied.
func TestSoak(t *testing.T) {
	if *seedFlag != 0 {
		res, err := Explore(soakConfig(*seedFlag))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("replay of seed %d:\n%s", *seedFlag, res.TraceBytes())
		if res.Failed() {
			t.Fatalf("seed %d: %d invariant violations", *seedFlag, len(res.Violations))
		}
		return
	}
	seeds := soakSeeds(12)
	cov := newSoakCoverage()
	for seed := uint64(1); seed <= seeds; seed++ {
		replayHalf(t, seed, cov)
		raceSeed(t, seed, cov)
	}
	if missing := cov.unapplied(); len(missing) != 0 {
		t.Errorf("fault verbs never applied across %d seeds: %v", seeds, missing)
	}
	if missing := cov.uncommitted(FaultJoin, FaultLeave, FaultShardSplit, FaultShardMerge); len(missing) != 0 {
		t.Errorf("never committed during a racing round across %d seeds: %v", seeds, missing)
	}
	if cov.denied.Load() == 0 {
		t.Errorf("no exfil denied across %d seeds", seeds)
	}
	t.Logf("%d seeds: verbs applied %v; racing commits %v; exfil denied %d",
		seeds, cov.applied, cov.committed, cov.denied.Load())
}

// The per-mechanism soaks below each run one half of TestSoak over its
// first pinSeeds seeds, with no op mix, schedule or racing phase of their
// own, and pin the claim one mechanism's soak makes, so a regression names
// its mechanism and `go test -run` can soak one mechanism alone. They
// re-run seeds TestSoak covers, so they take few; -simtest.soak=N scales
// them too.
const pinSeeds = 4

// TestExploreSeeds pins the replayable half's schedule: every seed's run,
// not just the batch, applies all thirteen fault verbs with every
// invariant holding after every step.
func TestExploreSeeds(t *testing.T) {
	for seed := uint64(1); seed <= soakSeeds(pinSeeds); seed++ {
		cov := newSoakCoverage()
		replayHalf(t, seed, cov)
		if missing := cov.unapplied(); len(missing) != 0 {
			t.Errorf("seed %d never applied %v", seed, missing)
		}
	}
}

// TestAuditTamperSoak pins the auditor against a journal tamper while the
// fleet is still running. SoakSchedule's journal tamper is its last
// fault, usually after the last operation; here each seed's schedule runs
// with that tamper moved to the start (admission alone journals nine
// entries, so it always lands), and every step after it — each appending
// to the tampered journal — must still find the replay failing.
func TestAuditTamperSoak(t *testing.T) {
	for seed := uint64(1); seed <= soakSeeds(pinSeeds); seed++ {
		cfg := soakConfig(seed)
		for i := range cfg.Schedule {
			if cfg.Schedule[i].Fault.Kind == FaultJournalTamper {
				cfg.Schedule[i].At = 0
			}
		}
		res, err := Explore(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d with the journal tampered at the start violated invariants:\n%s", seed, res.TraceBytes())
		}
		hit := slices.IndexFunc(res.Trace, func(line string) bool {
			return strings.Contains(line, " fault journal-tamper ") && strings.HasSuffix(line, "-> ok")
		})
		if first := slices.IndexFunc(res.Trace, func(line string) bool {
			return strings.Contains(line, " step=")
		}); hit < 0 || hit > first {
			t.Fatalf("seed %d: the journal tamper did not land before the first operation:\n%s", seed, res.TraceBytes())
		}
	}
}

// TestPolicyExfilSoak pins the chain-aware policy on the replayable half:
// no exfil completes on any seed, whatever the schedule does to the wire
// (the no-tainted-egress invariant), and at least one was denied, so the
// attack demonstrably fired.
func TestPolicyExfilSoak(t *testing.T) {
	cov := newSoakCoverage()
	for seed := uint64(1); seed <= soakSeeds(pinSeeds); seed++ {
		replayHalf(t, seed, cov)
	}
	if cov.denied.Load() == 0 {
		t.Fatalf("no exfil denied across %d seeds: the policy was never exercised", soakSeeds(pinSeeds))
	}
}

// TestEpochSoak pins membership under load: across the racing halves a
// join and a leave each commit while every caller has a call in flight,
// and every invariant — the eighth, no call completing against an evicted
// or stale-keyed replica, among them — holds as each round ends.
func TestEpochSoak(t *testing.T) {
	if missing := racingHalves(t).uncommitted(FaultJoin, FaultLeave); len(missing) != 0 {
		t.Fatalf("never committed during a racing round across %d seeds: %v", soakSeeds(pinSeeds), missing)
	}
}

// TestShardSoak pins rebalancing under load: across the racing halves a
// split and a merge each commit while readings and batch frames race
// through the router, and every invariant — the ninth, each reading
// routed where a shard map current during its operation assigns it,
// among them — holds as each round ends.
func TestShardSoak(t *testing.T) {
	if missing := racingHalves(t).uncommitted(FaultShardSplit, FaultShardMerge); len(missing) != 0 {
		t.Fatalf("never committed during a racing round across %d seeds: %v", soakSeeds(pinSeeds), missing)
	}
}

// TestCoalesceSoak pins coalesced records under attack: on every seed's
// racing half the callers' frames share sealed records while a one-shot
// coalesce fault drops or tampers a sub-frame each round, every caller
// sees nil or a typed error, and the tenth invariant holds as each round
// ends (raceSeed fails a seed that sealed no coalesced record).
func TestCoalesceSoak(t *testing.T) {
	racingHalves(t)
}

// replayHalf runs seed's replayable half, fails t on an invariant
// violation or a pin the schedule missed, and tallies the run into cov.
func replayHalf(t *testing.T, seed uint64, cov *soakCoverage) {
	t.Helper()
	res, err := Explore(soakConfig(seed))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if res.Failed() {
		t.Fatalf("seed %d violated invariants (replay with -simtest.seed=%d):\n%s",
			seed, seed, res.TraceBytes())
	}
	if err := cov.scan(res); err != nil {
		t.Fatalf("seed %d: %v (replay with -simtest.seed=%d)", seed, err, seed)
	}
}

// racingHalves runs the racing half of each pin seed and returns what
// the halves covered.
func racingHalves(t *testing.T) *soakCoverage {
	t.Helper()
	cov := newSoakCoverage()
	for seed := uint64(1); seed <= soakSeeds(pinSeeds); seed++ {
		raceSeed(t, seed, cov)
	}
	return cov
}

// unapplied lists the fault verbs no tallied run applied.
func (c *soakCoverage) unapplied() []FaultKind {
	var out []FaultKind
	for k := FaultCrash; k <= FaultCoalesce; k++ {
		if c.applied[k.String()] == 0 {
			out = append(out, k)
		}
	}
	return out
}

// uncommitted lists which of kinds never took effect mid racing round.
func (c *soakCoverage) uncommitted(kinds ...FaultKind) []FaultKind {
	var out []FaultKind
	for _, k := range kinds {
		if c.committed[k] == 0 {
			out = append(out, k)
		}
	}
	return out
}

// scan tallies one replayable run's trace and checks the cases every
// SoakSchedule pins: the journal tamper hit the journal, the tampered
// replica ended quarantined, and its leave, the duplicate split and the
// second merge were refused.
func (c *soakCoverage) scan(res *Result) error {
	noop := make(map[string]int)
	for _, line := range res.Trace {
		if strings.Contains(line, " exfil ") && strings.HasSuffix(line, "-> denied") {
			c.denied.Add(1)
		}
		_, rest, ok := strings.Cut(line, " fault ")
		if !ok {
			continue
		}
		verb, _, _ := strings.Cut(rest, " ")
		c.applied[verb]++
		if strings.HasSuffix(line, "-> no-op") {
			noop[verb]++
		}
	}
	switch {
	case noop["journal-tamper"] > 0:
		return errors.New("journal tamper missed the journal")
	case !strings.HasSuffix(res.Trace[len(res.Trace)-1], "quarantined=1"):
		return errors.New("tampered replica not quarantined")
	case noop["leave"] != 1 || noop["shard-split"] != 1 || noop["shard-merge"] != 1:
		return fmt.Errorf("want one refused leave, split and merge, got %v", noop)
	}
	return nil
}

// typedOutcome reports whether a caller-visible error is one of the typed
// sentinels the stack promises. A dropped sub-frame must surface as
// ErrTransport (the caller's reply never arrives), a tampered one as a
// remote error status — anything unclassifiable is a breach in its own
// right.
func typedOutcome(err error) bool {
	for _, sentinel := range []error{
		core.ErrDeadline, core.ErrCanceled, core.ErrOverloaded, core.ErrPolicy,
		distributed.ErrTransport, distributed.ErrRemote, distributed.ErrNotConnected,
		cluster.ErrNoReplicas, cluster.ErrExhausted,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// raceSeed is seed's racing half: rounds of concurrent callers racing
// through the pool and the shard router — slow and plain calls whose
// frames coalesce into shared sealed records, batch frames, and exfil
// attempts — on a fresh deployment. Each round arms a one-shot coalesce
// drop or tamper on one replica's exporter, and once every caller has a
// call in flight one membership transition (join or leave) and one shard
// transition (split or merge) fire beside them. The first two rounds take
// each direction once, in a seeded order; the third draws. When a round
// ends every invariant is checked and the wire healed (a drop marks its
// replica down; healing starts the next round on a full fleet).
func raceSeed(t *testing.T, seed uint64, cov *soakCoverage) {
	t.Helper()
	h, err := NewHarness(HarnessConfig{Replicas: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	const workers, callsPer, rounds = 12, 12, 3
	r := &rng{state: seed}
	first := r.intn(2) == 0
	grow := []bool{first, !first, r.intn(2) == 0}
	first = r.intn(2) == 0
	split := []bool{first, !first, r.intn(2) == 0}
	joined, cells := 3, 2
	for round := 0; round < rounds; round++ {
		fleet := h.Pool.Replicas()
		mode := [2]string{"drop", "tamper"}[r.intn(2)]
		h.Apply(Fault{Kind: FaultCoalesce, Target: fleet[r.intn(len(fleet))].Name, Peer: mode, N: r.intn(4)})
		member := Fault{Kind: FaultLeave, Target: fleet[r.intn(len(fleet))].Name}
		if grow[round] || len(fleet) <= 2 {
			joined++
			member = Fault{Kind: FaultJoin, Target: ReplicaName(joined)}
		}
		mapped := h.Router.Members()
		cell := Fault{Kind: FaultShardMerge, Target: mapped[r.intn(len(mapped))]}
		if split[round] || len(mapped) <= 1 {
			cells++
			cell = Fault{Kind: FaultShardSplit, Target: CellName(cells)}
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start // all workers fire together: maximum racing
				for i := 0; i < callsPer; i++ {
					id := fmt.Sprintf("op-%d-%d-%d", round, w, i)
					key := fmt.Sprintf("key-%02d", (w*callsPer+i)%16)
					tenant := fmt.Sprintf("tenant-%d", w%4)
					var err error
					switch i % 4 {
					case 0:
						// Slow ops hold a replica for real service time, so
						// the other workers' frames pile up behind the flush
						// leader and coalesce.
						err = h.CallSlowWork(id, key)
					case 1:
						err = h.CallWork(id, key, 0)
					case 2:
						err = h.CallShardBatch(id, tenant, fmt.Sprintf("%s/meter-%02d", tenant, i), 4, 0)
					default:
						if err = h.CallExfil(id, key); errors.Is(err, core.ErrPolicy) {
							cov.denied.Add(1)
						}
					}
					if err != nil && !typedOutcome(err) {
						t.Errorf("seed %d round %d %s: untyped caller error: %v", seed, round, id, err)
					}
				}
			}(w)
		}
		base, _, _, _, _, _, _ := h.Led.Counts()
		loaded := func() bool {
			started, _, _, _, _, _, _ := h.Led.Counts()
			return started >= base+workers
		}
		transitions := []Fault{member, cell}
		took := make([]bool, len(transitions))
		for i, f := range transitions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for !loaded() {
					runtime.Gosched()
				}
				took[i] = h.Apply(f)
			}()
		}
		close(start)
		wg.Wait()
		if v := h.CheckAll(); len(v) != 0 {
			t.Fatalf("seed %d round %d (%s coalesce, %s %s, %s %s): invariant violations: %v",
				seed, round, mode, member.Kind, member.Target, cell.Kind, cell.Target, v)
		}
		for i, f := range transitions {
			cov.applied[f.Kind.String()]++
			if took[i] {
				cov.committed[f.Kind]++
			}
		}
		h.Apply(Fault{Kind: FaultHeal})
	}
	// The half only exercised coalescing if records actually coalesced:
	// across workers*callsPer*rounds racing calls over the fleet's stubs,
	// at least some must have shared a sealed record.
	var coalesced uint64
	for _, rep := range h.Pool.Replicas() {
		coalesced += rep.Stub.CoalescedRecords
	}
	if coalesced == 0 {
		t.Fatalf("seed %d: racing half sealed no coalesced record", seed)
	}
}
