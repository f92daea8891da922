package simtest

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"lateral/internal/core"
)

// rng is a splitmix64 stream — the explorer's only randomness source, so
// one seed is one exact operation sequence.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// ExploreConfig parameterizes one simulated run.
type ExploreConfig struct {
	// Seed fixes the deployment and the operation sequence.
	Seed uint64

	// Ops is how many operations the run executes (default 24).
	Ops int

	// Replicas sizes the fleet (default 3).
	Replicas int

	// Schedule is the scripted fault sequence (sorted by At; entries are
	// applied once their At is reached). Nil runs fault-free.
	Schedule []Schedule

	// Buggy builds the harness with the deliberate serialization
	// mutation, for the smoke test that proves checkers catch it.
	Buggy bool
}

// Result is one run's outcome: the byte-exact event trace and every
// invariant violation found.
type Result struct {
	Seed       uint64
	Ops        int
	Faults     int
	Violations []Violation
	Trace      []string
}

// TraceBytes returns the canonical trace rendering — the byte string the
// replay determinism criterion compares.
func (r *Result) TraceBytes() string { return strings.Join(r.Trace, "\n") + "\n" }

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Explore runs one seeded simulation: a fresh deployment, Ops random
// operations interleaved with the scripted schedule, every invariant
// checked after every step. Identical configs produce byte-identical
// traces — the whole stack runs on the virtual clock and the operation
// stream is a pure function of the seed.
func Explore(cfg ExploreConfig) (*Result, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 24
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	sched := make([]Schedule, len(cfg.Schedule))
	copy(sched, cfg.Schedule)
	SortSchedule(sched)

	h, err := NewHarness(HarnessConfig{Replicas: cfg.Replicas, Seed: cfg.Seed, Buggy: cfg.Buggy})
	if err != nil {
		return nil, err
	}
	res := &Result{Seed: cfg.Seed, Ops: cfg.Ops}
	r := &rng{state: cfg.Seed}
	trace := func(format string, args ...any) {
		line := fmt.Sprintf("t=%-8s %s", h.Clock.Elapsed(), fmt.Sprintf(format, args...))
		res.Trace = append(res.Trace, line)
	}
	check := func(step string) {
		if v := h.CheckAll(); len(v) > 0 && !res.Failed() {
			for _, violation := range v {
				trace("VIOLATION after %s: %s", step, violation)
			}
			res.Violations = v
		}
	}

	apply := func(f Fault) {
		verdict := "ok"
		if !h.Apply(f) {
			verdict = "no-op"
		}
		trace("fault %s target=%q peer=%q dur=%s n=%d -> %s", f.Kind, f.Target, f.Peer, f.Dur, f.N, verdict)
		res.Faults++
	}

	trace("start seed=%d replicas=%d ops=%d faults=%d", cfg.Seed, cfg.Replicas, cfg.Ops, len(sched))
	nextFault := 0
	for i := 0; i < cfg.Ops; i++ {
		// Apply every scheduled fault whose time has come.
		for nextFault < len(sched) && sched[nextFault].At <= h.Clock.Elapsed() {
			apply(sched[nextFault].Fault)
			nextFault++
		}

		// One operation mix: direct calls through the pool, and tenant/meter
		// readings through the shard router, single and batched.
		id := fmt.Sprintf("op-%04d", i)
		key := fmt.Sprintf("key-%02d", r.intn(16))
		tenant := fmt.Sprintf("tenant-%d", r.intn(4))
		meter := fmt.Sprintf("%s/meter-%02d", tenant, r.intn(16))
		switch r.intn(16) {
		case 0, 1: // wedged handler under budget: watchdog must contain it
			budget := time.Duration(1+r.intn(10)) * time.Millisecond
			err := h.CallStall(id, key, budget)
			trace("step=%d stall key=%s budget=%s -> %s", i, key, budget, outcome(err))
		case 2: // unbounded call: the pre-backpressure fast path
			err := h.CallWork(id, key, 0)
			trace("step=%d call key=%s budget=none -> %s", i, key, outcome(err))
		case 3: // idle time: health intervals and delayer holds elapse
			d := time.Duration(1+r.intn(20)) * time.Millisecond
			h.Clock.Advance(d)
			trace("step=%d advance %s", i, d)
		case 4, 5: // mosaic attack: tainted egress, the policy must deny
			err := h.CallExfil(id, key)
			trace("step=%d exfil key=%s -> %s", i, key, outcome(err))
		case 6, 7: // batch frame: many readings, one sealed datagram
			n := 2 + r.intn(7)
			budget := time.Duration(5+r.intn(20)) * time.Millisecond
			err := h.CallShardBatch(id, tenant, meter, n, budget)
			trace("step=%d shard-batch key=%s n=%d budget=%s -> %s", i, meter, n, budget, outcome(err))
		case 8, 9, 10: // one reading through the shard router
			budget := time.Duration(1+r.intn(20)) * time.Millisecond
			err := h.CallShardWork(id, tenant, meter, budget)
			trace("step=%d shard-call key=%s budget=%s -> %s", i, meter, budget, outcome(err))
		default: // budgeted call, the common case
			budget := time.Duration(1+r.intn(20)) * time.Millisecond
			err := h.CallWork(id, key, budget)
			trace("step=%d call key=%s budget=%s -> %s", i, key, budget, outcome(err))
		}
		check(fmt.Sprintf("step %d", i))
	}
	// Fire any faults scheduled past the last op, then do the final sweep
	// so late schedule entries are still covered.
	for ; nextFault < len(sched); nextFault++ {
		apply(sched[nextFault].Fault)
	}
	check("end")
	trace("end healthy=%d quarantined=%d", h.Pool.Healthy(), h.Pool.Quarantined())
	return res, nil
}

// outcome maps an operation error to its stable trace label. Labels, not
// error strings, go into the trace: they are the deterministic contract.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrDeadline):
		return "deadline"
	case errors.Is(err, core.ErrCanceled):
		return "canceled"
	case errors.Is(err, core.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, core.ErrPolicy):
		return "denied"
	default:
		return "failed"
	}
}

// SoakSchedule draws seed's soak schedule for a fleet that starts with
// replicas replicas: all thirteen fault verbs at seeded times and targets,
// threaded so that each verb's consequence lands inside the run. Before a
// clock skew at 40–50 ms come duplication, a crash, a one-way partition
// and a delayer (each undone again), a coalesce fault, a join, a leave,
// and a shard split and merge, each repeated once for the router to
// refuse. From 300 ms one replica is tampered with and healed twice — the
// first round marks it down, the second re-attests it and quarantines it —
// then its leave must be refused and a journal tamper detected. The stream
// is independent of the explorer's operation stream for the same seed.
func SoakSchedule(seed uint64, replicas int) []Schedule {
	if replicas < 2 {
		replicas = 2
	}
	r := &rng{state: ^seed}
	ms := func(lo, hi int) time.Duration { return time.Duration(lo+r.intn(hi-lo+1)) * time.Millisecond }
	replica := func() string { return ReplicaName(1 + r.intn(replicas)) }
	// The victim is quarantined, so it must not be the one that leaves
	// first, nor one whose duplicated traffic may still be armed when its
	// tampered handshake runs (a duplicate fails the handshake before the
	// evidence is checked).
	victim := 1 + r.intn(replicas)
	other := func() string { return ReplicaName(1 + (victim+r.intn(replicas-1))%replicas) }

	var sched []Schedule
	at := func(t time.Duration, f Fault) time.Duration {
		sched = append(sched, Schedule{At: t, Fault: f})
		return t
	}
	at(ms(0, 30), Fault{Kind: FaultDup, Target: other(), N: 1 + r.intn(3)})
	crashed := replica()
	t := at(ms(2, 30), Fault{Kind: FaultCrash, Target: crashed})
	at(t+ms(2, 8), Fault{Kind: FaultHeal, Target: crashed})
	cut := replica()
	ends, flip := [2]string{"lb-" + cut, cut}, r.intn(2) // requests or replies lost
	t = at(ms(2, 30), Fault{Kind: FaultPartition, Target: ends[flip], Peer: ends[1-flip]})
	at(t+ms(2, 8), Fault{Kind: FaultHeal, Target: cut})
	t = at(ms(2, 25), Fault{Kind: FaultDelay, Seed: r.next(), Pct: 10 + r.intn(31), Dur: ms(1, 4), N: 1})
	at(t+ms(5, 15), Fault{Kind: FaultDelay, N: 0})
	mode := [2]string{"drop", "tamper"}[r.intn(2)]
	at(ms(2, 38), Fault{Kind: FaultCoalesce, Target: replica(), Peer: mode, N: r.intn(4)})
	at(ms(2, 38), Fault{Kind: FaultJoin, Target: ReplicaName(replicas + 1)})
	at(ms(2, 38), Fault{Kind: FaultLeave, Target: other()})
	t = at(ms(2, 20), Fault{Kind: FaultShardSplit, Target: CellName(3)})
	t = at(t+ms(1, 5), Fault{Kind: FaultShardSplit, Target: CellName(3)})
	merged := CellName(1 + r.intn(3))
	t = at(t+ms(1, 8), Fault{Kind: FaultShardMerge, Target: merged})
	at(t+ms(1, 5), Fault{Kind: FaultShardMerge, Target: merged})
	at(ms(40, 50), Fault{Kind: FaultSkew, Dur: 250 * time.Millisecond})

	tampered := ReplicaName(victim)
	t = at(ms(300, 305), Fault{Kind: FaultTamper, Target: tampered})
	t = at(t+ms(1, 5), Fault{Kind: FaultHeal, Target: tampered})
	t = at(t+ms(1, 5), Fault{Kind: FaultHeal, Target: tampered})
	t = at(t+ms(1, 5), Fault{Kind: FaultTamper})
	t = at(t+ms(1, 5), Fault{Kind: FaultLeave, Target: tampered})
	at(t+ms(1, 5), Fault{Kind: FaultJournalTamper, N: r.intn(9)})
	SortSchedule(sched)
	return sched
}
