package simtest

import (
	"fmt"
	"sync"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/journal"
	"lateral/internal/netsim"
	"lateral/internal/policy"
	"lateral/internal/sgx"
	"lateral/internal/shard"
	"lateral/internal/telemetry"
)

// Harness is one simulated deployment: an attested replica fleet behind a
// pool, every layer of it — core watchdogs, cluster backoff/health
// timers, the distributed wire budget, and the chaos adversaries — driven
// by one virtual clock. Faults are applied through the harness so the
// explorer and scripted schedules share one implementation.
type Harness struct {
	Clock   *Clock
	Net     *netsim.Network
	Pool    *cluster.Pool
	Metrics *telemetry.Metrics

	// Journal is the deployment's black box: every trust transition the
	// pool commits, every session event, and every budget shed lands here,
	// hash-chained and checkpointed against Counter on the virtual clock.
	Journal *journal.Journal
	Counter *journal.MemCounter

	// Router is the sharded ingestion fabric: logical shard cells behind a
	// consistent-hash shard map, each cell's backend dispatching into the
	// (single simulated) pool. Shard-split/shard-merge faults rebalance it
	// mid-run; the shard-placement invariant audits every dispatch.
	Router *shard.Router

	// Invariant state.
	Serial       *SerialChecker
	Budget       *BudgetChecker
	Absorb       *AbsorbChecker
	Pipeline     *PipelineChecker
	Coalesce     *CoalesceChecker
	Led          *Ledger
	Conservation *ConservationChecker
	Audit        *JournalChecker
	Policy       *PolicyChecker
	Epochs       *EpochChecker
	Sharding     *ShardChecker

	chain       *netsim.Chain
	partitioner *netsim.Partitioner
	delayer     *netsim.Delayer
	tamper      *linkTamperer
	dup         *duplicator

	svcs map[string]*simSvc
	sys  map[string]*core.System

	// exps holds each replica's exporter so FaultCoalesce can arm the
	// one-shot record fault on the right server.
	exps map[string]*distributed.Exporter

	// Replica build inputs, kept so FaultJoin can construct a new attested
	// machine mid-run exactly the way NewHarness built the originals.
	vendor   *cryptoutil.Signer
	seedName string
	rules    *policy.RuleSet
	buggy    bool

	// Stall synchronization: gated handlers announce themselves on
	// entered and block on gate until the driver releases them; they
	// report completion on done. All three are sized so no handler can
	// block the simulation by signaling.
	entered chan string
	gate    chan struct{}
	done    chan string

	// awaited holds the stall op ids a CallStall driver is currently
	// managing. A stall frame that arrives when its id is not awaited — a
	// delayed or duplicated datagram surfacing after its driver returned —
	// acks immediately instead of gating a handler nobody will release.
	stallMu sync.Mutex
	awaited map[string]bool
}

// HarnessConfig sizes a simulated deployment.
type HarnessConfig struct {
	// Replicas is the fleet size (default 3).
	Replicas int

	// Seed names the deployment: substrate device seeds, handshake PRNGs,
	// and backoff jitter all derive from it, so one seed is one exact
	// deployment.
	Seed uint64

	// Buggy enables the deliberate serialization mutation in every
	// replica's service component — the bug the mutation smoke test
	// proves the checkers catch.
	Buggy bool

	// HealthInterval enables the pool's piggybacked health rounds (0 keeps
	// them off; the explorer heals via FaultHeal's explicit CheckNow). The
	// interval elapses in virtual time — tests advance the clock to
	// trigger it.
	HealthInterval time.Duration
}

// ReplicaName returns the i-th (1-based) replica's endpoint name.
func ReplicaName(i int) string { return fmt.Sprintf("svc-%d", i) }

// CellName returns the i-th (1-based) shard cell's name.
func CellName(i int) string { return fmt.Sprintf("cell-%d", i) }

// TaintLabel is the identifying-data label the harness policy confers on
// the store's ids op; the no-tainted-egress invariant forbids any chain
// carrying it from completing an egress.
const TaintLabel = "meter-identities"

// simPolicyText is every replica's chain-aware policy: touching the
// store's identifying data taints the chain, tainted chains may not
// egress, everything else is allowed. The mosaic pattern from the paper —
// each access is individually fine, the combination is not.
const simPolicyText = `taint store ids ` + TaintLabel + `
deny no-exfil to-net * when ` + TaintLabel + `
allow rest * *
`

// NewHarness builds the simulated deployment: Replicas attested systems,
// each hosting a front service component calling a backend store
// component, exported over netsim to a pool whose every timer runs on the
// harness clock.
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	clk := NewClock()
	h := &Harness{
		Clock:   clk,
		Net:     netsim.New(),
		Metrics: telemetry.NewMetrics(),
		Serial:  NewSerialChecker(),
		Budget:  NewBudgetChecker(),
		Led:     NewLedger(),
		svcs:    make(map[string]*simSvc),
		sys:     make(map[string]*core.System),
		exps:    make(map[string]*distributed.Exporter),
		entered: make(chan string, 64),
		gate:    make(chan struct{}, 64),
		done:    make(chan string, 64),
		awaited: make(map[string]bool),
	}
	h.partitioner = netsim.NewPartitioner()
	h.tamper = &linkTamperer{}
	h.dup = &duplicator{}
	h.chain = netsim.NewChain(h.partitioner, h.tamper, h.dup)
	h.Net.SetAdversary(h.chain)
	h.Epochs = NewEpochChecker()

	h.vendor = cryptoutil.NewSigner("intel")
	h.seedName = fmt.Sprintf("sim-%d", cfg.Seed)
	h.buggy = cfg.Buggy
	vendor, seedName := h.vendor, h.seedName
	jsigner := cryptoutil.NewSigner(seedName + "-journal")
	h.Counter = &journal.MemCounter{}
	jnl, err := journal.New(journal.Config{
		Name:            "svc",
		Signer:          jsigner,
		Counter:         h.Counter,
		CheckpointEvery: 8,
		Clock:           clk.Now,
		Monitor:         h.Metrics,
	})
	if err != nil {
		return nil, err
	}
	h.Journal = jnl
	pool, err := cluster.New(cluster.Config{
		Fleet:          "svc",
		RemoteName:     "svc",
		VendorKey:      vendor.Public(),
		Measurement:    cryptoutil.Hash(core.DomainImage(&simSvc{})),
		JitterSeed:     seedName,
		Monitor:        &epochTee{Metrics: h.Metrics, ck: h.Epochs},
		Sleep:          clk.Sleep,
		Clock:          clk.Now,
		Journal:        h.Journal,
		HealthInterval: cfg.HealthInterval,
		// Sequential health rounds: concurrent probes would interleave
		// netsim traffic nondeterministically and break byte-identical
		// replay of recorded schedules.
		HealthFanout: 1,
	})
	if err != nil {
		return nil, err
	}
	h.Pool = pool
	h.Epochs.Bind(pool.Epoch, pool.Replicas)
	h.Audit = NewJournalChecker(h.Journal, jsigner.Public(), h.Counter, pool.States)
	h.Pipeline = NewPipelineChecker(pool.Replicas)
	h.Coalesce = NewCoalesceChecker(pool.Replicas)
	h.Absorb = NewAbsorbChecker("quarantine", func() map[string]bool {
		out := make(map[string]bool)
		for _, r := range pool.Replicas() {
			out[r.Name] = r.State == cluster.StateQuarantined
		}
		return out
	})
	h.Policy = NewPolicyChecker(TaintLabel)
	h.rules, err = policy.Decode([]byte(simPolicyText))
	if err != nil {
		return nil, err
	}
	h.Conservation = NewConservationChecker(h.Led, func() core.Stats {
		var agg core.Stats
		for _, s := range h.sys {
			st := s.Stats()
			agg.Invocations += st.Invocations
			agg.Timeouts += st.Timeouts
			agg.Cancels += st.Cancels
			agg.Overloads += st.Overloads
		}
		return agg
	})

	// The shard fabric: two seed cells over the pool. Cells are logical —
	// every backend dispatches into the same simulated fleet — so the
	// shard map, quotas, and rebalancing run for real while the
	// deployment stays one virtual-clocked pool.
	h.Sharding = NewShardChecker(0)
	h.Router = shard.NewRouter(shard.Config{
		Fleet:   "cells",
		Monitor: h.Metrics,
		Journal: h.Journal,
	})
	for _, cell := range []string{CellName(1), CellName(2)} {
		if err := h.Router.Join(cell, &cellBackend{h: h, name: cell}); err != nil {
			return nil, err
		}
		h.Sharding.MarkSplit(cell)
	}

	for i := 1; i <= cfg.Replicas; i++ {
		spec, err := h.buildReplica(ReplicaName(i))
		if err != nil {
			return nil, err
		}
		if err := pool.Admit(spec); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// buildReplica constructs one attested replica machine — system, policy
// engine, components, exporter — and returns the spec that admits it.
// NewHarness admits the seed fleet through Pool.Admit; FaultJoin admits a
// mid-run joiner through Pool.Join. Both build here, so a joiner is the
// same audited binary as the originals.
func (h *Harness) buildReplica(name string) (cluster.ReplicaSpec, error) {
	cpu, err := sgx.New(sgx.Config{DeviceSeed: h.seedName + "-" + name, Vendor: h.vendor})
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	sys := core.NewSystem(cpu)
	sys.SetClock(h.Clock)
	sys.SetTracer(h.Metrics)
	sys.SetEventRecorder(h.Journal)
	eng, err := policy.New(policy.Config{
		Name:     name,
		Rules:    h.rules,
		Clock:    h.Clock.Now,
		Recorder: h.Journal,
		Monitor:  h.Metrics,
	})
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	sys.SetPolicy(eng)
	svc := &simSvc{h: h, buggy: h.buggy, guard: h.Serial.Guard(name + "/svc")}
	store := &simStore{h: h, guard: h.Serial.Guard(name + "/store")}
	egress := &simEgress{h: h, replica: name, guard: h.Serial.Guard(name + "/egress")}
	if err := sys.Launch(svc, true, 1); err != nil {
		return cluster.ReplicaSpec{}, err
	}
	if err := sys.Launch(store, true, 1); err != nil {
		return cluster.ReplicaSpec{}, err
	}
	if err := sys.Launch(egress, true, 1); err != nil {
		return cluster.ReplicaSpec{}, err
	}
	if err := sys.Grant(core.ChannelSpec{Name: "store", From: "svc", To: "store", Badge: 7}); err != nil {
		return cluster.ReplicaSpec{}, err
	}
	if err := sys.Grant(core.ChannelSpec{Name: "to-net", From: "svc", To: "egress", Badge: 8}); err != nil {
		return cluster.ReplicaSpec{}, err
	}
	if err := sys.InitAll(); err != nil {
		return cluster.ReplicaSpec{}, err
	}
	exp, err := distributed.NewExporter(distributed.ExportConfig{
		System:    sys,
		Component: "svc",
		Endpoint:  h.Net.Attach(name),
		Identity:  cryptoutil.NewSigner(name + "-tls"),
		Rand:      cryptoutil.NewPRNG(h.seedName + "-srv-" + name),
		Clock:     h.Clock.Now,
	})
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	h.svcs[name] = svc
	h.sys[name] = sys
	h.exps[name] = exp
	return cluster.ReplicaSpec{
		Name:           name,
		RemoteEndpoint: name,
		Endpoint:       h.Net.Attach("lb-" + name),
		Rand:           cryptoutil.NewPRNG(h.seedName + "-cli-" + name),
		Pump:           exp.Serve,
		SetEpoch:       exp.SetEpoch,
	}, nil
}

// epochTee is the harness's cluster monitor: everything flows to the
// shared telemetry collector (embedding keeps the structural
// cluster.EpochMonitor and distributed.Monitor matches intact), and
// per-replica call outcomes additionally feed the epoch-membership
// invariant.
type epochTee struct {
	*telemetry.Metrics
	ck *EpochChecker
}

func (t *epochTee) ReplicaCall(fleet, replica string, failed bool) {
	t.ck.RecordCall(replica, failed)
	t.Metrics.ReplicaCall(fleet, replica, failed)
}

// CheckAll runs every invariant checker, in a stable order, and returns
// the concatenated violations.
func (h *Harness) CheckAll() []Violation {
	var out []Violation
	for _, c := range []Checker{h.Serial, h.Budget, h.Absorb, h.Pipeline, h.Coalesce, h.Conservation, h.Audit, h.Policy, h.Epochs, h.Sharding} {
		out = append(out, c.Check()...)
	}
	return out
}

// Apply injects one fault and reports whether it took effect: false when
// the pool or the shard router refused a transition, a join named an
// existing machine, a journal tamper missed the journal, or a coalesce
// fault named no replica. Faults compose: a partition, a delayer, a
// tamperer, and a duplicator can all be active at once (netsim.Chain).
func (h *Harness) Apply(f Fault) bool {
	switch f.Kind {
	case FaultCrash:
		h.partitioner.Isolate(f.Target)
	case FaultHeal:
		if f.Target == "" {
			h.partitioner.HealAll()
		} else {
			h.partitioner.Heal(f.Target)
		}
		// A healed machine is only useful once the pool re-admits it; a
		// real deployment's health loop does this, the simulation does it
		// synchronously.
		h.Pool.CheckNow()
	case FaultPartition:
		h.partitioner.BlockLink(f.Target, f.Peer)
	case FaultDelay:
		if f.N == 0 {
			h.delayer = nil
		} else {
			h.delayer = netsim.NewTimedDelayer(f.Seed, float64(f.Pct)/100, f.Dur, h.Clock)
		}
		h.rebuildChain()
	case FaultTamper:
		h.tamper.Set(f.Target)
	case FaultSkew:
		h.Clock.Advance(f.Dur)
	case FaultDup:
		h.dup.Arm(f.Target, f.N)
	case FaultJournalTamper:
		// Mutate the black box at rest. The auditor invariant flips to
		// "replay must fail" only if an entry was actually hit — tampering
		// an index past the journal's end attacks nothing.
		if !h.Journal.TamperEntry(f.N) {
			return false
		}
		h.Audit.MarkTampered()
	case FaultJoin:
		// Names are single-use per run: the netsim endpoint and the serial
		// guards are keyed by name, so a rejoin (or joining a seed member)
		// is a scripted no-op rather than a second machine behind one wire.
		if _, exists := h.sys[f.Target]; exists {
			return false
		}
		spec, err := h.buildReplica(f.Target)
		if err != nil {
			// Replica construction is pure local work on bounded names; an
			// error here is a harness bug, not a simulated outcome.
			panic("simtest: build joiner: " + err.Error())
		}
		// A failed joiner handshake is a legal outcome (admitted Down, the
		// health loop retries); the epoch transition completed either way.
		_ = h.Pool.Join(spec)
	case FaultLeave:
		// The pool refuses unknown and quarantined names; only a committed
		// leave arms the evicted-replica half of the epoch invariant.
		if err := h.Pool.Leave(f.Target); err != nil {
			return false
		}
		h.Epochs.MarkEvicted(f.Target)
	case FaultShardSplit:
		// Proposed to the checker before the router commits; a refused
		// join (duplicate name) changes nothing on either side.
		h.Sharding.Propose(f.Target, true)
		err := h.Router.Join(f.Target, &cellBackend{h: h, name: f.Target})
		h.Sharding.Settle(err == nil)
		return err == nil
	case FaultShardMerge:
		h.Sharding.Propose(f.Target, false)
		_, err := h.Router.Leave(f.Target)
		h.Sharding.Settle(err == nil)
		return err == nil
	case FaultCoalesce:
		// Arm the one-shot sub-frame fault on the target's exporter for
		// its next record of any size (mode rides in Peer: "drop" or
		// "tamper"); an unknown name attacks nothing, so schedules stay
		// safe to fuzz.
		exp := h.exps[f.Target]
		if exp == nil {
			return false
		}
		exp.FaultNextCoalesced(f.Peer, f.N)
	}
	return true
}

// HealWire lifts every partition cut involving target without forcing a
// health round — unlike FaultHeal, the pool finds out only when its own
// health timer elapses. Tests of health-interval behavior use this to
// separate "the machine recovered" from "the pool noticed".
func (h *Harness) HealWire(target string) {
	if target == "" {
		h.partitioner.HealAll()
		return
	}
	h.partitioner.Heal(target)
}

// rebuildChain reinstalls the adversary chain after a slot changed.
func (h *Harness) rebuildChain() {
	links := []netsim.Adversary{h.partitioner}
	if h.delayer != nil {
		links = append(links, h.delayer)
	}
	links = append(links, h.tamper, h.dup)
	h.chain.SetLinks(links...)
}

// ---- operations ------------------------------------------------------

// CallWork drives one budgeted request through the pool and accounts it
// in the ledger. id must be unique per operation (it keys the budget
// checker's parent/child pairs).
func (h *Harness) CallWork(id, key string, budget time.Duration) error {
	h.Led.Start()
	var deadline time.Time
	if budget > 0 {
		deadline = h.Clock.Now().Add(budget)
	}
	var err error
	if deadline.IsZero() {
		_, err = h.Pool.Do(key, core.Message{Op: "work", Data: []byte(id)})
	} else {
		_, err = h.Pool.DoDeadline(key, core.Message{Op: "work", Data: []byte(id)}, deadline)
	}
	h.Led.Finish(err)
	return err
}

// CallSlowWork drives one unbounded request whose handler takes real
// service time (the "slow" op) — the racing soak's overlap window.
func (h *Harness) CallSlowWork(id, key string) error {
	h.Led.Start()
	_, err := h.Pool.Do(key, core.Message{Op: "slow", Data: []byte(id)})
	h.Led.Finish(err)
	return err
}

// CallShardWork drives one budgeted reading through the shard router:
// quota, shard-map lookup, then the owning cell's backend dispatches into
// the pool. The placement invariant audits the dispatch.
func (h *Harness) CallShardWork(id, tenant, key string, budget time.Duration) error {
	h.Led.Start()
	h.Sharding.Begin(id)
	var deadline time.Time
	if budget > 0 {
		deadline = h.Clock.Now().Add(budget)
	}
	_, err := h.Router.DoDeadline(tenant, key, core.Message{Op: "work", Data: []byte(id)}, deadline)
	h.Led.Finish(err)
	return err
}

// CallShardBatch drives n readings through the router as one batch frame
// (one ledger operation, one sealed datagram into the owning cell's
// pool). Reading ids derive from id so the placement invariant can prove
// none is double-counted.
func (h *Harness) CallShardBatch(id, tenant, key string, n int, budget time.Duration) error {
	h.Led.Start()
	var deadline time.Time
	if budget > 0 {
		deadline = h.Clock.Now().Add(budget)
	}
	readings := make([]distributed.Reading, n)
	for i := range readings {
		rid := fmt.Sprintf("%s/%d", id, i)
		h.Sharding.Begin(rid)
		readings[i] = distributed.Reading{Op: "work", Data: []byte(rid)}
	}
	results, err := h.Router.DoBatch(tenant, key, readings, nil, deadline)
	if err == nil {
		// The frame landed; surface the worst per-reading outcome so the
		// ledger classifies partial failures the same way single calls do.
		for _, r := range results {
			if r.Err != nil {
				err = r.Err
				break
			}
		}
	}
	h.Led.Finish(err)
	return err
}

// CallExfil drives one mosaic attack through the pool: the service reads
// identifying data from the store (tainting the chain) and then tries to
// egress it. The policy engine on every replica must refuse the egress —
// the no-tainted-egress invariant records any outcome where it did not.
func (h *Harness) CallExfil(id, key string) error {
	h.Led.Start()
	_, err := h.Pool.Do(key, core.Message{Op: "exfil", Data: []byte(id)})
	h.Led.Finish(err)
	h.Policy.RecordExfil(id, err)
	return err
}

// CallStall drives one budgeted request whose handler wedges: the request
// is issued on its own goroutine, and as soon as a handler gates itself
// the virtual clock is advanced past the deadline so the watchdog
// abandons it. Abandoned handlers are then released and awaited, so the
// harness is quiesced when CallStall returns. Returns the caller-visible
// error (ErrDeadline when a handler gated).
func (h *Harness) CallStall(id, key string, budget time.Duration) error {
	h.Led.Start()
	h.stallMu.Lock()
	h.awaited[id] = true
	h.stallMu.Unlock()
	defer func() {
		h.stallMu.Lock()
		delete(h.awaited, id)
		h.stallMu.Unlock()
	}()
	deadline := h.Clock.Now().Add(budget)
	res := make(chan error, 1)
	go func() {
		_, err := h.Pool.DoDeadline(key, core.Message{Op: "stall", Data: []byte(id)}, deadline)
		h.Led.Finish(err)
		res <- err
	}()
	gated := 0
	var err error
	for {
		select {
		case <-h.entered:
			gated++
			// The handler holds its execution slot. The replica's deadline
			// queue armed its timer, for this deadline or an earlier one,
			// when the call was queued, before the handler started. Wait
			// for an armed timer, then advance past the deadline to
			// abandon the handler.
			h.Clock.WaitTimers(1)
			h.Clock.AdvanceTo(deadline.Add(time.Millisecond))
			continue
		case err = <-res:
		}
		break
	}
	for i := 0; i < gated; i++ {
		h.gate <- struct{}{}
	}
	for i := 0; i < gated; i++ {
		<-h.done
	}
	return err
}

// ---- components ------------------------------------------------------

// simSvc is the front service: it records the budget it runs under,
// calls the backend store (so every operation exercises a two-level call
// tree), and can wedge on demand. With Buggy set it models an
// async-completion bug: the critical section of each invocation is closed
// only after the NEXT invocation has begun — the serialization mutation
// the smoke test expects the checkers to catch.
type simSvc struct {
	h     *Harness
	ctx   *core.Ctx
	guard *SerialGuard
	buggy bool
	carry bool // buggy mode: an Enter from the previous invocation is still open
}

func (s *simSvc) CompName() string    { return "svc" }
func (s *simSvc) CompVersion() string { return "1.0" }

func (s *simSvc) Init(ctx *core.Ctx) error {
	s.ctx = ctx
	return nil
}

func (s *simSvc) Handle(env core.Envelope) (core.Message, error) {
	s.guard.Enter()
	if s.buggy {
		if s.carry {
			// Close the previous invocation's critical section only now —
			// after this invocation already entered it.
			s.guard.Exit()
		}
		s.carry = true
	} else {
		defer s.guard.Exit()
	}
	return s.serve(env)
}

func (s *simSvc) serve(env core.Envelope) (core.Message, error) {
	id := string(env.Msg.Data)
	switch env.Msg.Op {
	case "work", "slow":
		if env.Msg.Op == "slow" {
			// Real — not virtual — service time. The racing soak races
			// concurrent callers against one stub, and coalescing needs a
			// window during which later arrivals can pile onto the queue
			// behind the flush leader; the virtual clock never moves here,
			// so the window has to be wall time.
			time.Sleep(50 * time.Microsecond)
		}
		s.h.Budget.RecordParent(id, env.Deadline)
		return s.ctx.Call("store", core.Message{Op: "get", Data: env.Msg.Data})
	case "exfil":
		// Mosaic attack: each step is individually permitted — reading ids
		// taints the chain, and the egress call must then be refused by the
		// system, not by this (deliberately unscrupulous) component.
		if _, err := s.ctx.Call("store", core.Message{Op: "ids", Data: env.Msg.Data}); err != nil {
			return core.Message{}, err
		}
		return s.ctx.Call("to-net", core.Message{Op: "send", Data: env.Msg.Data})
	case "stall":
		s.h.stallMu.Lock()
		live := s.h.awaited[id]
		s.h.stallMu.Unlock()
		if !live {
			// A delayed or duplicated stall frame surfacing after its
			// driver returned (a 500-seed soak found this as a deadlock):
			// nobody will release the gate, so ack immediately.
			return core.Message{Op: "ack"}, nil
		}
		s.h.entered <- id
		<-s.h.gate
		s.h.done <- id
		return core.Message{Op: "ack"}, nil
	default:
		return core.Message{}, core.ErrRefused
	}
}

// simStore is the backend: it records the budget that arrived, proving
// inheritance down the call tree.
type simStore struct {
	h     *Harness
	guard *SerialGuard
}

func (s *simStore) CompName() string     { return "store" }
func (s *simStore) CompVersion() string  { return "1.0" }
func (s *simStore) Init(*core.Ctx) error { return nil }

func (s *simStore) Handle(env core.Envelope) (core.Message, error) {
	s.guard.Enter()
	defer s.guard.Exit()
	switch env.Msg.Op {
	case "get":
		s.h.Budget.RecordChild(string(env.Msg.Data), env.Deadline)
		return core.Message{Op: "ok", Data: env.Msg.Data}, nil
	case "ids":
		// Identifying data: the channel's taint rule marks the chain.
		return core.Message{Op: "ok", Data: []byte("meter-ids")}, nil
	default:
		return core.Message{}, core.ErrRefused
	}
}

// simEgress models the network boundary: any invocation reaching it has
// left the deployment. It reports every arrival (with the chain taint it
// came with) to the policy checker — if enforcement works, no tainted
// chain ever gets this far.
type simEgress struct {
	h       *Harness
	replica string
	guard   *SerialGuard
}

func (e *simEgress) CompName() string     { return "egress" }
func (e *simEgress) CompVersion() string  { return "1.0" }
func (e *simEgress) Init(*core.Ctx) error { return nil }

func (e *simEgress) Handle(env core.Envelope) (core.Message, error) {
	e.guard.Enter()
	defer e.guard.Exit()
	e.h.Policy.RecordEgress(e.replica, env.Taint)
	if env.Msg.Op != "send" {
		return core.Message{}, core.ErrRefused
	}
	return core.Message{Op: "sent"}, nil
}

// cellBackend is one logical shard cell's dispatch surface: it reports
// every arriving reading to the placement invariant, then dispatches into
// the simulated pool. (*shard.Router's Backend contract.)
type cellBackend struct {
	h    *Harness
	name string
}

func (b *cellBackend) DoDeadline(key string, msg core.Message, deadline time.Time) (core.Message, error) {
	b.h.Sharding.RecordDispatch(string(msg.Data), key, b.name)
	if deadline.IsZero() {
		return b.h.Pool.Do(key, msg)
	}
	return b.h.Pool.DoDeadline(key, msg, deadline)
}

func (b *cellBackend) DoBatch(key string, readings []distributed.Reading, results []distributed.BatchResult, deadline time.Time) ([]distributed.BatchResult, error) {
	for _, r := range readings {
		b.h.Sharding.RecordDispatch(string(r.Data), key, b.name)
	}
	return b.h.Pool.DoBatch(key, readings, results, deadline)
}

func (b *cellBackend) Healthy() int                    { return b.h.Pool.Healthy() }
func (b *cellBackend) Replicas() []cluster.ReplicaInfo { return b.h.Pool.Replicas() }

// ---- targeted adversaries -------------------------------------------

// linkTamperer flips one bit in every payload the configured endpoint
// sends (empty target = off). Unlike the stock netsim.Tamperer it targets
// a single sender, so a schedule can corrupt exactly one replica's
// traffic and watch attestation quarantine it.
type linkTamperer struct {
	mu   sync.Mutex
	from string
}

func (t *linkTamperer) Set(from string) {
	t.mu.Lock()
	t.from = from
	t.mu.Unlock()
}

func (t *linkTamperer) Intercept(d netsim.Datagram) []netsim.Datagram {
	t.mu.Lock()
	from := t.from
	t.mu.Unlock()
	if from == "" || d.From != from || len(d.Payload) == 0 {
		return []netsim.Datagram{d}
	}
	p := make([]byte, len(d.Payload))
	copy(p, d.Payload)
	p[len(p)-1] ^= 0x01
	d.Payload = p
	return []netsim.Datagram{d}
}

// duplicator re-sends the next N datagrams the configured endpoint emits
// — at-least-once delivery misbehavior the secure channel's replay
// protection must absorb.
type duplicator struct {
	mu   sync.Mutex
	from string
	n    int
}

func (u *duplicator) Arm(from string, n int) {
	u.mu.Lock()
	u.from, u.n = from, n
	u.mu.Unlock()
}

func (u *duplicator) Intercept(d netsim.Datagram) []netsim.Datagram {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.n <= 0 || u.from == "" || d.From != u.from {
		return []netsim.Datagram{d}
	}
	u.n--
	return []netsim.Datagram{d, d}
}
