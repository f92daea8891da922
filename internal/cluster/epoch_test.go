package cluster

import (
	"crypto/ed25519"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/telemetry"
)

// The telemetry collector must satisfy the epoch-monitor extension the
// pool type-asserts off its regular Monitor.
var _ EpochMonitor = (*telemetry.Metrics)(nil)

// memRecorder is an in-memory EventRecorder for asserting on the journal
// stream the pool emits during epoch transitions.
type memRecorder struct {
	mu     sync.Mutex
	events []string
}

func (r *memRecorder) RecordEvent(kind, actor, detail string, _, _ uint64) {
	r.mu.Lock()
	r.events = append(r.events, kind+" "+actor+" "+detail)
	r.mu.Unlock()
}

func (r *memRecorder) count(prefix string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if strings.HasPrefix(e, prefix) {
			n++
		}
	}
	return n
}

// TestJoinRunsFullEpochTransition: admitting through Join advances the
// epoch, rekeys every member at it, journals the transition anchors, and
// leaves the grown fleet fully dispatchable.
func TestJoinRunsFullEpochTransition(t *testing.T) {
	rec := &memRecorder{}
	f := newFleet(t, 2, nil, func(c *Config) { c.Journal = rec })
	if got := f.pool.Epoch(); got != 0 {
		t.Fatalf("fresh fleet at epoch %d, want 0", got)
	}
	if err := f.pool.Join(f.buildReplica(replicaName(3), false)); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got := f.pool.Epoch(); got != 1 {
		t.Fatalf("epoch = %d after join, want 1", got)
	}
	for _, ri := range f.pool.Replicas() {
		if ri.State != StateHealthy || ri.Epoch != 1 {
			t.Errorf("%s %s at session epoch %d, want healthy at 1", ri.Name, ri.State, ri.Epoch)
		}
	}
	for i := 0; i < 6; i++ {
		f.mustBump("k")
	}
	if got := f.stores[replicaName(3)].Total(); got == 0 {
		t.Error("joiner served no calls after the transition")
	}
	if n := rec.count(KindEpochBegin); n != 1 {
		t.Errorf("epoch-begin anchors = %d, want 1", n)
	}
	if n := rec.count(KindEpochMember); n != 3 {
		t.Errorf("epoch-member records = %d, want 3", n)
	}
	// A second join of the same name is a duplicate, not a transition.
	if err := f.pool.Join(f.buildReplica(replicaName(3), false)); err == nil {
		t.Fatal("duplicate Join accepted")
	}
	if got := f.pool.Epoch(); got != 1 {
		t.Fatalf("refused join advanced the epoch to %d", got)
	}
}

// TestLeaveDrainsInflightCalls pins the drain contract: a call in flight
// on the departing replica runs to completion — it is never errored — and
// Leave only removes the member once it has.
func TestLeaveDrainsInflightCalls(t *testing.T) {
	f := newFleet(t, 2, nil, func(c *Config) {
		c.Balancer = &scriptedBalancer{names: []string{replicaName(1), replicaName(2)}}
	})
	callErr := make(chan error, 1)
	go func() {
		// The stall handler holds the replica for 100ms of real time —
		// plenty to make Leave overlap the in-flight call.
		_, err := f.pool.Do("k", core.Message{Op: "stall"})
		callErr <- err
	}()
	for f.info(replicaName(1)).Inflight == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := f.pool.Leave(replicaName(1)); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	select {
	case err := <-callErr:
		if err != nil {
			t.Fatalf("in-flight call errored during Leave: %v", err)
		}
	default:
		t.Fatal("Leave returned while the drained call was still in flight")
	}
	if got := f.pool.Epoch(); got != 1 {
		t.Fatalf("epoch = %d after leave, want 1", got)
	}
	for _, ri := range f.pool.Replicas() {
		if ri.Name == replicaName(1) {
			t.Fatal("departed replica still a member")
		}
	}
	f.mustBump("k2")
}

// gatedPump holds one wire round of a replica: once armed, its next pump
// signals entered and waits for release before serving, so the request
// that round carries sits queued at the exporter meanwhile.
type gatedPump struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedPump) wrap(serve func() error) func() error {
	return func() error {
		if g.armed.CompareAndSwap(true, false) {
			close(g.entered)
			<-g.release
		}
		return serve()
	}
}

// heldCall builds a fleet of anon-1 (behind a gated pump) and anon-2, and
// starts one call on anon-1 that returns only with its request queued at
// anon-1's exporter. The scripted balancer fails the call over to anon-2.
func heldCall(t *testing.T) (f *fixture, gate *gatedPump, callErr chan error) {
	t.Helper()
	f = newFleet(t, 0, nil, func(c *Config) {
		c.Balancer = &scriptedBalancer{names: []string{replicaName(1), replicaName(2)}}
	})
	gate = &gatedPump{entered: make(chan struct{}), release: make(chan struct{})}
	spec := f.buildReplica(replicaName(1), false)
	spec.Pump = gate.wrap(spec.Pump)
	if err := f.pool.Admit(spec); err != nil {
		t.Fatal(err)
	}
	if err := f.pool.Admit(f.buildReplica(replicaName(2), false)); err != nil {
		t.Fatal(err)
	}
	gate.armed.Store(true)
	callErr = make(chan error, 1)
	go func() { callErr <- f.bump("k") }()
	<-gate.entered
	return f, gate, callErr
}

// waitState polls until a replica reaches want.
func (f *fixture) waitState(name string, want State) {
	f.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); f.info(name).State != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			f.t.Fatalf("%s never reached %s", name, want)
		}
	}
}

// TestRekeyCompletesCallQueuedAtExporter: a call whose request is queued
// at a member's exporter when a transition reaches that member completes
// there, without a failover — the rekey drains the member before its
// exporter drops the live session.
func TestRekeyCompletesCallQueuedAtExporter(t *testing.T) {
	f, gate, callErr := heldCall(t)
	joinErr := make(chan error, 1)
	go func() { joinErr <- f.pool.Join(f.buildReplica(replicaName(3), false)) }()
	f.waitState(replicaName(1), StateDraining)
	close(gate.release)
	if err := <-callErr; err != nil {
		t.Fatalf("queued call: %v", err)
	}
	if err := <-joinErr; err != nil {
		t.Fatalf("Join: %v", err)
	}
	if n := f.info(replicaName(1)).Failovers; n != 0 {
		t.Errorf("queued call failed over %d time(s) during the rekey", n)
	}
	if got := f.stores[replicaName(1)].Count("k"); got != 1 {
		t.Errorf("anon-1 served the queued call %d times, want 1", got)
	}
	if got := f.stores[replicaName(2)].Total(); got != 0 {
		t.Errorf("anon-2 served %d calls, want 0", got)
	}
	if ri := f.info(replicaName(1)); ri.State != StateHealthy || ri.Epoch != 1 {
		t.Errorf("anon-1 %s at session epoch %d, want healthy at 1", ri.State, ri.Epoch)
	}
}

// TestRekeyOfPartitionedMemberHoldsOneDryRound: a member partitioned while
// a call is on its wire holds the transition only for that call's round.
// Without a budget the call fails over after one dry round, its charge
// drops, and the rekey goes on (and fails: the member is unreachable).
func TestRekeyOfPartitionedMemberHoldsOneDryRound(t *testing.T) {
	f, gate, callErr := heldCall(t)
	f.part.Isolate(replicaName(1))
	joinErr := make(chan error, 1)
	go func() { joinErr <- f.pool.Join(f.buildReplica(replicaName(3), false)) }()
	f.waitState(replicaName(1), StateDraining)
	select {
	case err := <-joinErr:
		t.Fatalf("Join returned (%v) while the drained member's call was on its wire", err)
	default:
	}
	close(gate.release)
	if err := <-callErr; err != nil {
		t.Fatalf("call did not fail over: %v", err)
	}
	select {
	case err := <-joinErr:
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("transition still held after the call's dry round")
	}
	if n := f.info(replicaName(1)).Failovers; n != 1 {
		t.Errorf("anon-1 failovers = %d, want 1: one dry round", n)
	}
	if st := f.info(replicaName(1)).State; st == StateHealthy {
		t.Error("partitioned member healthy after its rekey")
	}
	if got := f.pool.Epoch(); got != 1 {
		t.Errorf("epoch = %d, want 1", got)
	}
}

// TestQuarantinedNameRefusedEverywhere is the satellite regression test:
// a name that was ever quarantined is refused with the typed
// ErrQuarantined by Admit and Join, cannot Leave (the quarantine record
// is fleet memory), and a refused Join must not burn an epoch.
func TestQuarantinedNameRefusedEverywhere(t *testing.T) {
	f := newFleet(t, 3, map[int]bool{2: true}, nil)
	poisoned := replicaName(2)
	if got := f.info(poisoned).State; got != StateQuarantined {
		t.Fatalf("tampered replica %s, want quarantined", got)
	}
	if err := f.pool.Admit(f.buildReplica(poisoned, false)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Admit(%s) = %v, want ErrQuarantined", poisoned, err)
	}
	if err := f.pool.Join(f.buildReplica(poisoned, false)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Join(%s) = %v, want ErrQuarantined", poisoned, err)
	}
	if err := f.pool.Leave(poisoned); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Leave(%s) = %v, want ErrQuarantined", poisoned, err)
	}
	if got := f.pool.Epoch(); got != 0 {
		t.Fatalf("refused transitions advanced the epoch to %d", got)
	}
	if err := f.pool.Leave("no-such-replica"); err == nil || errors.Is(err, ErrQuarantined) {
		t.Fatalf("Leave(unknown) = %v, want a non-quarantine error", err)
	}
}

// sideStub dials one replica's exporter directly, outside the pool, with
// the handshake stamping whatever epoch fn reports — the stale-key
// adversary's vantage point.
func (f *fixture) sideStub(replica, client string, epoch func() uint64) (*distributed.Stub, error) {
	f.t.Helper()
	exp := f.exporters[replica]
	vendor := f.vendor
	meas := cryptoutil.Hash(core.DomainImage(&fleetStore{}))
	return distributed.NewStub(distributed.StubConfig{
		RemoteName:     "anon",
		RemoteEndpoint: replica,
		Endpoint:       f.net.Attach(client),
		Rand:           cryptoutil.NewPRNG(client + "-side"),
		VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
			return core.VerifyEvidence(evidence, tr[:], vendor.Public(), meas)
		},
		Pump:  exp.Serve,
		Epoch: epoch,
	})
}

// TestRekeyEvictsStaleSessionsAndHellos: after a transition, a session
// keyed at the old epoch cannot authenticate another record, a replayed
// old-epoch hello is refused, and a hello stamping the live epoch (with
// valid attestation) is accepted.
func TestRekeyEvictsStaleSessionsAndHellos(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	pre, err := f.sideStub(replicaName(1), "side-pre", f.pool.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.Connect(); err != nil {
		t.Fatalf("side client refused at epoch 0: %v", err)
	}
	if _, err := pre.Handle(core.Envelope{Msg: core.Message{Op: "bump", Data: []byte("k")}}); err != nil {
		t.Fatalf("side call at epoch 0: %v", err)
	}

	if err := f.pool.Join(f.buildReplica(replicaName(3), false)); err != nil {
		t.Fatalf("Join: %v", err)
	}

	if _, err := pre.Handle(core.Envelope{Msg: core.Message{Op: "bump", Data: []byte("k")}}); err == nil {
		t.Fatal("epoch-0 session still authenticates after the fleet rekeyed")
	}
	replay, err := f.sideStub(replicaName(1), "side-replay", func() uint64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Connect(); err == nil {
		t.Fatal("replayed epoch-0 hello accepted by epoch-1 exporter")
	}
	fresh, err := f.sideStub(replicaName(1), "side-fresh", f.pool.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Connect(); err != nil {
		t.Fatalf("live-epoch hello refused: %v", err)
	}
	if got := fresh.SessionEpoch(); got != 1 {
		t.Fatalf("fresh session keyed at epoch %d, want 1", got)
	}
}

// TestEpochTelemetry: a fleet monitored by the telemetry collector
// surfaces transitions and rekeys as lateral_epoch_* families.
func TestEpochTelemetry(t *testing.T) {
	m := telemetry.NewMetrics()
	f := newFleet(t, 2, nil, func(c *Config) { c.Monitor = m })
	if err := f.pool.Join(f.buildReplica(replicaName(3), false)); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := f.pool.Leave(replicaName(1)); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lateral_epoch_number{fleet="anon"} 2`,
		`lateral_epoch_transitions_total{fleet="anon"} 2`,
		`lateral_epoch_rekeys_total{fleet="anon",outcome="ok"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}
