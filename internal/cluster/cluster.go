// Package cluster turns a single exported trusted component into an
// attested replica fleet: health-checked, load-balanced, and
// failover-capable. It extends §III-D's "distributed confidence domains
// across machine boundaries" from one Exporter/Stub pair to N of them —
// the shape a Fig. 3 anonymizer must take to serve heavy traffic from
// millions of meters.
//
// Trust model: every replica is admitted only after an independent
// attested handshake against the SAME pinned code measurement and vendor
// key. A replica whose evidence mismatches — a tampered build, a software
// emulation without the fused key — is rejected at admission, recorded as
// quarantined, and never retried into the pool. Crashes and partitions,
// by contrast, are operational failures: the replica is marked down,
// in-flight calls transparently fail over to a sibling at once (bounded
// attempts; exponential backoff with deterministic jitter applies only
// while no healthy replica remains), and periodic health
// checks re-admit it once a fresh handshake — including re-attestation —
// succeeds. Recovery and re-admission share one gate: the measurement.
package cluster

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/netsim"
)

// Errors.
var (
	// ErrAttestation marks evidence that failed verification against the
	// pinned measurement or vendor key. It is permanent: the pool
	// quarantines the replica and never dials it again.
	ErrAttestation = errors.New("cluster: attestation refused")

	// ErrNoReplicas is returned when no healthy replica is available.
	ErrNoReplicas = errors.New("cluster: no healthy replicas")

	// ErrExhausted wraps the last failure after bounded failover gave up.
	ErrExhausted = errors.New("cluster: retry attempts exhausted")

	// ErrQuarantined is returned by Admit/Join/Leave for a name that has
	// been quarantined: expulsion is permanent, and the tombstone outlives
	// the replica's membership, so a tampered build cannot re-enter the
	// fleet by leaving and knocking again under the same name.
	ErrQuarantined = errors.New("cluster: replica quarantined")
)

// State is a replica's admission state.
type State int

// Replica states.
const (
	// StateHealthy: admitted, attested, passing health checks.
	StateHealthy State = iota
	// StateDown: operationally unreachable (crash, partition); health
	// checks keep trying to reconnect and re-attest it.
	StateDown
	// StateQuarantined: attestation failed; permanently expelled.
	StateQuarantined
	// StateDraining: excluded from dispatch while in-flight calls run to
	// completion — the transient phase of an epoch rekey or a Leave. Not
	// a trust transition: the journal never records it, and the replica
	// returns to its pre-drain trust state (or a journaled real
	// transition) before the epoch activates.
	StateDraining
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDown:
		return "down"
	case StateQuarantined:
		return "quarantined"
	case StateDraining:
		return "draining"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Monitor receives fleet telemetry. telemetry.Metrics implements it
// structurally (the same pattern as netsim.Monitor); a nil Monitor is
// silently replaced by a no-op.
type Monitor interface {
	ReplicaState(fleet, replica string, healthy, quarantined bool)
	ReplicaInflight(fleet, replica string, delta int)
	ReplicaCall(fleet, replica string, failed bool)
	ReplicaRetry(fleet, replica string)
	ReplicaFailover(fleet, replica string)
}

type nopMonitor struct{}

func (nopMonitor) ReplicaState(string, string, bool, bool) {}
func (nopMonitor) ReplicaInflight(string, string, int)     {}
func (nopMonitor) ReplicaCall(string, string, bool)        {}
func (nopMonitor) ReplicaRetry(string, string)             {}
func (nopMonitor) ReplicaFailover(string, string)          {}

// Replica is one fleet member.
type Replica struct {
	name     string
	stub     *distributed.Stub
	setEpoch func(uint64) // pushes a new config epoch to the replica's exporter

	// mu serializes connection management (the admission handshake,
	// rekeys, and Connect/Ping health probes) so no two of them race on
	// one replica. Calls do NOT
	// take it: the stub pipelines, so any number of requests may be in
	// flight per replica at once.
	mu sync.Mutex

	// state is guarded by the owning pool's mutex.
	state State

	inflight  atomic.Int64
	calls     atomic.Int64
	errors    atomic.Int64
	retries   atomic.Int64
	failovers atomic.Int64
}

// Name returns the replica's fleet-unique name.
func (r *Replica) Name() string { return r.name }

// InflightCount returns the outstanding-call gauge (balancer input).
func (r *Replica) InflightCount() int64 { return r.inflight.Load() }

// ReplicaInfo is a point-in-time snapshot of one replica.
type ReplicaInfo struct {
	Name      string
	State     State
	Inflight  int64
	Calls     int64
	Errors    int64
	Retries   int64
	Failovers int64

	// Version is the replica stub's component version string, which names
	// the wire frame version it speaks — `lateralctl cluster` surfaces it
	// so a mixed-version rollout is visible at a glance.
	Version string

	// Epoch is the fleet config epoch the replica's live session was
	// keyed at (0 when disconnected or pre-epoch). A healthy replica
	// whose Epoch lags the pool's active epoch is stale-keyed — the
	// condition the simulation's eighth invariant forbids.
	Epoch uint64

	// Stub is the stub's pipelining counter snapshot (correlation-ID
	// bookkeeping: issued/completed/failed/orphaned calls and pipeline
	// depth).
	Stub distributed.StubStats
}

// Config configures a Pool.
type Config struct {
	// Fleet names the fleet in telemetry.
	Fleet string

	// RemoteName is the exported component's name, identical on every
	// replica (it is the same audited binary).
	RemoteName string

	// VendorKey is the trust anchor vendor all replica substrates must
	// chain to.
	VendorKey ed25519.PublicKey

	// Measurement is the pinned audited build; every replica must quote
	// exactly this.
	Measurement [32]byte

	// Balancer picks among healthy replicas (default: round-robin).
	Balancer Balancer

	// MaxAttempts bounds tries per call, first attempt included
	// (default 3).
	MaxAttempts int

	// BackoffBase is the first outage backoff; it doubles per consecutive
	// empty-pool round up to BackoffMax, plus jitter in [0, BackoffBase)
	// (defaults 200µs / 20ms). Failover to a healthy sibling is immediate
	// and never backs off.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// JitterSeed makes backoff jitter reproducible (default "cluster").
	JitterSeed string

	// HealthInterval runs a health round when this much time has passed
	// since the last one, piggybacked on Do (0 = only explicit CheckNow).
	HealthInterval time.Duration

	// PingTimeout fails a health probe that took longer than this
	// (0 = only probe errors fail).
	PingTimeout time.Duration

	// HealthFanout bounds how many replicas one health round probes
	// concurrently (default 4). 1 restores a fully sequential round —
	// deterministic simulations pin it there so probe traffic stays
	// replayable.
	HealthFanout int

	// Sleep and Clock are test seams (defaults time.Sleep / time.Now).
	Sleep func(time.Duration)
	Clock func() time.Time

	// Monitor receives fleet telemetry (default: discard).
	Monitor Monitor

	// Journal, when set, receives trust-relevant fleet events (admission,
	// health transitions, quarantine, failover) and is handed to each
	// replica's stub for session lifecycle events. Nil leaves the fleet
	// unjournaled. State-transition events are emitted while the pool's
	// mutex is held, so journal order always equals commit order: the
	// recorder must NOT call back into the Pool.
	Journal core.EventRecorder
}

// ReplicaSpec describes one replica to admit.
type ReplicaSpec struct {
	// Name is the replica's fleet-unique name (metrics label).
	Name string

	// RemoteEndpoint is the replica machine's netsim endpoint.
	RemoteEndpoint string

	// Endpoint is the pool's own attachment for dialing this replica —
	// one per replica, so reply flights never interleave.
	Endpoint *netsim.Endpoint

	// Rand seeds the handshake (required).
	Rand *cryptoutil.PRNG

	// Pump drives the remote exporter, as in distributed.StubConfig.
	Pump func() error

	// SetEpoch, when set, is the control-plane hook that moves the
	// replica's exporter to a new fleet config epoch (typically
	// Exporter.SetEpoch). The pool pushes every epoch transition through
	// it so the replica refuses hellos — and evicts sessions — from
	// older epochs. Nil leaves the replica ungated (pre-epoch behavior).
	SetEpoch func(uint64)
}

// Pool is the attested replica fleet.
type Pool struct {
	cfg Config

	// epoch is the active fleet config epoch (0 = static pre-epoch
	// fleet); hsEpoch is the epoch new handshakes bind, which runs ahead
	// of epoch for the duration of a transition so every rekey lands on
	// the incoming configuration. epochMu serializes transitions
	// (Join/Leave) end to end.
	epoch   atomic.Uint64
	hsEpoch atomic.Uint64
	epochMu sync.Mutex

	mu        sync.Mutex
	replicas  []*Replica
	byName    map[string]*Replica
	tombstone map[string]string // quarantined names -> detail; survives Leave
	rng       *cryptoutil.PRNG
	lastCheck time.Time
}

// New validates the config and builds an empty pool; Admit adds replicas.
func New(cfg Config) (*Pool, error) {
	if cfg.RemoteName == "" || len(cfg.VendorKey) == 0 {
		return nil, fmt.Errorf("cluster: config needs RemoteName and VendorKey")
	}
	if cfg.Fleet == "" {
		cfg.Fleet = cfg.RemoteName
	}
	if cfg.Balancer == nil {
		cfg.Balancer = NewRoundRobin()
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 200 * time.Microsecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 20 * time.Millisecond
	}
	if cfg.JitterSeed == "" {
		cfg.JitterSeed = "cluster"
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Monitor == nil {
		cfg.Monitor = nopMonitor{}
	}
	if cfg.HealthFanout <= 0 {
		cfg.HealthFanout = 4
	}
	p := &Pool{
		cfg:       cfg,
		byName:    make(map[string]*Replica),
		tombstone: make(map[string]string),
		rng:       cryptoutil.NewPRNG("cluster-jitter-" + cfg.JitterSeed),
	}
	p.lastCheck = cfg.Clock()
	return p, nil
}

// verifier pins the fleet measurement: the admission (and re-admission)
// gate every replica handshake must pass.
func (p *Pool) verifier() func(ed25519.PublicKey, [32]byte, []byte) error {
	return func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
		if err := core.VerifyEvidence(evidence, tr[:], p.cfg.VendorKey, p.cfg.Measurement); err != nil {
			return fmt.Errorf("%w: %v", ErrAttestation, err)
		}
		return nil
	}
}

// Admit dials one replica with a full attested handshake. Evidence
// mismatch quarantines the replica permanently and returns ErrAttestation;
// operational failures admit it as down (health checks will keep trying);
// success admits it healthy. The replica is recorded — and visible in
// telemetry — in all three cases. A name that was ever quarantined is
// refused outright with ErrQuarantined: re-admission under a poisoned
// name is never silent.
func (p *Pool) Admit(spec ReplicaSpec) error {
	if spec.Name == "" || spec.Endpoint == nil || spec.Rand == nil {
		return fmt.Errorf("cluster: replica spec needs Name, Endpoint, Rand")
	}
	// The fleet monitor doubles as the stub pipelining monitor when it
	// implements that interface too (telemetry.Metrics does, structurally).
	stubMon, _ := p.cfg.Monitor.(distributed.Monitor)
	stub, err := distributed.NewStub(distributed.StubConfig{
		RemoteName:     p.cfg.RemoteName,
		RemoteEndpoint: spec.RemoteEndpoint,
		Endpoint:       spec.Endpoint,
		Rand:           spec.Rand,
		VerifyServer:   p.verifier(),
		Pump:           spec.Pump,
		Clock:          p.cfg.Clock,
		Monitor:        stubMon,
		Journal:        p.cfg.Journal,
		Actor:          p.cfg.Fleet + "/" + spec.Name,
		Epoch:          p.hsEpoch.Load,
	})
	if err != nil {
		return err
	}
	// The replica enters the pool DOWN: a pre-handshake replica must never
	// be dispatchable, and the journaled admit event records exactly that
	// not-yet-trusted state. (Relying on the zero value here would admit
	// it healthy — State's zero value — for the window until Connect
	// resolves.)
	r := &Replica{name: spec.Name, stub: stub, setEpoch: spec.SetEpoch, state: StateDown}
	p.mu.Lock()
	if detail, dead := p.tombstone[spec.Name]; dead {
		p.mu.Unlock()
		return fmt.Errorf("admit %s: %s: %w", spec.Name, detail, ErrQuarantined)
	}
	if _, dup := p.byName[spec.Name]; dup {
		p.mu.Unlock()
		return fmt.Errorf("cluster: replica %q already admitted", spec.Name)
	}
	p.replicas = append(p.replicas, r)
	p.byName[spec.Name] = r
	p.record(KindAdmit, r.name, "")
	p.mu.Unlock()
	// Visible in fleet telemetry from admission, not first transition.
	p.cfg.Monitor.ReplicaState(p.cfg.Fleet, r.name, false, false)

	// The replica is visible to health rounds from here on, so the
	// handshake takes the same lock their Connect probes do.
	r.mu.Lock()
	err = stub.Connect()
	p.settle(r, err, "")
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("admit %s: %w", spec.Name, err)
	}
	return nil
}

// Journal event kinds the pool emits; the journal package's canonical
// vocabulary, restated here because the dependency points the other way.
const (
	KindAdmit       = "admit"
	KindReplicaUp   = "replica-up"
	KindReplicaDown = "replica-down"
	KindQuarantine  = "quarantine"
	KindFailover    = "failover"
	KindLeave       = "leave"
	KindEpochBegin  = "epoch-begin"
	KindEpochMember = "epoch-member"
)

// record journals one fleet event. Caller holds p.mu (that is the point:
// journal order equals commit order).
func (p *Pool) record(kind, replica, detail string) {
	if p.cfg.Journal != nil {
		p.cfg.Journal.RecordEvent(kind, p.cfg.Fleet+"/"+replica, detail, 0, 0)
	}
}

// setState transitions a replica, journals the transition, and reports it
// to telemetry. Quarantine is absorbing: no transition leaves it. The
// state commit, the journal entry, and the Monitor callback all happen
// under p.mu, so no observer can ever record a transition the pool then
// reorders or rolls back — concurrent failover and health rounds
// serialize here, which is what makes "quarantine is journaled exactly
// once" a theorem rather than a race. A no-op transition (old == new)
// emits nothing, and so does one for a replica that is no longer the
// member under its name: a straggling caller whose failure lands after
// Leave evicted the replica (or after a rejoin reused the name) must not
// journal a state for a member the journal already recorded as gone.
func (p *Pool) setState(r *Replica, s State, detail string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.byName[r.name] != r || r.state == StateQuarantined || r.state == s {
		return
	}
	r.state = s
	switch s {
	case StateHealthy:
		p.record(KindReplicaUp, r.name, detail)
	case StateDown:
		p.record(KindReplicaDown, r.name, detail)
	case StateQuarantined:
		p.record(KindQuarantine, r.name, detail)
		// The tombstone outlives membership: Leave cannot launder a
		// quarantined name back into admissibility.
		p.tombstone[r.name] = detail
	}
	p.cfg.Monitor.ReplicaState(p.cfg.Fleet, r.name, s == StateHealthy, s == StateQuarantined)
}

// settle commits the verdict of the handshake r just ran: Healthy (with
// detail up), Quarantined on an evidence mismatch, or Down with the
// session closed. The caller holds r.mu across the handshake and this
// call, as every path that changes r's session does, so a failing
// caller's Close lands before the handshake or after the commit.
func (p *Pool) settle(r *Replica, err error, up string) {
	switch {
	case err == nil:
		p.setState(r, StateHealthy, up)
	case errors.Is(err, ErrAttestation):
		p.setState(r, StateQuarantined, err.Error())
	default:
		p.markDown(r, err.Error())
	}
}

// markDown closes r's session and commits Down. The caller holds r.mu.
func (p *Pool) markDown(r *Replica, detail string) {
	r.stub.Close()
	p.setState(r, StateDown, detail)
}

// failover is a failed call's verdict on r: the replica is down until a
// health round re-attests it. The session close and the Down transition
// commit in one r.mu section (see settle), and the failover event refers to
// an already-recorded state.
func (p *Pool) failover(r *Replica, err error) {
	r.mu.Lock()
	p.markDown(r, err.Error())
	r.mu.Unlock()
	r.failovers.Add(1)
	p.mu.Lock()
	p.record(KindFailover, r.name, err.Error())
	p.mu.Unlock()
	p.cfg.Monitor.ReplicaFailover(p.cfg.Fleet, r.name)
}

// healthy returns the currently dispatchable replicas.
func (p *Pool) healthySnapshot() []*Replica {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Replica, 0, len(p.replicas))
	for _, r := range p.replicas {
		if r.state == StateHealthy {
			out = append(out, r)
		}
	}
	return out
}

// Do routes one call into the fleet. key is the caller identity (or any
// affinity key) the balancer may shard on. Transport failures fail over
// IMMEDIATELY to a healthy sibling — a single-replica crash must not tax
// the call with a backoff sleep when the rest of the fleet can serve it.
// Exponential backoff (with jitter) kicks in only once no healthy replica
// remains mid-call: the pool sleeps, runs a health round so a recovered
// replica can re-attest and re-admit, and tries again until the attempt
// budget runs out. Remote application errors (distributed.ErrRemote) are
// returned as-is — the call reached an attested replica and was refused,
// so retrying elsewhere would duplicate work, not fix anything.
func (p *Pool) Do(key string, msg core.Message) (core.Message, error) {
	return p.DoDeadline(key, msg, time.Time{})
}

// DoDeadline is Do under a caller budget: every attempt — transmit,
// remote execution, backoff sleep — is carved from the time remaining
// until deadline, so bounded failover can never stretch a call past the
// caller's deadline. The budget rides to each replica as the wire frame's
// remaining-budget field (enforced server-side too). Failure routing on
// top of Do's:
//
//   - core.ErrDeadline (locally expired or reported by the replica) ends
//     the call immediately. The budget is spent; retrying a sibling would
//     serve a reply the caller has already abandoned. The replica is NOT
//     marked down — it was slow for this call, not dead.
//   - core.ErrOverloaded from a replica fails over to a sibling at once,
//     also WITHOUT marking the replica down: a full admission queue is
//     transient load, and forcing a re-attestation round-trip on it would
//     amplify exactly the overload being shed.
//   - core.ErrPolicy (the replica's policy refused the invocation) is
//     returned as-is, like distributed.ErrRemote: the deny is a verdict
//     about the request's chain taint, not the replica's health, and
//     every sibling enforces the same policy — failing over would just
//     collect N identical denies.
//
// A zero deadline is Do's unbounded behavior.
func (p *Pool) DoDeadline(key string, msg core.Message, deadline time.Time) (core.Message, error) {
	var reply core.Message
	err := p.dispatch(key, deadline, func(r *Replica) error {
		var cerr error
		reply, cerr = r.stub.Handle(core.Envelope{Msg: msg, Deadline: deadline})
		return cerr
	})
	if err != nil && !errors.Is(err, distributed.ErrRemote) && !errors.Is(err, core.ErrPolicy) {
		return core.Message{}, err
	}
	return reply, err
}

// DoBatch routes one batched-ingestion frame into the fleet: the whole
// batch rides a single sealed datagram to the replica the balancer picks
// for key (a shard router batches readings per shard, so one affinity key
// covers them all), and the reply carries per-reading status — N readings
// through one AEAD pass each way. Frame-level failures follow
// DoDeadline's routing exactly: immediate failover on transport failure,
// typed deadline handling, overload retried against a sibling. Once the
// batch reached an attested replica, per-reading errors come back inside
// results and never trigger failover — re-sending the frame elsewhere
// would double-deliver the readings that succeeded. A frame counts as one
// call on the inflight gauge and call counters: the wire sees one record,
// and that is what the balancer and drains account in. Results are
// appended to the caller's slice (pass results[:0] to reuse its backing
// array); on success it carries exactly one entry per reading, in order.
//
// A batch the codec cannot carry (distributed.ValidateBatch) is refused
// before any replica is picked. The stub would refuse it too, but with an
// error dispatch reads as a transport failure, and failing healthy
// replicas over on the caller's malformed input would take the fleet down.
func (p *Pool) DoBatch(key string, readings []distributed.Reading, results []distributed.BatchResult, deadline time.Time) ([]distributed.BatchResult, error) {
	if err := distributed.ValidateBatch(readings); err != nil {
		return results, err
	}
	base := len(results)
	err := p.dispatch(key, deadline, func(r *Replica) error {
		// A retried attempt replays the whole batch: drop any partial
		// results a failed frame left behind.
		results = results[:base]
		var cerr error
		results, cerr = r.stub.HandleBatch(core.Envelope{Deadline: deadline}, readings, results)
		return cerr
	})
	if err != nil {
		return results[:base], err
	}
	return results, nil
}

// dispatch is the shared attempt loop under Do, DoDeadline, and DoBatch:
// balancer pick, inflight charge, bounded failover, outage backoff, and
// the typed-error routing documented on DoDeadline. call runs one attempt
// against the picked replica's stub; dispatch keeps the books around it.
func (p *Pool) dispatch(key string, deadline time.Time, call func(*Replica) error) error {
	p.maybeCheck()
	var lastErr error
	backoffs := 0
	for attempt := 0; attempt < p.cfg.MaxAttempts; attempt++ {
		if !deadline.IsZero() && !p.cfg.Clock().Before(deadline) {
			// Budget spent between attempts: stop failing over.
			if lastErr == nil {
				return fmt.Errorf("cluster %s: budget spent before dispatch: %w", p.cfg.Fleet, core.ErrDeadline)
			}
			return fmt.Errorf("cluster %s: budget spent after %d attempts (last: %v): %w",
				p.cfg.Fleet, attempt, lastErr, core.ErrDeadline)
		}
		candidates := p.healthySnapshot()
		if len(candidates) == 0 {
			if lastErr == nil {
				return ErrNoReplicas
			}
			if attempt+1 >= p.cfg.MaxAttempts {
				break
			}
			// Total outage mid-call: back off — never past the caller's
			// deadline — then let a health round re-attest a down replica
			// before the next attempt.
			d := p.backoff(backoffs)
			if !deadline.IsZero() {
				if rem := deadline.Sub(p.cfg.Clock()); d > rem {
					d = rem
				}
			}
			if d > 0 {
				p.cfg.Sleep(d)
			}
			backoffs++
			p.CheckNow()
			continue
		}
		// Pick and charge the inflight gauge in ONE p.mu critical section,
		// re-checking the state after the pick: an epoch transition marks a
		// replica draining under the same lock, so either this call's charge
		// is visible before the drain starts counting, or this call observes
		// the drain and routes elsewhere. No call can slip onto a replica
		// after its drain began — that is what lets a rekey wait for
		// inflight==0 and know it is final.
		p.mu.Lock()
		r := p.cfg.Balancer.Pick(key, candidates)
		stale := r != nil && r.state != StateHealthy
		if r != nil && !stale {
			r.inflight.Add(1)
			p.cfg.Monitor.ReplicaInflight(p.cfg.Fleet, r.name, 1)
		}
		p.mu.Unlock()
		if r == nil {
			return ErrNoReplicas
		}
		if stale {
			// The snapshot raced a transition (drain, failover): the
			// replica is no longer dispatchable. Route the next attempt
			// from a fresh snapshot.
			lastErr = fmt.Errorf("cluster %s: replica %s left dispatch mid-pick", p.cfg.Fleet, r.name)
			continue
		}
		// Calls pipeline: the stub multiplexes concurrent requests over the
		// replica's one attested session, so nothing serializes here and the
		// gauge reports true concurrent depth — the load LeastInflight
		// balances on. The attempt is discharged and counted as it returns.
		err := call(r)
		r.inflight.Add(-1)
		p.cfg.Monitor.ReplicaInflight(p.cfg.Fleet, r.name, -1)
		r.calls.Add(1)
		if err != nil {
			r.errors.Add(1)
		}
		p.cfg.Monitor.ReplicaCall(p.cfg.Fleet, r.name, err != nil)
		if err == nil {
			return nil
		}
		if errors.Is(err, core.ErrDeadline) {
			return err
		}
		if errors.Is(err, core.ErrOverloaded) {
			// Shed by the replica's admission queue: try a sibling, leave
			// the replica admitted.
			lastErr = err
			if attempt+1 < p.cfg.MaxAttempts {
				r.retries.Add(1)
				p.cfg.Monitor.ReplicaRetry(p.cfg.Fleet, r.name)
			}
			continue
		}
		if errors.Is(err, distributed.ErrRemote) || errors.Is(err, core.ErrPolicy) {
			return err
		}
		// Operational failure: fail the call over without delay.
		p.failover(r, err)
		lastErr = err
		if attempt+1 < p.cfg.MaxAttempts {
			r.retries.Add(1)
			p.cfg.Monitor.ReplicaRetry(p.cfg.Fleet, r.name)
		}
	}
	return fmt.Errorf("%w (%d): %v", ErrExhausted, p.cfg.MaxAttempts, lastErr)
}

// backoff computes the nth consecutive outage delay: BackoffBase doubling
// per round, capped at BackoffMax, plus jitter in [0, BackoffBase) from
// the seeded PRNG so concurrent retriers desynchronize reproducibly.
func (p *Pool) backoff(n int) time.Duration {
	d := p.cfg.BackoffBase << uint(n)
	if d > p.cfg.BackoffMax || d <= 0 {
		d = p.cfg.BackoffMax
	}
	p.mu.Lock()
	j := time.Duration(p.rng.Intn(int(p.cfg.BackoffBase)))
	p.mu.Unlock()
	return d + j
}

// maybeCheck piggybacks a health round on Do when HealthInterval elapsed.
func (p *Pool) maybeCheck() {
	if p.cfg.HealthInterval <= 0 {
		return
	}
	now := p.cfg.Clock()
	p.mu.Lock()
	due := now.Sub(p.lastCheck) >= p.cfg.HealthInterval
	if due {
		p.lastCheck = now
	}
	p.mu.Unlock()
	if due {
		p.CheckNow()
	}
}

// CheckNow runs one health round: healthy replicas are pinged (a probe
// error or a probe slower than PingTimeout marks them down); down replicas
// get a full reconnect — handshake AND re-attestation — and are re-admitted
// only if both succeed. A down replica that comes back with the wrong
// measurement (restarted as a tampered build) is quarantined for good.
// Quarantined replicas are never touched.
//
// Probes run concurrently (bounded by HealthFanout): a fleet where one
// replica's probe stalls for PingTimeout must not stretch the round by
// N×timeout. Each probe touches only its own replica's endpoint and
// session, so probes commute, and each commits its verdict inside the
// replica's lock, in the same section as the session change it reflects
// (see settle). With HealthFanout 1 a round probes and commits in
// admission order, which keeps simulated rounds deterministic.
func (p *Pool) CheckNow() {
	p.mu.Lock()
	replicas := make([]*Replica, len(p.replicas))
	copy(replicas, p.replicas)
	states := make([]State, len(replicas))
	for i, r := range replicas {
		states[i] = r.state
	}
	p.mu.Unlock()

	probe := func(i int) {
		r := replicas[i]
		r.mu.Lock()
		defer r.mu.Unlock()
		switch states[i] {
		case StateHealthy:
			start := p.cfg.Clock()
			err := r.stub.Ping()
			switch {
			case err != nil:
				p.markDown(r, err.Error())
			case p.cfg.PingTimeout > 0 && p.cfg.Clock().Sub(start) > p.cfg.PingTimeout:
				p.markDown(r, "probe slow")
			}
		case StateDown:
			// A failed reconnect leaves the replica down; the next round
			// tries again.
			p.settle(r, r.stub.Connect(), "")
		}
	}
	if p.cfg.HealthFanout == 1 || len(replicas) == 1 {
		for i := range replicas {
			probe(i)
		}
	} else {
		sem := make(chan struct{}, p.cfg.HealthFanout)
		var wg sync.WaitGroup
		for i := range replicas {
			if states[i] == StateQuarantined {
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				probe(i)
				<-sem
			}(i)
		}
		wg.Wait()
	}
}

// Replicas returns a snapshot of every admitted replica, in admission
// order.
func (p *Pool) Replicas() []ReplicaInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ReplicaInfo, 0, len(p.replicas))
	for _, r := range p.replicas {
		out = append(out, ReplicaInfo{
			Name:      r.name,
			State:     r.state,
			Inflight:  r.inflight.Load(),
			Calls:     r.calls.Load(),
			Errors:    r.errors.Load(),
			Retries:   r.retries.Load(),
			Failovers: r.failovers.Load(),
			Version:   r.stub.CompVersion(),
			Epoch:     r.stub.SessionEpoch(),
			Stub:      r.stub.Stats(),
		})
	}
	return out
}

// States returns the live trust-state view keyed the way the journal
// names actors (fleet/replica) — the map `lateralctl audit` and the
// simulation's auditor invariant diff against a journal replay.
func (p *Pool) States() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.replicas))
	for _, r := range p.replicas {
		out[p.cfg.Fleet+"/"+r.name] = r.state.String()
	}
	return out
}

// Healthy counts replicas currently in StateHealthy.
func (p *Pool) Healthy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, r := range p.replicas {
		if r.state == StateHealthy {
			n++
		}
	}
	return n
}

// Quarantined counts permanently expelled replicas.
func (p *Pool) Quarantined() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, r := range p.replicas {
		if r.state == StateQuarantined {
			n++
		}
	}
	return n
}
