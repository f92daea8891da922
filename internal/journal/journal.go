// Package journal is the fleet's black box: an append-only, hash-chained
// structured event journal recording every trust- and ops-relevant
// decision the runtime makes — attestation admission, quarantine,
// failover, health transitions, deadline sheds, and secure-channel
// session establishment and failure — each entry carrying the trace/span
// IDs of the request that caused it, so journal lines link back to the
// span trees `lateralctl trace` renders.
//
// Tamper evidence comes in two layers, the armored-witness shape:
//
//   - Every entry extends a SHA-256 hash chain from a fixed genesis, so
//     any single flipped byte — in an entry, its stored chain hash, or
//     the framing — breaks verification at that entry.
//   - Periodic signed checkpoints bind (sequence, chain head) to a
//     trusted monotonic counter (internal/tpm's NV counter in real
//     deployments, MemCounter in tests). A rolled-back or truncated
//     journal cannot present a final checkpoint matching the counter's
//     current value, so rollback is detected, not silently accepted —
//     the same anchor discipline as the vpfs journal.
//
// Replay (audit.go) re-derives the fleet's trust state from the events
// alone and fails loudly on any chain break, counter regression, or
// divergence from the live pool view. The flight recorder (flight.go)
// rides on the same substrate: anomalies dump the last N spans plus a
// metrics snapshot for post-mortem.
//
// The hook surface is one structural method — RecordEvent — declared as a
// tiny interface at each instrumented package (core, cluster,
// distributed), never imported from here; a nil recorder is the fast
// path, same discipline as core.Tracer.
package journal

import (
	"sync"
	"time"

	"lateral/internal/cryptoutil"
)

// Event kinds the runtime records. Instrumented packages emit these as
// plain strings (they declare only the structural RecordEvent interface
// and never import this package); the constants here are the canonical
// vocabulary replay derives trust state from.
const (
	// KindAdmit: a replica entered the pool (recorded before its attested
	// handshake resolves, so the replica exists in the derived state as
	// down until a replica-up follows).
	KindAdmit = "admit"

	// KindReplicaUp / KindReplicaDown: health transitions.
	KindReplicaUp   = "replica-up"
	KindReplicaDown = "replica-down"

	// KindQuarantine: attestation refused — the absorbing state. Replay
	// enforces exactly-once: a second quarantine event for one actor, or
	// any later transition out, is a divergence.
	KindQuarantine = "quarantine"

	// KindFailover: a call was re-routed away from the actor. Trust-state
	// neutral (the matching replica-down carries the transition).
	KindFailover = "failover"

	// KindDeadline / KindOverload / KindCancel: budget sheds on the
	// invocation path. Trust-state neutral; a burst of them is the
	// flight recorder's deadline-storm trigger.
	KindDeadline = "deadline"
	KindOverload = "overload"
	KindCancel   = "cancel"

	// KindSessionUp / KindSessionFail: secure-channel session lifecycle.
	KindSessionUp   = "session-up"
	KindSessionFail = "session-fail"

	// KindPolicyDeny / KindPolicyApprove: chain-aware policy verdicts.
	// Trust-state neutral — a deny judges one request, not the actor's
	// admission — but durable: an auditor replaying the journal sees
	// every refused egress and every approval grant with its TTL.
	KindPolicyDeny    = "policy-deny"
	KindPolicyApprove = "policy-approve"

	// KindLeave: a replica departed the fleet through an epoch
	// transition. Replay removes the actor from the derived state; a
	// leave for an unadmitted or quarantined actor is a divergence
	// (quarantine records are the fleet's memory and may not be shed).
	KindLeave = "leave"

	// KindEpochBegin / KindEpochMember: config-epoch anchor points. An
	// epoch-begin (actor = the fleet, detail "epoch=N <reason>") opens
	// transition N — epoch numbers must be strictly increasing — and the
	// epoch-member records that follow activation (detail
	// "epoch=N state=S") enumerate the membership the fleet settled on,
	// each checked against the trust state replay derived independently.
	KindEpochBegin  = "epoch-begin"
	KindEpochMember = "epoch-member"

	// KindShardAssign: a shard-map transition in a sharded fabric (actor =
	// "fabric/shard", detail "epoch=N join|leave"). Replay rebuilds the
	// placement history per fabric; a non-increasing epoch, a join for a
	// shard already mapped, or a leave for an unmapped shard is a
	// divergence — placement cannot be rewritten after the fact.
	KindShardAssign = "shard-assign"
)

// Event is one journal entry.
type Event struct {
	Seq    uint64 // 1-based, dense
	At     time.Time
	Kind   string
	Actor  string // who the event is about, e.g. "svc/svc-2"
	Detail string // free-form context, e.g. the error text
	Trace  uint64 // core.Tracer trace ID of the causing request (0 = none)
	Span   uint64 // core.Tracer span ID (0 = none)

	// Hash is the chain head after this entry:
	// SHA256(prev || canonical encoding). Stored so the export stream is
	// self-verifying entry by entry — a flipped byte is pinned to the
	// entry it hit, even past the last signed checkpoint.
	Hash [32]byte
}

// Checkpoint anchors the chain head to the trusted monotonic counter.
type Checkpoint struct {
	Seq     uint64   // entries covered (chain position)
	Counter uint64   // trusted counter value bound to this checkpoint
	Head    [32]byte // chain head at Seq
	Sig     []byte   // Ed25519 over the domain-separated (Seq, Counter, Head)
}

// Counter is the tiny piece of trusted, persistent, monotonic state the
// journal anchors to — tpm.NVCounter satisfies it structurally, and
// MemCounter stands in for it in tests and simulations.
type Counter interface {
	// Increment advances and returns the new value. Monotonic, durable.
	Increment() (uint64, error)
	// Value returns the current value.
	Value() (uint64, error)
}

// MemCounter is an in-memory Counter for tests and simulations.
type MemCounter struct {
	mu sync.Mutex
	v  uint64
}

// Increment implements Counter.
func (c *MemCounter) Increment() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.v++
	return c.v, nil
}

// Value implements Counter.
func (c *MemCounter) Value() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v, nil
}

// Monitor receives journal telemetry. telemetry.Metrics implements it
// structurally (the same pattern as cluster.Monitor); a nil Monitor is
// silently replaced by a no-op.
type Monitor interface {
	// JournalEvent records one appended entry by kind.
	JournalEvent(journal, kind string)
	// JournalCheckpoint records one signed checkpoint with its chain
	// position and counter anchor.
	JournalCheckpoint(journal string, seq, counter uint64)
	// JournalDropped records an event refused because the journal bound
	// was reached.
	JournalDropped(journal string)
	// JournalFlightDump records one anomaly-triggered flight dump.
	JournalFlightDump(journal, trigger string)
}

type nopMonitor struct{}

func (nopMonitor) JournalEvent(string, string)              {}
func (nopMonitor) JournalCheckpoint(string, uint64, uint64) {}
func (nopMonitor) JournalDropped(string)                    {}
func (nopMonitor) JournalFlightDump(string, string)         {}

// Config configures a Journal.
type Config struct {
	// Name labels the journal in telemetry (default "journal").
	Name string

	// Signer signs checkpoints. Required.
	Signer *cryptoutil.Signer

	// Counter is the trusted monotonic anchor. Required.
	Counter Counter

	// CheckpointEvery auto-checkpoints after that many entries
	// (default 32; negative disables automatic checkpoints — explicit
	// Checkpoint calls still work).
	CheckpointEvery int

	// MaxEntries bounds the in-memory journal (default 1<<16). Events
	// past the bound are counted as dropped, never silently lost from
	// telemetry.
	MaxEntries int

	// Clock timestamps entries (default time.Now). Simulation harnesses
	// inject the virtual clock so journals replay deterministically.
	Clock func() time.Time

	// Flight, when set, receives anomaly-triggered dump requests:
	// quarantine, session failure, and deadline storms.
	Flight *FlightRecorder

	// StormThreshold deadline/overload events within StormWindow trigger
	// a flight dump (defaults 8 within 100ms).
	StormThreshold int
	StormWindow    time.Duration

	// Monitor receives journal telemetry (default: discard).
	Monitor Monitor
}

// Journal is the append-only, hash-chained event log.
type Journal struct {
	cfg Config

	// ckptMu serializes Checkpoint end to end (counter increment + record
	// append), so concurrent checkpoints cannot interleave into a
	// counter-out-of-order log that its own audit would reject.
	ckptMu sync.Mutex

	mu        sync.Mutex
	entries   []Event
	enc       [][]byte // canonical encodings, the bytes the chain hashes
	ckpts     []Checkpoint
	head      [32]byte
	seq       uint64
	dropped   uint64
	sinceCkpt int
	tampers   int
	storm     []time.Time
}

// New validates the config and opens an empty journal at genesis.
func New(cfg Config) (*Journal, error) {
	if cfg.Signer == nil || cfg.Counter == nil {
		return nil, errConfig
	}
	if cfg.Name == "" {
		cfg.Name = "journal"
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 32
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1 << 16
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.StormThreshold <= 0 {
		cfg.StormThreshold = 8
	}
	if cfg.StormWindow <= 0 {
		cfg.StormWindow = 100 * time.Millisecond
	}
	if cfg.Monitor == nil {
		cfg.Monitor = nopMonitor{}
	}
	return &Journal{cfg: cfg, head: genesisHead()}, nil
}

// RecordEvent appends one event, extending the hash chain. It implements
// core.EventRecorder, the structural hook core, cluster, distributed,
// shard and policy take. Implementations must not call back into the pool
// or system that emitted the event (the emitters hold their state locks
// so journal order equals commit order).
func (j *Journal) RecordEvent(kind, actor, detail string, trace, span uint64) {
	now := j.cfg.Clock()
	j.mu.Lock()
	if len(j.entries) >= j.cfg.MaxEntries {
		j.dropped++
		j.mu.Unlock()
		j.cfg.Monitor.JournalDropped(j.cfg.Name)
		return
	}
	j.seq++
	e := Event{Seq: j.seq, At: now, Kind: kind, Actor: actor, Detail: detail, Trace: trace, Span: span}
	enc := appendEntry(nil, &e)
	j.head = chainNext(j.head, enc)
	e.Hash = j.head
	j.entries = append(j.entries, e)
	j.enc = append(j.enc, enc)
	j.sinceCkpt++
	ckptDue := j.cfg.CheckpointEvery > 0 && j.sinceCkpt >= j.cfg.CheckpointEvery
	stormDump := false
	switch kind {
	case KindDeadline, KindOverload:
		j.storm = append(j.storm, now)
		cut := 0
		for cut < len(j.storm) && now.Sub(j.storm[cut]) > j.cfg.StormWindow {
			cut++
		}
		j.storm = j.storm[cut:]
		if len(j.storm) >= j.cfg.StormThreshold {
			stormDump = true
			j.storm = j.storm[:0]
		}
	}
	j.mu.Unlock()

	j.cfg.Monitor.JournalEvent(j.cfg.Name, kind)
	if ckptDue {
		// Best-effort: a failing counter leaves the chain unanchored past
		// the previous checkpoint, which the audit will surface.
		_ = j.Checkpoint()
	}
	switch {
	case kind == KindQuarantine || kind == KindSessionFail:
		j.flightDump(kind, actor+": "+detail)
	case stormDump:
		j.flightDump("deadline-storm", actor+": "+detail)
	}
}

// Checkpoint signs the current chain head under the next trusted counter
// value. The counter is bumped FIRST: a crash between the bump and the
// record leaves the trusted counter ahead of the last checkpoint, which
// the audit flags — conservative, never silently stale.
func (j *Journal) Checkpoint() error {
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	c, err := j.cfg.Counter.Increment()
	if err != nil {
		return err
	}
	j.mu.Lock()
	ck := Checkpoint{Seq: j.seq, Counter: c, Head: j.head}
	ck.Sig = j.cfg.Signer.Sign(checkpointMsg(ck.Seq, ck.Counter, ck.Head))
	j.ckpts = append(j.ckpts, ck)
	j.sinceCkpt = 0
	j.mu.Unlock()
	j.cfg.Monitor.JournalCheckpoint(j.cfg.Name, ck.Seq, ck.Counter)
	return nil
}

// flightDump asks the wired flight recorder for an anomaly dump.
func (j *Journal) flightDump(trigger, detail string) {
	if j.cfg.Flight == nil {
		return
	}
	j.cfg.Flight.Trigger(trigger, detail)
	j.cfg.Monitor.JournalFlightDump(j.cfg.Name, trigger)
}

// Entries returns a snapshot of all recorded events, in order.
func (j *Journal) Entries() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, len(j.entries))
	copy(out, j.entries)
	return out
}

// Checkpoints returns a snapshot of all signed checkpoints, in order.
func (j *Journal) Checkpoints() []Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Checkpoint, len(j.ckpts))
	copy(out, j.ckpts)
	return out
}

// Head returns the current chain position and head hash.
func (j *Journal) Head() (seq uint64, head [32]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq, j.head
}

// Dropped reports events refused by the MaxEntries bound.
func (j *Journal) Dropped() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// TamperEntry flips one byte in the stored canonical encoding of entry i
// (0-based) — the simulation fault injector's hook for proving the
// auditor detects tampering. Returns false when no such entry exists.
// The in-memory chain head is NOT recomputed: this models an attacker
// mutating the journal at rest, which replay must catch. The flipped
// position rotates with every call, so tampering the same entry twice
// corrupts two bytes instead of XOR-restoring the first.
func (j *Journal) TamperEntry(i int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < 0 || i >= len(j.enc) {
		return false
	}
	b := j.enc[i]
	b[(len(b)/2+j.tampers)%len(b)] ^= 0x40
	j.tampers++
	return true
}
