// Config epochs: the dynamic-membership half of the attested fleet.
//
// A pool starts at epoch 0 — the static pre-epoch fleet, byte-identical
// on the wire to what it always was. The first Join or Leave begins the
// epoch state machine, and every transition runs the same four phases:
//
//	propose  — the next epoch number is fixed, journaled as an
//	           epoch-begin anchor, and becomes the handshake epoch: every
//	           handshake from this instant binds the incoming
//	           configuration (HKDF salt + hello stamp + exporter gate).
//	rekey    — each member is drained (marked non-dispatchable under
//	           p.mu; in-flight calls run to completion — never errored),
//	           then re-handshaken: re-attestation against the pinned
//	           measurement AND fresh session keys bound to the new epoch.
//	           Evidence mismatch quarantines; operational failure marks
//	           down for the health loop to retry — already at the new
//	           epoch either way.
//	activate — the active epoch commits, the membership is journaled as
//	           epoch-member records (the auditor's replayable history),
//	           and telemetry observes the transition. New calls now route
//	           on the new ring; sessions keyed to older epochs can no
//	           longer authenticate anywhere in the fleet.
//	drain    — nothing is left to drain by activation (rekey drained
//	           per-member), so the phase is the proof obligation, not
//	           work: the simulation's eighth invariant checks that no
//	           call ever completes against an evicted or stale-keyed
//	           replica.
//
// Transitions serialize on epochMu; dispatch keeps flowing throughout —
// only the member currently rekeying is out of rotation.
package cluster

import (
	"fmt"
	"runtime"
)

// EpochMonitor is the optional telemetry extension for fleets with
// dynamic membership; telemetry.Metrics implements it structurally, and
// the pool type-asserts it off the regular Monitor so existing monitors
// keep working unchanged.
type EpochMonitor interface {
	EpochTransition(fleet string, epoch uint64, reason string)
	ReplicaRekey(fleet, replica string, ok bool)
}

// Epoch returns the active fleet config epoch (0 = static fleet, no
// transition yet).
func (p *Pool) Epoch() uint64 { return p.epoch.Load() }

// Join admits a new replica as a full epoch transition: propose the next
// epoch, admit the joiner with a handshake already bound to it, rekey —
// and re-attest — every existing member at the new epoch, then activate.
// A quarantined name is refused with ErrQuarantined before any epoch
// work. If the joiner's handshake fails the transition still completes
// (the epoch was proposed and journaled; the fleet re-verifies and moves
// on without the joiner dispatchable) and the admission error is
// returned.
func (p *Pool) Join(spec ReplicaSpec) error {
	if spec.Name == "" || spec.Endpoint == nil || spec.Rand == nil {
		return fmt.Errorf("cluster: replica spec needs Name, Endpoint, Rand")
	}
	p.epochMu.Lock()
	defer p.epochMu.Unlock()
	p.mu.Lock()
	if detail, dead := p.tombstone[spec.Name]; dead {
		p.mu.Unlock()
		return fmt.Errorf("join %s: %s: %w", spec.Name, detail, ErrQuarantined)
	}
	if _, dup := p.byName[spec.Name]; dup {
		p.mu.Unlock()
		return fmt.Errorf("cluster: replica %q already admitted", spec.Name)
	}
	p.mu.Unlock()

	reason := "join " + spec.Name
	next := p.propose(reason)
	admitErr := p.Admit(spec) // handshake epoch is already next
	p.rekeyMembers(next, spec.Name)
	p.activate(next, reason)
	return admitErr
}

// Leave removes a member as a full epoch transition: propose, drain the
// departing replica (in-flight calls complete, new calls route around
// it), remove it and journal the leave, then rekey the survivors at the
// new epoch and activate. Quarantined members cannot leave — the
// quarantine record is the fleet's memory of the incident — and unknown
// names are an error.
func (p *Pool) Leave(name string) error {
	p.epochMu.Lock()
	defer p.epochMu.Unlock()
	p.mu.Lock()
	r := p.byName[name]
	if r == nil {
		p.mu.Unlock()
		return fmt.Errorf("cluster: replica %q not admitted", name)
	}
	if r.state == StateQuarantined {
		p.mu.Unlock()
		return fmt.Errorf("leave %s: %w", name, ErrQuarantined)
	}
	p.mu.Unlock()

	reason := "leave " + name
	next := p.propose(reason)

	// Drain, then evict: after this no call can reach the departed
	// replica through the pool, and the survivors' rekey re-derives every
	// session key without it.
	p.mu.Lock()
	wasHealthy := r.state == StateHealthy
	if wasHealthy {
		r.state = StateDraining
	}
	p.mu.Unlock()
	if wasHealthy {
		p.waitDrained(r)
	}
	p.mu.Lock()
	for i, m := range p.replicas {
		if m == r {
			p.replicas = append(p.replicas[:i], p.replicas[i+1:]...)
			break
		}
	}
	delete(p.byName, name)
	p.record(KindLeave, name, fmt.Sprintf("epoch=%d", next))
	p.mu.Unlock()
	p.cfg.Monitor.ReplicaState(p.cfg.Fleet, name, false, false)
	r.stub.Close()

	p.rekeyMembers(next, "")
	p.activate(next, reason)
	return nil
}

// propose fixes the next epoch number, journals the epoch-begin anchor,
// and moves the handshake epoch forward so every handshake from here on
// binds the incoming configuration.
func (p *Pool) propose(reason string) uint64 {
	next := p.epoch.Load() + 1
	p.hsEpoch.Store(next)
	p.mu.Lock()
	if p.cfg.Journal != nil {
		p.cfg.Journal.RecordEvent(KindEpochBegin, p.cfg.Fleet,
			fmt.Sprintf("epoch=%d %s", next, reason), 0, 0)
	}
	p.mu.Unlock()
	return next
}

// rekeyMembers pushes the new epoch to every member's exporter and
// re-handshakes each one — re-attestation plus epoch-bound session keys.
// fresh names a member whose session is already keyed at next (a joiner
// admitted mid-transition): its exporter still gets the epoch push so it
// refuses stale peers, but it is not drained or re-handshaken.
func (p *Pool) rekeyMembers(next uint64, fresh string) {
	p.mu.Lock()
	members := make([]*Replica, 0, len(p.replicas))
	for _, r := range p.replicas {
		if r.state != StateQuarantined {
			members = append(members, r)
		}
	}
	p.mu.Unlock()

	em, _ := p.cfg.Monitor.(EpochMonitor)
	for _, r := range members {
		// Control plane first: the exporter gates new hellos at the new
		// epoch and evicts older-epoch sessions, so even a member the
		// rekey below fails on is already unreachable with stale keys.
		if r.setEpoch != nil {
			r.setEpoch(next)
		}
		if r.name == fresh {
			continue
		}
		p.mu.Lock()
		pre := r.state
		if pre == StateHealthy {
			r.state = StateDraining
		}
		p.mu.Unlock()
		if pre == StateHealthy {
			p.waitDrained(r)
		}
		r.mu.Lock()
		err := r.stub.Connect()
		if err == nil && pre == StateHealthy {
			// Healthy before, rekeyed fine: not a trust transition, so
			// no journal entry — just leave the drain.
			p.mu.Lock()
			if r.state == StateDraining {
				r.state = StateHealthy
			}
			p.mu.Unlock()
		} else {
			p.settle(r, err, fmt.Sprintf("rekeyed at epoch %d", next))
		}
		r.mu.Unlock()
		if em != nil {
			em.ReplicaRekey(p.cfg.Fleet, r.name, err == nil)
		}
	}
}

// activate commits the new epoch — new calls route on the new membership
// from here — and journals one epoch-member record per member: the
// anchor an auditor replays the fleet's membership history from.
func (p *Pool) activate(next uint64, reason string) {
	p.epoch.Store(next)
	p.mu.Lock()
	for _, r := range p.replicas {
		p.record(KindEpochMember, r.name,
			fmt.Sprintf("epoch=%d state=%s", next, r.state))
	}
	p.mu.Unlock()
	if em, ok := p.cfg.Monitor.(EpochMonitor); ok {
		em.EpochTransition(p.cfg.Fleet, next, reason)
	}
}

// waitDrained spins until a draining replica's in-flight calls have all
// completed. The caller has already made the replica non-dispatchable
// under p.mu; charges are only ever added under that same lock while the
// replica is healthy, so once the gauge reads zero it stays zero.
func (p *Pool) waitDrained(r *Replica) {
	for r.inflight.Load() != 0 {
		runtime.Gosched()
	}
}
