package core

import (
	"errors"
	"sort"
)

// This file is the chain-aware policy layer of the invocation path: every
// invocation chain carries a taint set — labels acquired from the channels
// and assets it has touched — and an installed Policy decides, before any
// handler runs, whether the chain may take its next step. The contract
// (see DESIGN.md "Chain-aware policy enforcement"):
//
//   - Taint rides the chain, not the component: Envelope.Taint propagates
//     into the handler (node.taint, guarded by the execution slot exactly
//     like the inherited deadline and span), every outbound call inherits
//     it, and the distributed layer carries it across machines as a wire
//     field. Labels only accumulate; nothing the chain does sheds them.
//   - Enforcement is the system's job, never the component's: the check
//     runs on the invocation path (call, deliver, asset access) before the
//     target executes, and a denied invocation is journaled through the
//     EventRecorder with the causing request's trace/span IDs.
//   - A nil Policy is the fast path: no labels are computed, no interface
//     call is made, and the steady invocation path is byte-for-byte the
//     pre-policy one (BenchmarkPolicyOverhead pins this), the same
//     discipline as Tracer, the deadline watchdog, and the journal hook.

// ErrPolicy is returned when an installed Policy refuses an invocation:
// the chain's accumulated taint, combined with the channel or asset it
// tried to touch next, matched a deny rule (or an approval was required
// and not granted). The refusal happens before the target handler runs,
// and the distributed layer rehydrates it across the wire so errors.Is
// works for remote denies too. A policy deny is a verdict about the
// request, not about the target's health — the cluster layer returns it
// as-is instead of failing over.
var ErrPolicy = errors.New("core: policy refused invocation")

// Pseudo-channel names policy checks use for crossings that have no
// granted channel: external delivery (the distributed deliver boundary)
// and domain-memory asset access. Rules may target them like any channel.
const (
	// PolicyDeliver is the channel name of an external Deliver into the
	// system — the boundary where wire-imported taint is judged.
	PolicyDeliver = "@deliver"

	// PolicyAsset is the channel name of a domain-memory asset access;
	// the asset name travels as the request's Op.
	PolicyAsset = "@asset"
)

// PolicyRequest describes one invocation about to happen: who is calling,
// what they are invoking, and every label the chain has accumulated so
// far. Taint is sorted and must be treated as read-only.
type PolicyRequest struct {
	// Taint is the chain's accumulated label set at the moment of the
	// check — labels conferred by channels and assets touched earlier in
	// the chain, on this machine or upstream of the wire.
	Taint []string

	// From is the invoking component ("" at an external deliver boundary
	// or on an ambient channel).
	From string

	// Channel is the granted channel name being invoked, or PolicyDeliver
	// / PolicyAsset for crossings without one.
	Channel string

	// To is the target component.
	To string

	// Op is the message operation (the asset name for PolicyAsset).
	Op string
}

// Policy is the enforcement hook on the invocation path, declared here
// (not imported) so internal/policy's engine — or any test double —
// satisfies it structurally, the same pattern as Tracer, EventRecorder,
// and the cluster/netsim Monitor interfaces.
//
// Implementations must be safe for concurrent use, deterministic for a
// given request (simulation replays depend on it), and must not call back
// into the System.
type Policy interface {
	// CheckInvoke evaluates one invocation. A nil error allows it;
	// acquire lists the labels the chain gains by touching this channel
	// or asset (merged into the chain's taint by the system). A non-nil
	// error — which must wrap ErrPolicy — refuses the invocation before
	// the target runs.
	CheckInvoke(req PolicyRequest) (acquire []string, err error)
}

// SetPolicy installs (or, with nil, removes) the policy hook. Like
// SetTracer and SetEventRecorder, the uninstalled state is the fast path:
// no taint is computed and no check is made. Install it before traffic.
func (s *System) SetPolicy(p Policy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policy = p
}

// Taint returns a copy of the calling handler's accumulated chain taint.
// Like the inherited deadline, it is only meaningful while the component
// is executing an invocation (Handle or a call made from it).
func (c *Ctx) Taint() []string {
	n := c.node
	if len(n.taint) == 0 {
		return nil
	}
	out := make([]string, len(n.taint))
	copy(out, n.taint)
	return out
}

// MergeTaint returns the sorted, deduplicated union of a chain's taint
// and newly acquired labels. The inputs are never mutated: envelopes on
// other goroutines may alias base.
func MergeTaint(base, add []string) []string {
	if len(add) == 0 {
		return base
	}
	out := make([]string, 0, len(base)+len(add))
	out = append(out, base...)
	for _, l := range add {
		if !HasTaint(out, l) {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// HasTaint reports whether the label set contains label. Sets are small
// (a handful of labels), so a linear scan beats anything clever.
func HasTaint(taint []string, label string) bool {
	for _, l := range taint {
		if l == label {
			return true
		}
	}
	return false
}

// notePolicyDeny accounts a policy refusal and journals it with the
// causing request's trace/span IDs. Same lock discipline as
// noteBudgetErr: stats under s.mu, the recorder invoked after release so
// it never runs under the system lock.
func (s *System) notePolicyDeny(err error, actor string, sp Span) {
	s.mu.Lock()
	s.stats.PolicyDenies++
	rec := s.events
	s.mu.Unlock()
	if rec != nil {
		rec.RecordEvent("policy-deny", actor, err.Error(), sp.Trace, sp.ID)
	}
}

// traceDeny emits the span of a refused delivery or call, the one
// notePolicyDeny journaled, so the journal entry names a span the tracer
// holds: it starts and ends at one instant, with the deny as its error.
func (s *System) traceDeny(tr Tracer, sp Span, info SpanInfo, err error) {
	now := s.now()
	tr.SpanStart(sp, info, now)
	tr.SpanEnd(sp, info, now, 0, err)
}
