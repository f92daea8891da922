package policy

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"lateral/internal/cap"
	"lateral/internal/core"
)

// Engine enforces a RuleSet as a core.Policy. It is pure with respect to
// the system it guards — CheckInvoke never calls back into core — and
// deterministic for a given request, clock reading, and approver answer,
// which is what lets the simulation soak replay policy decisions.
//
// Approval rules turn into capability grants: when the Approver says yes,
// the engine mints an Invoke capability with the configured TTL from its
// own grant root (cap.MintTTL on the injected clock) and caches it per
// (rule, caller). While the grant is live, matching invocations pass
// without re-asking; once it decays the check fails closed and the next
// invocation must be re-approved. Approvals are journaled through the
// Recorder as "policy-approve" (denies are journaled by core itself as
// "policy-deny", with the causing span).
type Engine struct {
	name     string
	rules    *RuleSet
	approver Approver
	ttl      time.Duration
	clock    func() time.Time
	rec      core.EventRecorder
	mon      Monitor

	root *cap.Cap // grant authority all approval caps are minted from

	mu     sync.Mutex
	grants map[string]*cap.Cap // rule|caller → live approval grant
	badge  uint64
}

// Monitor receives policy telemetry; telemetry.Metrics satisfies it
// structurally, the same pattern as cluster.Monitor and journal's.
type Monitor interface {
	// PolicyDecision records one evaluated check. Effect is "allow",
	// "deny", or "approve"; rule is the matched rule's name, or
	// "(default)" when no rule matched and the default allow applied.
	PolicyDecision(engine, effect, rule string)

	// PolicyGrant records approval-grant lifecycle: event is "mint" (a
	// fresh approval granted), "reuse" (a live grant covered the call), or
	// "expire" (a cached grant found decayed and discarded).
	PolicyGrant(engine, rule, event string)
}

// Approver answers approval-required checks. Implementations must be
// deterministic per (rule, request) within one simulation run. A nil
// Approver in the config means every approval request is refused — absent
// an authority, the engine fails closed.
type Approver interface {
	Approve(rule string, req core.PolicyRequest) bool
}

// ApproverFunc adapts a function to the Approver interface.
type ApproverFunc func(rule string, req core.PolicyRequest) bool

// Approve implements Approver.
func (f ApproverFunc) Approve(rule string, req core.PolicyRequest) bool { return f(rule, req) }

// Config parameterizes an Engine.
type Config struct {
	// Name labels the engine in telemetry and journal entries. Defaults
	// to "policy".
	Name string

	// Rules is the policy to enforce. Required; validated at New.
	Rules *RuleSet

	// Approver answers Approve-effect rules. Nil fails every approval
	// closed.
	Approver Approver

	// GrantTTL is the lifetime of an approval grant. Zero means grants
	// never decay (they still die with the engine).
	GrantTTL time.Duration

	// Clock drives grant decay; nil uses the wall clock. Simulations
	// inject their virtual clock so decay is deterministic.
	Clock func() time.Time

	// Recorder, when set, journals "policy-approve" events.
	Recorder core.EventRecorder

	// Monitor, when set, receives per-decision telemetry.
	Monitor Monitor
}

// grantRoot is the opaque object approval grants designate.
type grantRoot struct{ name string }

func (g grantRoot) ObjectName() string { return "policy-grants:" + g.name }

// New builds an engine over a validated rule set.
func New(cfg Config) (*Engine, error) {
	if cfg.Rules == nil {
		return nil, fmt.Errorf("policy: nil rule set: %w", ErrRule)
	}
	if err := cfg.Rules.Validate(); err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = "policy"
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Engine{
		name:     name,
		rules:    cfg.Rules,
		approver: cfg.Approver,
		ttl:      cfg.GrantTTL,
		clock:    clock,
		rec:      cfg.Recorder,
		mon:      cfg.Monitor,
		root:     cap.NewRoot(grantRoot{name: name}, cap.Invoke|cap.Grant),
		grants:   make(map[string]*cap.Cap),
	}, nil
}

// Name returns the engine's telemetry label.
func (e *Engine) Name() string { return e.name }

var _ core.Policy = (*Engine)(nil)

// CheckInvoke implements core.Policy: compute the labels this hop
// confers, find the first matching verdict rule, and apply it.
func (e *Engine) CheckInvoke(req core.PolicyRequest) ([]string, error) {
	acquire := e.rules.Acquired(req.Channel, req.Op)
	r := e.rules.Match(req)
	if r == nil {
		e.decide("allow", "(default)")
		return acquire, nil
	}
	switch r.Effect {
	case Deny:
		e.decide("deny", r.Name)
		return nil, e.refuse(r, req, "denied")
	case Approve:
		if err := e.approve(r, req); err != nil {
			e.decide("deny", r.Name)
			return nil, err
		}
		e.decide("approve", r.Name)
		return acquire, nil
	default:
		e.decide("allow", r.Name)
		return acquire, nil
	}
}

// approve passes the request if a live grant covers it, otherwise asks
// the Approver and mints a decaying grant on yes.
func (e *Engine) approve(r *Rule, req core.PolicyRequest) error {
	key := r.Name + "|" + req.From
	e.mu.Lock()
	g := e.grants[key]
	e.mu.Unlock()
	if g != nil {
		err := g.Demand(cap.Invoke)
		if err == nil {
			e.grant(r.Name, "reuse")
			return nil
		}
		if errors.Is(err, cap.ErrExpired) || errors.Is(err, cap.ErrRevoked) {
			e.mu.Lock()
			if e.grants[key] == g {
				delete(e.grants, key)
			}
			e.mu.Unlock()
			e.grant(r.Name, "expire")
		}
	}
	if e.approver == nil || !e.approver.Approve(r.Name, req) {
		return e.refuse(r, req, "approval refused")
	}
	c, err := e.mintGrant()
	if err != nil {
		return fmt.Errorf("policy %s: rule %q: grant mint failed: %v: %w", e.name, r.Name, err, core.ErrPolicy)
	}
	e.mu.Lock()
	e.grants[key] = c
	e.mu.Unlock()
	e.grant(r.Name, "mint")
	if e.rec != nil {
		e.rec.RecordEvent("policy-approve", req.From,
			fmt.Sprintf("rule %s: %s may invoke %s op %s (ttl %s)", r.Name, req.From, req.Channel, req.Op, e.ttl), 0, 0)
	}
	return nil
}

// mintGrant mints one approval capability: decaying after GrantTTL, or
// permanent when the TTL is zero.
func (e *Engine) mintGrant() (*cap.Cap, error) {
	e.mu.Lock()
	e.badge++
	badge := e.badge
	e.mu.Unlock()
	if e.ttl == 0 {
		return e.root.Mint(cap.Invoke, badge)
	}
	return e.root.MintTTL(cap.Invoke, badge, e.ttl, e.clock)
}

// RevokeGrants invalidates every outstanding approval grant (operator
// "pull the plug": all approval-gated invocations must be re-approved).
func (e *Engine) RevokeGrants() {
	e.mu.Lock()
	grants := e.grants
	e.grants = make(map[string]*cap.Cap)
	e.mu.Unlock()
	for _, g := range grants {
		g.Revoke()
	}
}

// refuse builds the deterministic deny error, wrapping core.ErrPolicy so
// errors.Is works locally and (rehydrated) across the wire.
func (e *Engine) refuse(r *Rule, req core.PolicyRequest, why string) error {
	from := req.From
	if from == "" {
		from = "(external)"
	}
	return fmt.Errorf("policy %s: rule %q %s: %s invoking %s op %q with taint [%s]: %w",
		e.name, r.Name, why, from, req.Channel, req.Op, strings.Join(req.Taint, ","), core.ErrPolicy)
}

func (e *Engine) decide(effect, rule string) {
	if e.mon != nil {
		e.mon.PolicyDecision(e.name, effect, rule)
	}
}

func (e *Engine) grant(rule, event string) {
	if e.mon != nil {
		e.mon.PolicyGrant(e.name, rule, event)
	}
}
