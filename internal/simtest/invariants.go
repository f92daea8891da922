package simtest

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
)

// Violation is one invariant breach, with enough detail to act on.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Checker is run after every simulated step. Implementations accumulate
// state through hooks the harness wires in and report breaches here.
// Check must be idempotent: the explorer calls it once per step and once
// at quiesce.
type Checker interface {
	Name() string
	Check() []Violation
}

// ---- handler-serialization: handlers never overlap ------------------

// SerialGuard instruments one component's handler body: Enter/Exit around
// the body record the peak number of concurrent executions. The system
// contract says that peak is 1, always — the watchdog abandons callers,
// never serialization.
type SerialGuard struct {
	name   string
	inside atomic.Int32
	peak   atomic.Int32
}

// Enter marks the handler body started and records concurrency.
func (g *SerialGuard) Enter() {
	in := g.inside.Add(1)
	for {
		p := g.peak.Load()
		if in <= p || g.peak.CompareAndSwap(p, in) {
			return
		}
	}
}

// Exit marks the handler body finished.
func (g *SerialGuard) Exit() { g.inside.Add(-1) }

// Peak returns the highest concurrency observed.
func (g *SerialGuard) Peak() int { return int(g.peak.Load()) }

// SerialChecker verifies per-component handler serialization: no guard
// ever observed two concurrent Handle bodies on one node.
type SerialChecker struct {
	mu     sync.Mutex
	guards []*SerialGuard
}

// NewSerialChecker builds an empty serialization checker.
func NewSerialChecker() *SerialChecker { return &SerialChecker{} }

// Guard registers and returns a guard for the named component.
func (c *SerialChecker) Guard(name string) *SerialGuard {
	g := &SerialGuard{name: name}
	c.mu.Lock()
	c.guards = append(c.guards, g)
	c.mu.Unlock()
	return g
}

// Name implements Checker.
func (c *SerialChecker) Name() string { return "handler-serialization" }

// Check implements Checker.
func (c *SerialChecker) Check() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Violation
	for _, g := range c.guards {
		if p := g.Peak(); p > 1 {
			out = append(out, Violation{
				Invariant: c.Name(),
				Detail:    fmt.Sprintf("component %s observed %d concurrent Handle bodies", g.name, p),
			})
		}
	}
	return out
}

// ---- deadline-monotonicity: budgets only tighten --------------------

// BudgetChecker verifies that budgets only tighten down the call tree:
// for every (parent, child) deadline pair recorded under one operation
// id, the child's envelope deadline is never after the parent's. Harness
// components call RecordParent with their own envelope deadline before
// calling downstream, and downstream components call RecordChild with
// what arrived.
type BudgetChecker struct {
	mu       sync.Mutex
	parents  map[string]time.Time
	children map[string]time.Time
}

// NewBudgetChecker builds an empty budget checker.
func NewBudgetChecker() *BudgetChecker {
	return &BudgetChecker{
		parents:  make(map[string]time.Time),
		children: make(map[string]time.Time),
	}
}

// RecordParent notes the budget a calling handler was running under.
func (c *BudgetChecker) RecordParent(id string, deadline time.Time) {
	c.mu.Lock()
	c.parents[id] = deadline
	c.mu.Unlock()
}

// RecordChild notes the budget the downstream handler received.
func (c *BudgetChecker) RecordChild(id string, deadline time.Time) {
	c.mu.Lock()
	c.children[id] = deadline
	c.mu.Unlock()
}

// Name implements Checker.
func (c *BudgetChecker) Name() string { return "deadline-monotonicity" }

// Check implements Checker.
func (c *BudgetChecker) Check() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.children))
	for id := range c.children {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []Violation
	for _, id := range ids {
		child := c.children[id]
		parent, ok := c.parents[id]
		if !ok {
			continue
		}
		// A bounded parent must never hand a child a looser (or absent)
		// budget; an unbounded parent may hand out anything.
		if parent.IsZero() {
			continue
		}
		if child.IsZero() || child.After(parent) {
			out = append(out, Violation{
				Invariant: c.Name(),
				Detail: fmt.Sprintf("op %s: child deadline %v extends parent %v",
					id, child, parent),
			})
		}
	}
	return out
}

// ---- quarantine-is-absorbing: quarantine is forever -----------------

// AbsorbChecker verifies that a named absorbing state is never left: once
// the snapshot function reports an entity absorbed, every later snapshot
// must agree. The harness wires it to the pool's replica states with
// absorbed = quarantined.
type AbsorbChecker struct {
	state    string
	snapshot func() map[string]bool
	mu       sync.Mutex
	absorbed map[string]bool
	escaped  map[string]bool
}

// NewAbsorbChecker builds a checker over the snapshot function.
func NewAbsorbChecker(state string, snapshot func() map[string]bool) *AbsorbChecker {
	return &AbsorbChecker{
		state:    state,
		snapshot: snapshot,
		absorbed: make(map[string]bool),
		escaped:  make(map[string]bool),
	}
}

// Name implements Checker.
func (c *AbsorbChecker) Name() string { return c.state + "-is-absorbing" }

// Check implements Checker.
func (c *AbsorbChecker) Check() []Violation {
	cur := c.snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, in := range cur {
		if in {
			c.absorbed[name] = true
		} else if c.absorbed[name] {
			c.escaped[name] = true
		}
	}
	names := make([]string, 0, len(c.escaped))
	for name := range c.escaped {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Violation
	for _, name := range names {
		out = append(out, Violation{
			Invariant: c.Name(),
			Detail:    fmt.Sprintf("%s left the absorbing %s state", name, c.state),
		})
	}
	return out
}

// ---- pipeline-exactly-once: pipelined calls resolve once ------------

// PipelineChecker verifies the distributed stubs' correlation-ID
// accounting: every call a stub issued resolved exactly once — issued =
// completed + failed — and no caller is still parked awaiting a reply at
// a quiesce point. Orphan replies (duplicates, unknown IDs, replies
// landing after their caller unwound) are dropped and counted, never
// delivered, so a replaying or reordering wire can raise the orphan
// counter but can never double-complete or leak a call. Harness
// operations are synchronous, so the books must balance at every check.
type PipelineChecker struct {
	snapshot func() []cluster.ReplicaInfo
}

// NewPipelineChecker builds the checker over a fleet snapshot function
// (typically pool.Replicas).
func NewPipelineChecker(snapshot func() []cluster.ReplicaInfo) *PipelineChecker {
	return &PipelineChecker{snapshot: snapshot}
}

// Name implements Checker.
func (c *PipelineChecker) Name() string { return "pipeline-exactly-once" }

// Check implements Checker.
func (c *PipelineChecker) Check() []Violation {
	var out []Violation
	for _, r := range c.snapshot() {
		st := r.Stub
		if st.Inflight != 0 {
			out = append(out, Violation{
				Invariant: c.Name(),
				Detail: fmt.Sprintf("replica %s: %d calls still awaiting replies at quiesce",
					r.Name, st.Inflight),
			})
		}
		if st.Issued != st.Completed+st.Failed {
			out = append(out, Violation{
				Invariant: c.Name(),
				Detail: fmt.Sprintf("replica %s: issued %d != completed %d + failed %d",
					r.Name, st.Issued, st.Completed, st.Failed),
			})
		}
	}
	return out
}

// ---- telemetry-conservation: every op has one outcome ---------------

// Ledger accounts every operation the driver starts against exactly one
// outcome bucket. Conservation is the bucket equation: nothing the driver
// submitted may vanish or double-complete.
type Ledger struct {
	mu       sync.Mutex
	started  int64
	inflight int64
	ok       int64
	timeouts int64
	cancels  int64
	sheds    int64
	failed   int64
}

// NewLedger builds an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Start accounts one submitted operation.
func (l *Ledger) Start() {
	l.mu.Lock()
	l.started++
	l.inflight++
	l.mu.Unlock()
}

// Finish accounts the operation's single outcome, classified by error.
func (l *Ledger) Finish(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inflight--
	switch {
	case err == nil:
		l.ok++
	case errors.Is(err, core.ErrDeadline):
		l.timeouts++
	case errors.Is(err, core.ErrCanceled):
		l.cancels++
	case errors.Is(err, core.ErrOverloaded):
		l.sheds++
	default:
		l.failed++
	}
}

// Counts returns (started, ok, timeouts, cancels, sheds, failed, inflight).
func (l *Ledger) Counts() (started, ok, timeouts, cancels, sheds, failed, inflight int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.started, l.ok, l.timeouts, l.cancels, l.sheds, l.failed, l.inflight
}

// ConservationChecker verifies the ledger equation
//
//	started = completions + timeouts + cancellations + sheds + failures
//
// at every quiesce point (inflight must be 0 when the explorer checks),
// and cross-checks the systems' cost counters: completed work implies at
// least as many substrate invocations, and every watchdog abandonment the
// systems counted must not exceed what callers were told — timeouts the
// servers record are a lower bound on what the ledger saw only when no
// call is refused client-side, so the cross-check is one-directional.
type ConservationChecker struct {
	led   *Ledger
	stats func() core.Stats // aggregated over every system in the sim
}

// NewConservationChecker builds the checker over the ledger and an
// aggregated stats snapshot function.
func NewConservationChecker(led *Ledger, stats func() core.Stats) *ConservationChecker {
	return &ConservationChecker{led: led, stats: stats}
}

// Name implements Checker.
func (c *ConservationChecker) Name() string { return "telemetry-conservation" }

// Check implements Checker.
func (c *ConservationChecker) Check() []Violation {
	started, ok, tmo, can, shed, failed, inflight := c.led.Counts()
	var out []Violation
	if inflight != 0 {
		// Not a quiesce point; the equation is only meaningful when every
		// submitted op has resolved. The explorer quiesces before checking.
		return nil
	}
	if started != ok+tmo+can+shed+failed {
		out = append(out, Violation{
			Invariant: c.Name(),
			Detail: fmt.Sprintf("started %d != ok %d + timeouts %d + cancels %d + sheds %d + failures %d",
				started, ok, tmo, can, shed, failed),
		})
	}
	if c.stats != nil {
		st := c.stats()
		if st.Invocations < ok {
			out = append(out, Violation{
				Invariant: c.Name(),
				Detail: fmt.Sprintf("substrate invocations %d < completed calls %d",
					st.Invocations, ok),
			})
		}
	}
	return out
}

// ---- no-tainted-egress: no post-taint egress ------------------------

// PolicyChecker verifies the chain-aware policy end to end: once a chain
// has touched identifying data (the "meter-identities" taint the harness
// policy confers on the store's ids op), no egress ever completes. Two
// observation points, either of which catches a breach independently:
// the egress component records every invocation that actually reached it
// (a tainted arrival means enforcement failed at the caller), and the
// driver records every exfil operation's outcome (a nil error means a
// tainted chain's egress succeeded end to end, wherever enforcement
// leaked). Denied is the only acceptable exfil outcome besides transport
// failure.
type PolicyChecker struct {
	label string
	mu    sync.Mutex
	viols []Violation
}

// NewPolicyChecker builds the checker for one forbidden taint label.
func NewPolicyChecker(label string) *PolicyChecker {
	return &PolicyChecker{label: label}
}

// RecordEgress notes one invocation that reached an egress component.
func (c *PolicyChecker) RecordEgress(replica string, taint []string) {
	if !core.HasTaint(taint, c.label) {
		return
	}
	c.mu.Lock()
	c.viols = append(c.viols, Violation{
		Invariant: c.Name(),
		Detail: fmt.Sprintf("egress handler on %s ran with taint %v",
			replica, taint),
	})
	c.mu.Unlock()
}

// RecordExfil notes one driver-level exfil operation's outcome.
func (c *PolicyChecker) RecordExfil(id string, err error) {
	if err != nil {
		return
	}
	c.mu.Lock()
	c.viols = append(c.viols, Violation{
		Invariant: c.Name(),
		Detail:    fmt.Sprintf("exfil op %s completed without a deny", id),
	})
	c.mu.Unlock()
}

// Name implements Checker.
func (c *PolicyChecker) Name() string { return "no-tainted-egress" }

// Check implements Checker.
func (c *PolicyChecker) Check() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.viols...)
}
