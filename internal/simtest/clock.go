// Package simtest is the deterministic simulation harness: a seeded
// virtual clock, a scripted fault-schedule DSL, invariant checkers, and a
// random-operation explorer with seed replay and failing-schedule
// minimization (FoundationDB-style simulation testing, scaled to this
// repo). The paper's containment claims — serialization, budget
// monotonicity, absorbing quarantine, telemetry conservation — become
// machine-checked properties explored across thousands of seeded fault
// interleavings instead of one wall-clock interleaving per test run.
package simtest

import (
	"runtime"
	"sync"
	"time"
)

// Epoch is the fixed instant every simulation starts at. It is far from
// the zero time (so IsZero-means-unbounded logic is never tripped) and
// identical across runs, which is what makes event traces byte-identical.
var Epoch = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// Clock is a deterministic virtual time source. It satisfies core.Clock
// (Now + At) and netsim.Clock (Now) structurally, and its Sleep/Now
// methods slot straight into cluster.Config's func seams — one clock
// drives the whole stack.
//
// Time only moves when the simulation driver advances it: Advance steps
// the clock to each armed timer's deadline in order before firing it, so
// every timer observes a consistent Now and firing order is a pure
// function of the arming order. Sleep (the cluster backoff seam) advances
// the clock itself: in a simulation the sleeping goroutine is the actor
// whose waiting IS the passage of time.
type Clock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*simTimer
	seq    uint64
}

type simTimer struct {
	at    time.Time
	seq   uint64
	ch    chan time.Time
	fired bool
}

// NewClock builds a virtual clock at Epoch. A run skews it with FaultSkew.
func NewClock() *Clock {
	return &Clock{now: Epoch}
}

// Now returns the current virtual instant.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// At arms a virtual timer: the returned channel receives once the clock
// has been advanced to at. An instant not after Now fires immediately,
// matching time.NewTimer with a non-positive duration. The stop function
// disarms the timer and reports whether it was still pending.
func (c *Clock) At(at time.Time) (<-chan time.Time, func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &simTimer{at: at, seq: c.seq, ch: make(chan time.Time, 1)}
	c.seq++
	if !at.After(c.now) {
		t.fired = true
		t.ch <- c.now
		return t.ch, func() bool { return false }
	}
	c.timers = append(c.timers, t)
	stop := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, tt := range c.timers {
			if tt == t {
				c.timers = append(c.timers[:i], c.timers[i+1:]...)
				return true
			}
		}
		return false
	}
	return t.ch, stop
}

// Sleep advances virtual time by d. It is the drop-in for
// cluster.Config.Sleep: the pool's backoff sleeps become instantaneous
// clock advances, deterministic and free of wall-clock flake.
func (c *Clock) Sleep(d time.Duration) { c.Advance(d) }

// Advance moves virtual time forward by d, firing due timers in deadline
// order (ties broken by arming order).
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	c.mu.Unlock()
	c.AdvanceTo(target)
}

// AdvanceTo moves virtual time forward to target (no-op if target is in
// the past), firing every timer due on the way. The clock steps to each
// timer's deadline before delivering it, so a timer callback that reads
// Now sees exactly its own deadline.
func (c *Clock) AdvanceTo(target time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		idx := -1
		for i, t := range c.timers {
			if t.at.After(target) {
				continue
			}
			if idx < 0 || t.at.Before(c.timers[idx].at) ||
				(t.at.Equal(c.timers[idx].at) && t.seq < c.timers[idx].seq) {
				idx = i
			}
		}
		if idx < 0 {
			break
		}
		t := c.timers[idx]
		c.timers = append(c.timers[:idx], c.timers[idx+1:]...)
		if t.at.After(c.now) {
			c.now = t.at
		}
		t.fired = true
		t.ch <- c.now
	}
	if target.After(c.now) {
		c.now = target
	}
}

// Pending reports how many timers are armed and not yet fired.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// WaitTimers blocks (yielding the scheduler) until at least n timers are
// armed. Simulation drivers use it to synchronize with a deadline queue
// that arms its timer on another goroutine before advancing time past it.
func (c *Clock) WaitTimers(n int) {
	for {
		c.mu.Lock()
		got := len(c.timers)
		c.mu.Unlock()
		if got >= n {
			return
		}
		runtime.Gosched()
	}
}

// Elapsed returns how much virtual time has passed since Epoch (plus any
// initial skew) — the timestamp event traces print.
func (c *Clock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now.Sub(Epoch)
}
