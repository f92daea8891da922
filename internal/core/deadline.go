package core

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file implements the deadline / cancellation / backpressure layer of
// the invocation path. The contract (see DESIGN.md "Deadlines and
// backpressure"):
//
//   - A budget set at the edge (Ctx.CallCtx, DeliverDeadline, or the
//     distributed wire frame) bounds the WHOLE transitive call tree: every
//     outbound call a handler makes inherits the remaining budget via
//     Envelope.Deadline and node.deadline.
//   - Enforcement is the system's job, never the component's: expired
//     calls are refused before dispatch, and a handler that runs past its
//     budget is abandoned by a watchdog (the caller gets ErrDeadline; the
//     handler finishes on its own goroutine, still holding the
//     component's execution slot, so serialization is never violated).
//   - Backpressure is per component: the admission queue in invoke sheds
//     callers beyond System.admitLimit with ErrOverloaded instead of
//     queueing them forever behind a hung handler.

// effectiveDeadline merges the budget a handler inherited from its own
// invocation with the caller-supplied context: the ctx deadline may only
// tighten the inherited one. Caller holds s.mu (inherited is node.deadline).
func effectiveDeadline(inherited time.Time, ctx context.Context) time.Time {
	d := inherited
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	return d
}

// budgetErr reports whether the call must be refused before dispatch:
// ErrCanceled when ctx is done, ErrDeadline when the budget is already
// spent, nil otherwise. ctx may be nil (the internal spelling of "no
// cancellation source" — see System.deliver). The deadline is judged
// against the system clock, so a simulated clock controls expiry.
func (s *System) budgetErr(ctx context.Context, deadline time.Time) error {
	if ctx != nil && ctx.Done() != nil {
		select {
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return ErrDeadline
			}
			return ErrCanceled
		default:
		}
	}
	if !deadline.IsZero() && !s.now().Before(deadline) {
		return ErrDeadline
	}
	return nil
}

// noteBudgetErr accounts a budget failure in the system's cost counters
// and journals it against the component it hit and the span it happened
// under. Off the fast path: only refused, abandoned, canceled, or shed
// calls pay for the lock, and the journal emission happens after it is
// released so recorders never run under s.mu.
func (s *System) noteBudgetErr(err error, actor string, sp Span) {
	var kind string
	s.mu.Lock()
	switch {
	case errors.Is(err, ErrDeadline):
		s.stats.Timeouts++
		kind = "deadline"
	case errors.Is(err, ErrCanceled):
		s.stats.Cancels++
		kind = "cancel"
	case errors.Is(err, ErrOverloaded):
		s.stats.Overloads++
		kind = "overload"
	}
	rec := s.events
	s.mu.Unlock()
	if rec != nil && kind != "" {
		rec.RecordEvent(kind, actor, err.Error(), sp.Trace, sp.ID)
	}
}

// invokeGuarded runs the handler under the watchdog: the handler executes
// on its own goroutine (still serialized by the component's execution
// slot), while this goroutine waits for whichever comes first — the reply,
// the deadline, or the caller's cancellation. On expiry the caller is
// released with ErrDeadline and the handler is ABANDONED: it runs to
// completion, keeps the slot until then (admission accounting included),
// and its node.deadline stays expired so residual outbound calls it makes
// fail fast instead of fanning out further. A call abandoned while still
// queued for the slot never runs at all.
func (s *System) invokeGuarded(ctx context.Context, n *node, env Envelope, compromised bool, obs Observer) (Message, error) {
	type result struct {
		reply Message
		err   error
	}
	done := make(chan result, 1)
	go func() {
		defer n.admitted.Add(-1)
		var r result
		if !n.handleMu.TryLock() {
			// Queued behind another handler: the budget may have run out
			// (or the caller left) meanwhile. The caller then gets that
			// verdict from the watchdog, and running the handler would
			// apply work the caller was told failed. A call that finds
			// the slot free skips the clock read: dispatch has just
			// checked its budget. done is buffered, so the send below
			// completes even with nobody left to receive it.
			n.handleMu.Lock()
			r.err = s.budgetErr(ctx, env.Deadline)
		}
		defer n.handleMu.Unlock()
		if r.err == nil {
			r.reply, r.err = s.run(n, &env, compromised, obs)
			if !env.Deadline.IsZero() {
				// The handler finished: clear its budget so later work on
				// this node (harness-driven calls between requests) does
				// not run against a stale deadline. Still under the slot,
				// so no later invocation can have installed its own budget
				// yet.
				n.deadline = time.Time{}
			}
		}
		done <- r
	}()
	var expire <-chan time.Time
	if !env.Deadline.IsZero() {
		c, stop := s.clock.After(env.Deadline.Sub(s.now()))
		defer stop()
		expire = c
	}
	var canceled <-chan struct{}
	if ctx != nil {
		canceled = ctx.Done()
	}
	select {
	case r := <-done:
		return r.reply, r.err
	case <-expire:
		err := fmt.Errorf("%s: handler abandoned past deadline: %w", n.comp.CompName(), ErrDeadline)
		s.noteBudgetErr(err, n.comp.CompName(), env.Span)
		return Message{}, err
	case <-canceled:
		base := ErrCanceled
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			base = ErrDeadline
		}
		err := fmt.Errorf("%s: caller gone while call in flight: %w", n.comp.CompName(), base)
		s.noteBudgetErr(err, n.comp.CompName(), env.Span)
		return Message{}, err
	}
}
