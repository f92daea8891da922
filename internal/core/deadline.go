package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
//     budget is abandoned by the System's deadline queue, one timer for
//     every budgeted call in flight (the caller gets ErrDeadline; the
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

// A guarded call's state. It starts callQueued; the handler goroutine
// claims it (callRunning) once it holds the component's slot, and a
// handler that returns in time finishes it (callFinished). The deadline
// queue or the caller's canceled context abandons it (callAbandoned) from
// either of the first two states. Whoever moves the call to callFinished
// or callAbandoned owes its caller the one verdict on done.
const (
	callQueued int32 = iota
	callRunning
	callFinished
	callAbandoned
)

// callResult is the verdict a guarded call's caller receives on done: the
// handler's reply, or a zero value when the call was abandoned.
type callResult struct {
	reply Message
	err   error
}

// guardedCall is one guarded call in flight: its inputs, the channel its
// verdict arrives on, and its state. Pooled (callPool): a call whose
// handler delivered the verdict goes back to the pool, because the
// handler's send was its last touch; an abandoned call is left to the
// collector, since its handler may still be running.
type guardedCall struct {
	n           *node
	env         Envelope
	ctx         context.Context
	compromised bool
	obs         Observer
	state       atomic.Int32
	done        chan callResult // buffered 1, so the one verdict never blocks its sender

	// idx is the call's position in the deadline queue's heap, -1 when
	// it is not there. Guarded by deadlineQueue.mu.
	idx int
}

var callPool = sync.Pool{New: func() any {
	return &guardedCall{done: make(chan callResult, 1), idx: -1}
}}

// abandon moves a call with no verdict yet to callAbandoned and reports
// whether it did; the caller of abandon then owes the verdict.
func (c *guardedCall) abandon() bool {
	return c.state.CompareAndSwap(callQueued, callAbandoned) ||
		c.state.CompareAndSwap(callRunning, callAbandoned)
}

// invokeGuarded runs the handler on its own goroutine (still serialized by
// the component's execution slot) while this goroutine waits for the one
// verdict: the reply, the deadline queue's expiry, or the caller's
// cancellation. On expiry the caller is released with ErrDeadline and the
// handler is ABANDONED: it runs to completion, keeps the slot until then
// (admission accounting included), and its node.deadline stays expired so
// residual outbound calls it makes fail fast instead of fanning out
// further. A call abandoned while still queued for the slot never runs at
// all: the handler goroutine must claim it first (runGuarded).
func (s *System) invokeGuarded(ctx context.Context, n *node, env *Envelope, compromised bool, obs Observer) (Message, error) {
	c := callPool.Get().(*guardedCall)
	c.n, c.env, c.ctx, c.compromised, c.obs = n, *env, ctx, compromised, obs
	budgeted := !env.Deadline.IsZero()
	if budgeted {
		s.deadlines.push(c)
	}
	go s.runGuarded(c)
	var canceled <-chan struct{}
	if ctx != nil {
		canceled = ctx.Done()
	}
	var r callResult
	gone := false // the caller's cancellation decided the verdict
	if canceled == nil {
		r = <-c.done
	} else {
		select {
		case r = <-c.done:
		case <-canceled:
			// If the handler or the queue got there first, it owes the
			// verdict.
			if gone = c.abandon(); !gone {
				r = <-c.done
			}
		}
	}
	if budgeted {
		s.deadlines.remove(c)
	}
	switch {
	case gone:
		base := ErrCanceled
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			base = ErrDeadline
		}
		err := fmt.Errorf("%s: caller gone while call in flight: %w", n.comp.CompName(), base)
		s.noteBudgetErr(err, n.comp.CompName(), env.Span)
		return Message{}, err
	case c.state.Load() == callAbandoned:
		err := fmt.Errorf("%s: handler abandoned past deadline: %w", n.comp.CompName(), ErrDeadline)
		s.noteBudgetErr(err, n.comp.CompName(), env.Span)
		return Message{}, err
	}
	c.n, c.env, c.ctx, c.obs = nil, Envelope{}, nil, nil
	c.state.Store(callQueued)
	callPool.Put(c)
	return r.reply, r.err
}

// runGuarded is a guarded call's handler goroutine. It holds the
// component's slot and its admission count until the handler returns,
// even when the call was abandoned meanwhile.
func (s *System) runGuarded(c *guardedCall) {
	n := c.n
	defer n.admitted.Add(-1)
	queued := !n.handleMu.TryLock()
	if queued {
		n.handleMu.Lock()
	}
	defer n.handleMu.Unlock()
	// A call that waited for the slot may have spent its budget (or lost
	// its caller) meanwhile: it does not run, and the queue or the
	// caller's context delivers its verdict. A call that found the slot
	// free skips that clock read, since dispatch has just checked its
	// budget. Either way the claim comes before the handler runs, so a
	// call abandoned before it started never runs.
	if queued && s.budgetErr(c.ctx, c.env.Deadline) != nil {
		return
	}
	if !c.state.CompareAndSwap(callQueued, callRunning) {
		return
	}
	reply, err := s.run(n, &c.env, c.compromised, c.obs)
	if !c.env.Deadline.IsZero() {
		// The handler finished: clear its budget so later work on this
		// node (harness-driven calls between requests) does not run
		// against a stale deadline. Still under the slot, so no later
		// invocation can have installed its own budget yet.
		n.deadline = time.Time{}
	}
	if c.state.CompareAndSwap(callRunning, callFinished) {
		c.done <- callResult{reply, err} // the last touch of c: its caller may reuse it
	}
}

// deadlineQueue is a System's watchdog: one clock timer, armed for the
// earliest deadline among the budgeted calls in flight, abandons every call
// whose deadline has passed. It is a separate object holding only the clock
// and the calls, never the System, so its goroutine cannot keep a System
// whose calls have all returned reachable.
type deadlineQueue struct {
	mu    sync.Mutex
	clock Clock
	calls callHeap

	// at is the instant the timer is armed for, fire and stop are that
	// timer's; all three are zero when no timer and no serving goroutine
	// exist. The timer stays armed after the heap empties: a steady
	// stream of budgets of one length re-arms it about once per budget,
	// not once per call.
	at   time.Time
	fire <-chan time.Time
	stop func() bool

	// rearm wakes the serving goroutine after push replaced its timer
	// with an earlier one. One pending wake covers any number of
	// replacements, since the goroutine re-reads fire under mu.
	rearm chan struct{}
}

func newDeadlineQueue(clock Clock) *deadlineQueue {
	return &deadlineQueue{clock: clock, rearm: make(chan struct{}, 1)}
}

// push queues a budgeted call, and arms the timer for its deadline when
// none is armed or the armed one is later.
func (q *deadlineQueue) push(c *guardedCall) {
	d := c.env.Deadline
	q.mu.Lock()
	heap.Push(&q.calls, c)
	switch {
	case q.fire == nil:
		q.arm(d)
		go q.serve()
	case d.Before(q.at):
		q.stop()
		q.arm(d)
		select {
		case q.rearm <- struct{}{}:
		default:
		}
	}
	q.mu.Unlock()
}

// arm sets the timer for the absolute instant at. Caller holds q.mu.
func (q *deadlineQueue) arm(at time.Time) {
	q.at = at
	q.fire, q.stop = q.clock.At(at)
}

// remove takes a call that got its verdict off the heap, if the queue has
// not already; the timer stays armed.
func (q *deadlineQueue) remove(c *guardedCall) {
	q.mu.Lock()
	if c.idx >= 0 {
		heap.Remove(&q.calls, c.idx)
	}
	q.mu.Unlock()
}

// serve is the queue's goroutine. Each time the armed timer fires, it
// abandons every call whose deadline has passed, delivering ErrDeadline's
// verdict on the call's own channel, then arms the timer for the earliest
// call left. It exits when the timer fires on an empty heap, so an idle
// queue keeps a goroutine only until the instant last armed.
func (q *deadlineQueue) serve() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		fire := q.fire
		q.mu.Unlock()
		fired := false
		select {
		case <-fire:
			fired = true
		case <-q.rearm:
		}
		q.mu.Lock()
		if !fired || fire != q.fire {
			continue // push replaced the timer: wait on the new one
		}
		now := q.clock.Now()
		for len(q.calls) > 0 && !now.Before(q.calls[0].env.Deadline) {
			c := heap.Pop(&q.calls).(*guardedCall)
			if c.abandon() {
				c.done <- callResult{}
			}
		}
		if len(q.calls) == 0 {
			q.at, q.fire, q.stop = time.Time{}, nil, nil
			return
		}
		q.arm(q.calls[0].env.Deadline)
	}
}

// callHeap is a min-heap of calls on their deadlines (container/heap),
// keeping each call's idx current.
type callHeap []*guardedCall

func (h callHeap) Len() int           { return len(h) }
func (h callHeap) Less(i, j int) bool { return h[i].env.Deadline.Before(h[j].env.Deadline) }
func (h callHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *callHeap) Push(x any) {
	c := x.(*guardedCall)
	c.idx = len(*h)
	*h = append(*h, c)
}

func (h *callHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	old[len(old)-1] = nil // a popped call must not stay reachable from the backing array
	*h = old[:len(old)-1]
	c.idx = -1
	return c
}
