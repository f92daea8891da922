// Deadline and watchdog behavior on the simulated clock: these are the
// former wall-clock sleep tests converted onto simtest.Clock. They live in
// package core_test because simtest imports core; the external package
// breaks the cycle. No test here sleeps — virtual time moves only when the
// test advances it, so the suite is immune to scheduler jitter and runs in
// microseconds.
package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/simtest"
)

// simGate blocks in Handle until released and records the peak number of
// concurrent Handle calls — the serialization witness.
type simGate struct {
	name      string
	gate      chan struct{}
	entered   chan struct{}
	inside    atomic.Int32
	maxInside atomic.Int32
	handled   atomic.Int32
}

func (g *simGate) CompName() string     { return g.name }
func (g *simGate) CompVersion() string  { return "1.0" }
func (g *simGate) Init(*core.Ctx) error { return nil }
func (g *simGate) Handle(core.Envelope) (core.Message, error) {
	in := g.inside.Add(1)
	defer g.inside.Add(-1)
	for {
		max := g.maxInside.Load()
		if in <= max || g.maxInside.CompareAndSwap(max, in) {
			break
		}
	}
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	<-g.gate
	g.handled.Add(1)
	return core.Message{Op: "ok"}, nil
}

// simLag gates in Handle, and once released makes a downstream call and
// reports the error it got — the residual-call witness, with the original
// time.Sleep replaced by an explicit gate the test releases after
// advancing virtual time past the budget.
type simLag struct {
	name       string
	downstream string
	gate       chan struct{}
	entered    chan struct{}
	ctx        *core.Ctx
	gotErr     chan error
}

func (l *simLag) CompName() string         { return l.name }
func (l *simLag) CompVersion() string      { return "1.0" }
func (l *simLag) Init(ctx *core.Ctx) error { l.ctx = ctx; return nil }
func (l *simLag) Handle(core.Envelope) (core.Message, error) {
	if l.entered != nil {
		l.entered <- struct{}{}
	}
	if l.gate != nil {
		<-l.gate
	}
	_, err := l.ctx.Call(l.downstream, core.Message{Op: "late"})
	l.gotErr <- err
	return core.Message{Op: "done"}, nil
}

func newSimSystem(t *testing.T) (*core.System, *simtest.Clock) {
	t.Helper()
	sys := core.NewSystem(core.NewMonolith(0))
	clk := simtest.NewClock(0)
	sys.SetClock(clk)
	return sys, clk
}

// TestWatchdogAbandonsHungHandlerSim: the watchdog abandons a wedged
// handler exactly when virtual time crosses the budget, the abandoned
// handler keeps its execution slot (later delivers queue behind it, never
// beside it), and the timeout is accounted.
func TestWatchdogAbandonsHungHandlerSim(t *testing.T) {
	sys, clk := newSimSystem(t)
	g := &simGate{name: "g", gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	if err := sys.Launch(g, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	deadline := clk.Now().Add(20 * time.Millisecond)
	go func() {
		_, err := sys.DeliverDeadline("g", core.Message{Op: "hang"}, core.Span{}, deadline)
		first <- err
	}()
	<-g.entered       // handler is wedged inside its slot
	clk.WaitTimers(1) // watchdog armed its expiry
	clk.Advance(19 * time.Millisecond)
	select {
	case err := <-first:
		t.Fatalf("deliver returned %v before the budget expired", err)
	default:
	}
	clk.Advance(2 * time.Millisecond) // crosses the 20ms budget
	if err := <-first; !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("hung deliver: got %v, want ErrDeadline", err)
	}
	// The abandoned handler still occupies the slot: a fresh unbounded
	// Deliver must queue behind it, never run concurrently with it.
	second := make(chan error, 1)
	go func() {
		_, err := sys.Deliver("g", core.Message{Op: "next"})
		second <- err
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	select {
	case err := <-second:
		t.Fatalf("second deliver finished while abandoned handler held the slot: %v", err)
	default:
	}
	close(g.gate) // release the abandoned handler (and every later one)
	<-g.entered   // second handler runs only now
	if err := <-second; err != nil {
		t.Fatalf("deliver after release: %v", err)
	}
	if max := g.maxInside.Load(); max != 1 {
		t.Errorf("max concurrent Handle = %d, want 1", max)
	}
	if st := sys.Stats(); st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
}

// TestWatchdogSkipsCallQueuedPastDeadlineSim: a guarded call queued
// behind a wedged handler is released with ErrDeadline when the budget it
// shares with the wedged call expires, and must never run once the slot
// frees — its caller was already told it failed.
func TestWatchdogSkipsCallQueuedPastDeadlineSim(t *testing.T) {
	sys, clk := newSimSystem(t)
	g := &simGate{name: "g", gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	if err := sys.Launch(g, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	deadline := clk.Now().Add(20 * time.Millisecond)
	errs := make(chan error, 2)
	call := func(op string) {
		_, err := sys.DeliverDeadline("g", core.Message{Op: op}, core.Span{}, deadline)
		errs <- err
	}
	go call("wedged")
	<-g.entered // the first handler holds the slot
	go call("queued")
	clk.WaitTimers(2) // both watchdogs armed
	clk.Advance(21 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, core.ErrDeadline) {
			t.Fatalf("call %d: got %v, want ErrDeadline", i, err)
		}
	}
	// Free the slot, then wait until both abandoned calls have left the
	// component: with the admission limit at one, a probe is admitted only
	// once nothing else holds or waits for the slot.
	sys.SetAdmissionLimit(1)
	close(g.gate)
	for {
		_, err := sys.DeliverDeadline("g", core.Message{Op: "probe"}, core.Span{}, clk.Now().Add(time.Hour))
		if err == nil {
			break
		}
		if !errors.Is(err, core.ErrOverloaded) {
			t.Fatalf("probe: %v", err)
		}
		runtime.Gosched()
	}
	if n := g.handled.Load(); n != 2 {
		t.Errorf("%d handlers ran, want 2 (the wedged call and the probe): the queued call ran after its caller timed out", n)
	}
}

// TestAbandonedHandlerResidualCallsFailFastSim: outbound calls an
// abandoned handler makes after its budget expired are refused with
// ErrDeadline — the budget bounds the whole transitive call tree.
func TestAbandonedHandlerResidualCallsFailFastSim(t *testing.T) {
	sys, clk := newSimSystem(t)
	l := &simLag{
		name: "lag", downstream: "down",
		gate: make(chan struct{}), entered: make(chan struct{}, 1),
		gotErr: make(chan error, 1),
	}
	d := &simGate{name: "down", gate: make(chan struct{})}
	close(d.gate)
	for _, c := range []core.Component{l, d} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Grant(core.ChannelSpec{Name: "down", From: "lag", To: "down"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	deadline := clk.Now().Add(10 * time.Millisecond)
	go func() {
		_, err := sys.DeliverDeadline("lag", core.Message{Op: "x"}, core.Span{}, deadline)
		res <- err
	}()
	<-l.entered
	clk.WaitTimers(1)
	clk.Advance(15 * time.Millisecond) // expire the budget while lag is gated
	if err := <-res; !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("deliver: got %v, want ErrDeadline", err)
	}
	close(l.gate) // the abandoned handler now tries its downstream call
	if residual := <-l.gotErr; !errors.Is(residual, core.ErrDeadline) {
		t.Errorf("residual downstream call: got %v, want ErrDeadline", residual)
	}
	if n := d.handled.Load(); n != 0 {
		t.Errorf("downstream handler ran %d times on an expired budget", n)
	}
}

// TestDeadlineClearedAfterCompletionSim: a deadline-bearing call that
// finishes in budget must not leave a stale deadline poisoning later
// unbounded work, even after virtual time passes the old deadline.
func TestDeadlineClearedAfterCompletionSim(t *testing.T) {
	sys, clk := newSimSystem(t)
	l := &simLag{name: "lag", downstream: "down", gotErr: make(chan error, 1)}
	d := &simGate{name: "down", gate: make(chan struct{})}
	close(d.gate)
	for _, c := range []core.Component{l, d} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Grant(core.ChannelSpec{Name: "down", From: "lag", To: "down"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeliverDeadline("lag", core.Message{Op: "x"}, core.Span{}, clk.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	<-l.gotErr
	// Advance far past the old budget, then drive the component with no
	// deadline: its outbound call must not inherit the dead one.
	clk.Advance(2 * time.Second)
	ctx, err := sys.CtxOf("lag")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Call("down", core.Message{Op: "later"}); err != nil {
		t.Errorf("unbounded call after completed deadline call: %v", err)
	}
}

// TestCallCtxCancelSim: canceling the caller's context releases it with
// ErrCanceled while the handler is still executing; a pre-canceled context
// is refused before dispatch. (Converted off a real 10ms sleep: the
// handler signals entry instead.)
func TestCallCtxCancelSim(t *testing.T) {
	sys, _ := newSimSystem(t)
	g := &simGate{name: "g", gate: make(chan struct{}), entered: make(chan struct{}, 2)}
	if err := sys.Launch(g, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sys.DeliverCtx(ctx, "g", core.Message{Op: "hang"})
		done <- err
	}()
	<-g.entered // handler is definitely executing
	cancel()
	if err := <-done; !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled deliver: got %v, want ErrCanceled", err)
	}
	close(g.gate)
	if st := sys.Stats(); st.Cancels != 1 {
		t.Errorf("Cancels = %d, want 1", st.Cancels)
	}
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := sys.DeliverCtx(pre, "g", core.Message{Op: "x"}); !errors.Is(err, core.ErrCanceled) {
		t.Errorf("pre-canceled deliver: got %v, want ErrCanceled", err)
	}
}

// TestWatchdogExpiryAtExactBoundary pins the boundary semantics: a budget
// is exhausted at its deadline instant, not one tick later.
func TestWatchdogExpiryAtExactBoundary(t *testing.T) {
	sys, clk := newSimSystem(t)
	g := &simGate{name: "g", gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	if err := sys.Launch(g, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	deadline := clk.Now().Add(5 * time.Millisecond)
	res := make(chan error, 1)
	go func() {
		_, err := sys.DeliverDeadline("g", core.Message{Op: "hang"}, core.Span{}, deadline)
		res <- err
	}()
	<-g.entered
	clk.WaitTimers(1)
	clk.AdvanceTo(deadline) // exactly the deadline, not past it
	if err := <-res; !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("deliver at exact deadline: got %v, want ErrDeadline", err)
	}
	close(g.gate)
}
