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
	"fmt"
	"runtime"
	"strings"
	"sync"
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
	clk := simtest.NewClock()
	sys.SetClock(clk)
	return sys, clk
}

// waitQueued blocks until the system's deadline queue holds n calls, then
// until the clock has a timer armed: one timer covers every queued call.
func waitQueued(sys *core.System, clk *simtest.Clock, n int) {
	for {
		if calls, _ := sys.DeadlineQueue(); calls >= n {
			break
		}
		runtime.Gosched()
	}
	clk.WaitTimers(1)
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
	waitQueued(sys, clk, 2) // both calls queued, one timer armed
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

// simEcho replies at once: the calls that finish in time.
type simEcho struct{ name string }

func (e *simEcho) CompName() string     { return e.name }
func (e *simEcho) CompVersion() string  { return "1.0" }
func (e *simEcho) Init(*core.Ctx) error { return nil }
func (e *simEcho) Handle(env core.Envelope) (core.Message, error) {
	return core.Message{Op: "echo", Data: env.Msg.Data}, nil
}

// serveGoroutines counts the goroutines serving a deadline queue.
func serveGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*deadlineQueue).serve(")
}

// TestWatchdogQueueUnderConcurrency drives one System's deadline queue from
// many goroutines at once on the virtual clock: calls that expire behind
// wedged handlers, calls whose context is canceled, and calls that finish
// in time with deadlines earlier than the armed one, so push re-arms the
// timer. Every caller gets exactly one verdict of the right kind, no call
// abandoned before it started ever runs, the queue drains, and its
// goroutine exits once the clock passes the instant last armed.
func TestWatchdogQueueUnderConcurrency(t *testing.T) {
	const (
		slowComps    = 3
		callsPerSlow = 3
		cancels      = 3
		echoLoops    = 4
		echoCalls    = 50
	)
	serveBefore := serveGoroutines()
	sys, clk := newSimSystem(t)
	slow := make([]*simGate, slowComps)
	for i := range slow {
		slow[i] = &simGate{name: fmt.Sprintf("slow-%d", i), gate: make(chan struct{}), entered: make(chan struct{}, callsPerSlow)}
		if err := sys.Launch(slow[i], false, 1); err != nil {
			t.Fatal(err)
		}
	}
	held := &simGate{name: "held", gate: make(chan struct{}), entered: make(chan struct{}, cancels)}
	if err := sys.Launch(held, false, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < echoLoops; i++ {
		if err := sys.Launch(&simEcho{name: fmt.Sprintf("echo-%d", i)}, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}

	// A call that returns at once leaves the timer armed an hour out on an
	// empty heap.
	if _, err := sys.DeliverDeadline("echo-0", core.Message{Op: "x"}, core.Span{}, clk.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if calls, armed := sys.DeadlineQueue(); calls != 0 || !armed.Equal(simtest.Epoch.Add(time.Hour)) {
		t.Fatalf("after one call: %d queued, armed at %v; want 0, epoch+1h", calls, armed)
	}

	var wg sync.WaitGroup
	expired := make(chan error, slowComps*callsPerSlow)
	for i := 0; i < slowComps*callsPerSlow; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deadline := clk.Now().Add(time.Duration(10+i) * time.Millisecond)
			_, err := sys.DeliverDeadline(slow[i%slowComps].name, core.Message{Op: "x"}, core.Span{}, deadline)
			expired <- err
		}(i)
	}
	canceled := make(chan error, cancels)
	cancelFns := make([]context.CancelFunc, cancels)
	for i := range cancelFns {
		// A context deadline on the virtual clock: the call is both
		// budgeted (queued) and cancelable.
		ctx, cancel := context.WithDeadline(context.Background(), clk.Now().Add(time.Duration(40+i)*time.Millisecond))
		cancelFns[i] = cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sys.DeliverCtx(ctx, "held", core.Message{Op: "x"})
			canceled <- err
		}()
	}
	var echoWG sync.WaitGroup
	budgets := []time.Duration{time.Millisecond, 30 * time.Millisecond, time.Second, time.Hour}
	for l := 0; l < echoLoops; l++ {
		echoWG.Add(1)
		go func(l int) {
			defer echoWG.Done()
			for i := 0; i < echoCalls; i++ {
				deadline := clk.Now().Add(budgets[(i+l)%len(budgets)])
				if _, err := sys.DeliverDeadline(fmt.Sprintf("echo-%d", (i+l)%echoLoops), core.Message{Op: "x"}, core.Span{}, deadline); err != nil {
					t.Errorf("echo call %d/%d: %v", l, i, err)
				}
			}
		}(l)
	}
	echoWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, g := range slow {
		<-g.entered
	}
	<-held.entered
	// Every wedged or waiting call is queued, and the timer was re-armed
	// no later than the earliest of them.
	waitQueued(sys, clk, slowComps*callsPerSlow+cancels)
	calls, armed := sys.DeadlineQueue()
	if calls != slowComps*callsPerSlow+cancels {
		t.Fatalf("%d calls queued, want %d", calls, slowComps*callsPerSlow+cancels)
	}
	if earliest := simtest.Epoch.Add(10 * time.Millisecond); armed.After(earliest) {
		t.Fatalf("timer armed at %v, after the earliest queued deadline %v: push did not re-arm", armed, earliest)
	}

	for _, cancel := range cancelFns {
		cancel()
	}
	for i := 0; i < cancels; i++ {
		if err := <-canceled; !errors.Is(err, core.ErrCanceled) {
			t.Errorf("canceled call: got %v, want ErrCanceled", err)
		}
	}
	clk.Advance(100 * time.Millisecond)
	for i := 0; i < slowComps*callsPerSlow; i++ {
		if err := <-expired; !errors.Is(err, core.ErrDeadline) {
			t.Errorf("expired call: got %v, want ErrDeadline", err)
		}
	}
	wg.Wait()
	if st := sys.Stats(); st.Timeouts != slowComps*callsPerSlow || st.Cancels != cancels {
		t.Errorf("Timeouts = %d, Cancels = %d; want one verdict per call: %d, %d",
			st.Timeouts, st.Cancels, slowComps*callsPerSlow, cancels)
	}

	// Release the wedged handlers. Only the call that held each slot ran:
	// the others were abandoned before they started. A probe is admitted
	// at the limit of one only once nothing else holds or waits for the
	// slot.
	sys.SetAdmissionLimit(1)
	for _, g := range append(slow, held) {
		close(g.gate)
		for {
			_, err := sys.DeliverDeadline(g.name, core.Message{Op: "probe"}, core.Span{}, clk.Now().Add(time.Second))
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrOverloaded) {
				t.Fatalf("probe %s: %v", g.name, err)
			}
			runtime.Gosched()
		}
		if n := g.handled.Load(); n != 2 {
			t.Errorf("%s: %d handlers ran, want 2 (the one that held the slot and the probe)", g.name, n)
		}
		if max := g.maxInside.Load(); max != 1 {
			t.Errorf("%s: max concurrent Handle = %d, want 1", g.name, max)
		}
	}

	calls, armed = sys.DeadlineQueue()
	if calls != 0 || armed.IsZero() {
		t.Fatalf("after every verdict: %d queued, armed at %v; want 0 and a timer still armed", calls, armed)
	}
	clk.AdvanceTo(armed)
	for i := 0; ; i++ {
		_, armed = sys.DeadlineQueue()
		if armed.IsZero() && serveGoroutines() <= serveBefore {
			break
		}
		if i == 1000 {
			t.Fatalf("the queue's goroutine outlived its armed instant (armed %v, %d serving, %d before)", armed, serveGoroutines(), serveBefore)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainedSystemIsCollectable: once a System's budgeted calls have all
// returned, the System becomes unreachable even while its deadline queue's
// timer, and so its goroutine, is still waiting for the armed instant.
func TestDrainedSystemIsCollectable(t *testing.T) {
	clk := simtest.NewClock()
	collected := make(chan struct{})
	func() {
		sys := core.NewSystem(core.NewMonolith(0))
		sys.SetClock(clk)
		if err := sys.Launch(&simEcho{name: "echo"}, false, 1); err != nil {
			t.Fatal(err)
		}
		if err := sys.InitAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.DeliverDeadline("echo", core.Message{Op: "x"}, core.Span{}, clk.Now().Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(sys, func(*core.System) { close(collected) })
	}()
	if n := clk.Pending(); n != 1 {
		t.Fatalf("%d timers armed, want the queue's one", n)
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a System with no calls in flight stayed reachable while its deadline queue's timer was armed")
}
