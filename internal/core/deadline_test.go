package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateComp blocks in Handle until its gate is released (closed or sent to),
// and tracks how many goroutines are inside Handle at once — the witness
// that the watchdog and the admission queue never break per-component
// serialization.
type gateComp struct {
	name      string
	gate      chan struct{}
	inside    atomic.Int32
	maxInside atomic.Int32
	handled   atomic.Int32
}

func (g *gateComp) CompName() string    { return g.name }
func (g *gateComp) CompVersion() string { return "1.0" }
func (g *gateComp) Init(*Ctx) error     { return nil }
func (g *gateComp) Handle(env Envelope) (Message, error) {
	in := g.inside.Add(1)
	defer g.inside.Add(-1)
	for {
		max := g.maxInside.Load()
		if in <= max || g.maxInside.CompareAndSwap(max, in) {
			break
		}
	}
	<-g.gate
	g.handled.Add(1)
	return Message{Op: "ok"}, nil
}

// TestCallCtxDeadlineTightensInherited: a ctx deadline on CallCtx bounds
// the callee even when the calling handler has no budget of its own.
func TestCallCtxDeadlineTightensInherited(t *testing.T) {
	sys := newTestSystem(t)
	a := &echoComp{name: "a"}
	g := &gateComp{name: "g", gate: make(chan struct{})}
	for _, c := range []Component{a, g} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Grant(ChannelSpec{Name: "to-g", From: "a", To: "g"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := a.ctx.CallCtx(ctx, "to-g", Message{Op: "hang"})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("CallCtx past deadline: got %v, want ErrDeadline", err)
	}
	close(g.gate)
}

// TestFanInBoundedAdmission is the -race fan-in test: N goroutines Call
// into one gated component through a small admission queue. Excess callers
// must be shed with ErrOverloaded (and accounted), admitted ones must be
// strictly serialized, and the test must not deadlock.
func TestFanInBoundedAdmission(t *testing.T) {
	const (
		callers = 32
		limit   = 4
	)
	sys := newTestSystem(t)
	sys.SetAdmissionLimit(limit)
	a := &echoComp{name: "a"}
	g := &gateComp{name: "g", gate: make(chan struct{})}
	for _, c := range []Component{a, g} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Grant(ChannelSpec{Name: "to-g", From: "a", To: "g"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}

	var ok, shed, other atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := a.ctx.Call("to-g", Message{Op: "fan"})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	// Wait until every caller beyond the admission bound has been shed,
	// then open the gate so the admitted ones drain.
	deadline := time.Now().Add(10 * time.Second)
	for shed.Load() < callers-limit {
		if time.Now().After(deadline) {
			t.Fatalf("sheds stalled at %d (want >= %d)", shed.Load(), callers-limit)
		}
		time.Sleep(time.Millisecond)
	}
	close(g.gate)
	wg.Wait()

	if n := other.Load(); n != 0 {
		t.Fatalf("%d callers got unexpected errors", n)
	}
	if ok.Load()+shed.Load() != callers {
		t.Fatalf("ok %d + shed %d != %d", ok.Load(), shed.Load(), callers)
	}
	if ok.Load() < 1 || ok.Load() > limit {
		t.Errorf("admitted %d callers, want 1..%d", ok.Load(), limit)
	}
	if max := g.maxInside.Load(); max != 1 {
		t.Errorf("max concurrent Handle = %d, want 1 (serialization broken)", max)
	}
	if st := sys.Stats(); st.Overloads != int64(shed.Load()) {
		t.Errorf("Stats.Overloads = %d, shed = %d", st.Overloads, shed.Load())
	}
	// The queue drains: with the gate open, fresh calls are admitted again.
	if _, err := a.ctx.Call("to-g", Message{Op: "after"}); err != nil {
		t.Errorf("call after drain: %v", err)
	}
}

// TestAdmissionLimitZeroUnbounded: SetAdmissionLimit(0) restores the
// queue-forever behavior (no shedding).
func TestAdmissionLimitZeroUnbounded(t *testing.T) {
	sys := newTestSystem(t)
	sys.SetAdmissionLimit(0)
	g := &gateComp{name: "g", gate: make(chan struct{})}
	if err := sys.Launch(g, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	var fails atomic.Int32
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sys.Deliver("g", Message{Op: "x"}); err != nil {
				fails.Add(1)
			}
		}()
	}
	for g.inside.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(g.gate)
	wg.Wait()
	if n := fails.Load(); n != 0 {
		t.Errorf("%d callers shed with the bound disabled", n)
	}
	if st := sys.Stats(); st.Overloads != 0 {
		t.Errorf("Overloads = %d with the bound disabled", st.Overloads)
	}
}

// TestDeliverBatchAdmitsOnce: a batch frame is booked per message but
// admitted once. Into a busy slot at the admission limit the whole frame
// is shed, every message with ErrOverloaded; under the limit it waits as
// one queued caller, then runs every message under one hold of the slot.
func TestDeliverBatchAdmitsOnce(t *testing.T) {
	sys := newTestSystem(t)
	g := &gateComp{name: "g", gate: make(chan struct{})}
	if err := sys.Launch(g, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	msgs := []Message{{Op: "a"}, {Op: "b"}, {Op: "c"}}
	var errs []error
	collect := func(_ Message, err error) { errs = append(errs, err) }
	wantEach := func(what string, target error) {
		t.Helper()
		if len(errs) != len(msgs) {
			t.Fatalf("%s: %d replies for %d messages", what, len(errs), len(msgs))
		}
		for i, err := range errs {
			if !errors.Is(err, target) {
				t.Errorf("%s: message %d got %v, want %v", what, i, err, target)
			}
		}
		errs = nil
	}

	sys.DeliverBatch("nobody", Envelope{}, msgs, collect)
	wantEach("unknown target", ErrNoDomain)

	// A lone unguarded delivery holds the slot without an admission count.
	held := make(chan error, 1)
	go func() {
		_, err := sys.Deliver("g", Message{Op: "hold"})
		held <- err
	}()
	for g.inside.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	sys.SetAdmissionLimit(1)
	sys.DeliverBatch("g", Envelope{}, msgs, collect)
	wantEach("busy slot at limit 1", ErrOverloaded)

	sys.SetAdmissionLimit(2)
	framed := make(chan struct{})
	go func() {
		sys.DeliverBatch("g", Envelope{}, msgs, collect)
		close(framed)
	}()
	for sys.nodes["g"].admitted.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The queued frame is one caller: a second one reaches the limit.
	if _, err := sys.Deliver("g", Message{Op: "late"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("caller behind a queued frame at limit 2: %v, want ErrOverloaded", err)
	}
	close(g.gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	<-framed
	wantEach("queued frame", nil)
	if n := g.handled.Load(); n != 1+int32(len(msgs)) {
		t.Errorf("handled %d, want the holder and the queued frame's %d", n, len(msgs))
	}
	if max := g.maxInside.Load(); max != 1 {
		t.Errorf("max concurrent Handle = %d, want 1", max)
	}
	st := sys.Stats()
	if want := int64(2*len(msgs) + 2); st.Invocations != want {
		t.Errorf("Invocations = %d, want %d: every message of a resolved frame is booked", st.Invocations, want)
	}
	if want := int64(len(msgs) + 1); st.Overloads != want {
		t.Errorf("Overloads = %d, want %d", st.Overloads, want)
	}
}

// mirrorComp echoes the request data back without allocating.
type mirrorComp struct{}

func (mirrorComp) CompName() string    { return "mirror" }
func (mirrorComp) CompVersion() string { return "1.0" }
func (mirrorComp) Init(*Ctx) error     { return nil }
func (mirrorComp) Handle(env Envelope) (Message, error) {
	return Message{Op: "echo", Data: env.Msg.Data}, nil
}

// TestGuardedDeliverAllocs gates the cost of one budgeted hop: the call's
// state comes from a pool and the deadline queue's timer is already armed,
// so what is left is the handler goroutine's start, one object per call.
func TestGuardedDeliverAllocs(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Launch(mirrorComp{}, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	env := Envelope{
		Msg:      Message{Op: "put", Data: []byte("0123456789abcdef")},
		Deadline: time.Now().Add(time.Hour),
	}
	call := func() {
		reply, err := sys.DeliverEnvelope("mirror", env)
		if err != nil || len(reply.Data) != len(env.Msg.Data) {
			t.Fatalf("budgeted deliver: %v, %q", err, reply.Data)
		}
	}
	call() // arm the queue's timer and fill the pool
	if allocs := testing.AllocsPerRun(1000, call); allocs > 1 {
		t.Fatalf("a budgeted DeliverEnvelope allocates %.2f objects per call, want at most 1", allocs)
	}
}
