package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/netsim"
	"lateral/internal/sgx"
	"lateral/internal/telemetry"
)

// e20Svc is a minimal attested service whose handler can be made to hang:
// Stall arms a per-call sleep, modeling a replica that is alive on the
// network but wedged inside its enclave (the failure health checks cannot
// see and deadlines must contain). All state is atomic because abandoned
// handlers keep running after the watchdog returns.
type e20Svc struct {
	stall   atomic.Int64 // ns each call sleeps before answering
	handled atomic.Int64
}

func (s *e20Svc) CompName() string     { return "svc" }
func (s *e20Svc) CompVersion() string  { return "1.0" }
func (s *e20Svc) Init(*core.Ctx) error { return nil }

func (s *e20Svc) Handle(env core.Envelope) (core.Message, error) {
	if env.Msg.Op != "work" {
		return core.Message{}, core.ErrRefused
	}
	if d := time.Duration(s.stall.Load()); d > 0 {
		time.Sleep(d)
	}
	s.handled.Add(1)
	return core.Message{Op: "ack"}, nil
}

// e20Fleet is a small attested fleet whose replicas can be wedged on
// demand, used by the stall-containment experiment and soak test.
type e20Fleet struct {
	pool *cluster.Pool
	net  *netsim.Network
	svcs map[string]*e20Svc
	sys  map[string]*core.System
}

// e20Build deploys n replicas svc-1…svc-n of the stallable service behind
// an attested pool. The pool uses real time (deadlines are wall-clock
// budgets here, unlike E19's virtual-time throughput runs).
func e20Build(n int) (*e20Fleet, error) {
	net := netsim.New()
	vendor := cryptoutil.NewSigner("intel")
	pool, err := cluster.New(cluster.Config{
		Fleet:          "svc",
		RemoteName:     "svc",
		VendorKey:      vendor.Public(),
		Measurement:    cryptoutil.Hash(core.DomainImage(&e20Svc{})),
		JitterSeed:     "e20",
		HealthInterval: e20Slack,
	})
	if err != nil {
		return nil, err
	}
	f := &e20Fleet{
		pool: pool,
		net:  net,
		svcs: make(map[string]*e20Svc),
		sys:  make(map[string]*core.System),
	}
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("svc-%d", i)
		cpu, err := sgx.New(sgx.Config{DeviceSeed: "e20-" + name, Vendor: vendor})
		if err != nil {
			return nil, err
		}
		sys := core.NewSystem(cpu)
		svc := &e20Svc{}
		if err := sys.Launch(svc, true, 1); err != nil {
			return nil, err
		}
		if err := sys.InitAll(); err != nil {
			return nil, err
		}
		exp, err := distributed.NewExporter(distributed.ExportConfig{
			System:    sys,
			Component: "svc",
			Endpoint:  net.Attach(name),
			Identity:  cryptoutil.NewSigner(name + "-tls"),
			Rand:      cryptoutil.NewPRNG("e20-srv-" + name),
		})
		if err != nil {
			return nil, err
		}
		if err := pool.Admit(cluster.ReplicaSpec{
			Name:           name,
			RemoteEndpoint: name,
			Endpoint:       net.Attach("lb-" + name),
			Rand:           cryptoutil.NewPRNG("e20-cli-" + name),
			Pump:           exp.Serve,
		}); err != nil {
			return nil, err
		}
		f.svcs[name] = svc
		f.sys[name] = sys
	}
	return f, nil
}

func (f *e20Fleet) setTracer(tr core.Tracer) {
	for _, sys := range f.sys {
		sys.SetTracer(tr)
	}
}

func (f *e20Fleet) handledTotal() int64 {
	var n int64
	for _, s := range f.svcs {
		n += s.handled.Load()
	}
	return n
}

// e20Slack is the containment tolerance: one health interval, per the
// stall-containment acceptance bound (budget + one health interval).
const e20Slack = 100 * time.Millisecond

// e20Round drives calls keys through the fleet with a per-call budget and
// reports how many returned nil, how many returned ErrDeadline, and the
// slowest observed wall-clock latency.
func e20Round(f *e20Fleet, calls int, budget time.Duration) (ok, timedOut int, maxElapsed time.Duration) {
	for i := 0; i < calls; i++ {
		key := fmt.Sprintf("key-%03d", i)
		start := time.Now()
		_, err := f.pool.DoDeadline(key, core.Message{Op: "work"}, start.Add(budget))
		if el := time.Since(start); el > maxElapsed {
			maxElapsed = el
		}
		switch {
		case err == nil:
			ok++
		case errors.Is(err, core.ErrDeadline):
			timedOut++
		}
	}
	return ok, timedOut, maxElapsed
}

// e20Drain waits for abandoned handlers to finish and their goroutines to
// exit, polling until the count is back at (or below) base. It returns the
// number of goroutines still alive beyond base after the grace period —
// the experiment's leak count.
func e20Drain(base int, grace time.Duration) int {
	deadline := time.Now().Add(grace)
	for {
		runtime.Gosched()
		leaked := runtime.NumGoroutine() - base
		if leaked <= 0 || time.Now().After(deadline) {
			if leaked < 0 {
				leaked = 0
			}
			return leaked
		}
		time.Sleep(time.Millisecond)
	}
}

// e20Timeouts sums the per-channel timeout counters a Metrics collector saw
// — the lateral_call_timeouts_total families the replicas exported.
func e20Timeouts(met *telemetry.Metrics) int64 {
	var n int64
	for _, c := range met.Channels() {
		n += c.Timeouts
	}
	return n
}

// E20Stall validates stall containment end to end: a replica that wedges
// inside its enclave (§II-B "the app is at the provider's mercy" — here the
// provider's machine simply stops making progress) must cost its callers at
// most their declared budget, not a hung session. A healthy fleet, a fleet
// with one wedged replica, and a fleet behind a reordering network are each
// driven with per-call deadlines; every call must return within budget plus
// one health interval, the wedged rounds must surface as
// lateral_call_timeouts_total, the stalled replica must NOT be marked down
// (slow is not dead — it recovers by itself), and no abandoned-handler
// goroutine may outlive the run.
func E20Stall() (Table, error) {
	t := Table{
		ID:     "E20",
		Title:  "stall containment under deadlines",
		Anchor: "§III-B trustworthy invocation; deadline/backpressure threading",
		Header: []string{"scenario", "calls", "ok", "timeouts", "max-latency"},
	}
	const calls = 24
	base := runtime.NumGoroutine()

	// Round 1: healthy fleet. Everything completes far inside budget.
	f, err := e20Build(3)
	if err != nil {
		return t, err
	}
	budget := 50 * time.Millisecond
	ok, timedOut, maxEl := e20Round(f, calls, budget)
	pass := ok == calls && timedOut == 0 && maxEl <= budget+e20Slack
	t.AddRow("healthy fleet", calls, ok, timedOut, maxEl.Round(time.Millisecond).String())
	t.Check("healthy fleet: every call ok within budget", pass,
		fmt.Sprintf("%d/%d ok, %d timeouts, max %s vs bound %s", ok, calls, timedOut, maxEl.Round(time.Millisecond), budget+e20Slack))

	// Round 2: svc-1 wedges for 4x the budget. Calls sharded to it must be
	// abandoned at the deadline; the replica must stay admitted (slow, not
	// dead) and the other replicas keep serving.
	f2, err := e20Build(3)
	if err != nil {
		return t, err
	}
	met := telemetry.NewMetrics()
	f2.setTracer(met)
	budget = 20 * time.Millisecond
	f2.svcs["svc-1"].stall.Store(int64(4 * budget))
	ok2, timedOut2, maxEl2 := e20Round(f2, calls, budget)
	f2.svcs["svc-1"].stall.Store(0)
	tmoMetric := e20Timeouts(met)
	pass2 := timedOut2 > 0 && ok2 > 0 && ok2+timedOut2 == calls &&
		maxEl2 <= budget+e20Slack && f2.pool.Healthy() == 3 && tmoMetric > 0
	t.AddRow("svc-1 wedged 4x budget", calls, ok2, timedOut2, maxEl2.Round(time.Millisecond).String())
	t.Check("svc-1 wedged 4x budget: contained, slow not dead", pass2,
		fmt.Sprintf("%d ok + %d timeouts of %d, max %s vs bound %s, healthy=%d of 3, timeouts metric=%d",
			ok2, timedOut2, calls, maxEl2.Round(time.Millisecond), budget+e20Slack, f2.pool.Healthy(), tmoMetric))

	// Round 3: congested network reorders and detains datagrams (Delayer
	// chaos). Calls may fail over or expire, but none may exceed its budget
	// by more than the slack, and the fleet must be whole again once the
	// congestion clears.
	f3, err := e20Build(3)
	if err != nil {
		return t, err
	}
	f3.net.SetAdversary(netsim.NewDelayer(20, 0.25, 3))
	budget = 50 * time.Millisecond
	ok3, timedOut3, maxEl3 := e20Round(f3, calls, budget)
	f3.net.SetAdversary(nil)
	// Reordering breaks secure-channel sessions (records fail to open), so
	// replicas go down and calls fail fast — bounded, never hung. Once the
	// congestion clears, health rounds must reconnect and re-attest the
	// whole fleet (a half-open session costs one extra round).
	healRounds := 0
	for healRounds < 5 && f3.pool.Healthy() < 3 {
		f3.pool.CheckNow()
		healRounds++
	}
	pass3 := maxEl3 <= budget+e20Slack && f3.pool.Healthy() == 3 && f3.pool.Quarantined() == 0
	t.AddRow("delayer chaos (25% detained)", calls, ok3, timedOut3, maxEl3.Round(time.Millisecond).String())
	t.Check("delayer chaos (25% detained): bounded, fleet whole again", pass3,
		fmt.Sprintf("max %s vs bound %s, healthy=%d of 3, quarantined=%d",
			maxEl3.Round(time.Millisecond), budget+e20Slack, f3.pool.Healthy(), f3.pool.Quarantined()))

	// Abandoned handlers must finish and their goroutines exit.
	leaked := e20Drain(base, 3*time.Second)
	t.Check("goroutine leak check", leaked == 0, fmt.Sprintf("%d leaked", leaked))

	t.Notes = append(t.Notes,
		fmt.Sprintf("containment bound: per-call budget + one health interval (%s); wall-clock time", e20Slack),
		fmt.Sprintf("wedged round: %d abandoned at deadline, replica stayed admitted (healthy=%d of 3), lateral_call_timeouts_total=%d",
			timedOut2, f2.pool.Healthy(), tmoMetric),
		fmt.Sprintf("wedged replica drained its backlog after abandonment: %d calls eventually handled fleet-wide; calls whose budget ran out while queued were skipped, not run late", f2.handledTotal()),
		fmt.Sprintf("chaos round: broken sessions fail fast (no hangs); fleet whole again after %d health round(s), none quarantined", healRounds),
	)
	return t, nil
}
