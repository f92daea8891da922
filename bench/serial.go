package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/kernel"
	"lateral/internal/netsim"
	"lateral/internal/policy"
)

// budget is the deadline every budgeted call runs under.
const budget = time.Second

// serial is rpc-serial: one caller delivers to a client app whose granted
// channel reaches the remote echo through a stub, under a policy engine
// whose rule never matches.
type serial struct {
	p          *probe
	net        *netsim.Network
	client     *core.System
	stub       *distributed.Stub
	handshake  time.Duration
	payloads   [][]byte
	mismatched atomic.Int64
}

func setupSerial(seed int64) (fixture, error) {
	tag := fmt.Sprintf("serial-%d", seed)
	f := &serial{p: &probe{}, net: netsim.New()}
	vendor := cryptoutil.NewSigner(tag + "-vendor")
	e := &echo{p: f.p}
	srv, err := newMachine(f.net, vendor, "cloud", tag, e)
	if err != nil {
		return nil, err
	}
	f.stub, err = distributed.NewStub(distributed.StubConfig{
		RemoteName:     "echo",
		RemoteEndpoint: "cloud",
		Endpoint:       f.net.Attach("laptop"),
		Rand:           cryptoutil.NewPRNG(tag + "-cli"),
		VerifyServer:   verifier(f.p, vendor.Public(), cryptoutil.Hash(core.DomainImage(e))),
		Pump:           f.p.pump(srv.serve),
	})
	if err != nil {
		return nil, err
	}

	f.client = core.NewSystem(kernel.New(kernel.Config{}))
	if err := f.client.Launch(&app{}, true, 1); err != nil {
		return nil, err
	}
	if err := f.client.Launch(timedStub{Stub: f.stub, p: f.p}, false, 1); err != nil {
		return nil, err
	}
	if err := f.client.Grant(core.ChannelSpec{Name: "echo", From: "app", To: "echo"}); err != nil {
		return nil, err
	}
	if err := f.client.InitAll(); err != nil {
		return nil, err
	}
	rules := &policy.RuleSet{Rules: []policy.Rule{
		{Name: "no-exfil", Effect: policy.Deny, Channel: "exfil", Op: "*"},
	}}
	rules.Normalize()
	eng, err := policy.New(policy.Config{Name: "bench", Rules: rules})
	if err != nil {
		return nil, err
	}
	f.client.SetPolicy(timedPolicy{Policy: eng, p: f.p})

	start := time.Now()
	if err := f.stub.Connect(); err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	f.handshake = time.Since(start)

	rng := rand.New(rand.NewSource(seed))
	f.payloads = make([][]byte, 1024)
	for i := range f.payloads {
		f.payloads[i] = make([]byte, 16)
		rng.Read(f.payloads[i])
	}
	return f, nil
}

func (f *serial) probe() *probe { return f.p }

func (f *serial) drive(ph *phase) {
	ph.run(1, func(_ int, l *lane) {
		for i := 0; ; i++ {
			p := f.payloads[i%len(f.payloads)]
			op := l.begin(spanOp)
			// Core runs the app, and the app's call into the stub, on
			// goroutines of their own; the stamp links their spans to this
			// operation.
			f.p.req.Store(op.req)
			start := time.Now()
			sp := l.begin(spanCore)
			reply, err := f.client.DeliverDeadline("app", core.Message{Op: "echo", Data: p}, core.Span{}, start.Add(budget))
			sp.end()
			if err == nil && !bytes.Equal(reply.Data, p) {
				f.mismatched.Add(1)
				err = errMismatch
			}
			end := time.Now()
			op.end()
			l.observe(start, end, err, 2*len(p))
			if l.done(end) {
				return
			}
		}
	})
}

func (f *serial) counters() counters {
	c := counters{}
	stubCounters(c, f.stub.Stats())
	probeCounters(c, f.p)
	netCounters(c, f.net, []string{"laptop"}, []string{"cloud"})
	return c
}

func (f *serial) layers(*phase, counters) map[string]float64 {
	out := map[string]float64{"securechan.handshake_ms": f.handshake.Seconds() * 1e3}
	if n := f.p.verifies.Load(); n > 0 {
		out["attest.verify_us"] = float64(f.p.verifyNs.Load()) / float64(n) / 1e3
	}
	return out
}

func (f *serial) checks() []check {
	return []check{countCheck("echo_bytes", f.mismatched.Load(), "replies differed from their request")}
}
