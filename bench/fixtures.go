package main

import (
	"crypto/ed25519"
	"sync"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/netsim"
	"lateral/internal/sgx"
)

// echo mirrors its request. It does no work of its own, so what the
// rpc workloads measure is the trust stack around it.
type echo struct{ p *probe }

func (*echo) CompName() string     { return "echo" }
func (*echo) CompVersion() string  { return "1.0" }
func (*echo) Init(*core.Ctx) error { return nil }

func (e *echo) Handle(env core.Envelope) (core.Message, error) {
	sp := e.p.begin(spanHandler)
	e.p.handled.Add(1)
	msg := core.Message{Op: "echo", Data: env.Msg.Data}
	sp.end()
	return msg, nil
}

// anonymizer is the Fig. 3 meter-reading sink: it counts readings per
// meter so the benchmark can check, server side, that every acked reading
// arrived exactly once. A reading's data is the meter index in three
// big-endian bytes followed by the kWh value. Fields are guarded by core's
// per-component execution slot.
type anonymizer struct {
	p      *probe
	counts []uint32
	total  int64
	kwh    int64
}

func newAnonymizer(p *probe, meters int) *anonymizer {
	return &anonymizer{p: p, counts: make([]uint32, meters)}
}

func (*anonymizer) CompName() string     { return "anonymizer" }
func (*anonymizer) CompVersion() string  { return "2.0" }
func (*anonymizer) Init(*core.Ctx) error { return nil }

func (a *anonymizer) Handle(env core.Envelope) (core.Message, error) {
	sp := a.p.begin(spanHandler)
	a.p.handled.Add(1)
	d := env.Msg.Data
	if env.Msg.Op != "reading" || len(d) != 4 {
		return core.Message{}, core.ErrRefused
	}
	m := int(d[0])<<16 | int(d[1])<<8 | int(d[2])
	if m >= len(a.counts) {
		return core.Message{}, core.ErrRefused
	}
	a.counts[m]++
	a.total++
	a.kwh += int64(d[3])
	sp.end()
	return core.Message{Op: "ack"}, nil
}

func meterData(m int, kwh byte) []byte {
	return []byte{byte(m >> 16), byte(m >> 8), byte(m), kwh}
}

// app is the client-side component of rpc-serial: it forwards each
// delivered request over its granted "echo" channel, which the stub serves.
type app struct{ ctx *core.Ctx }

func (*app) CompName() string         { return "app" }
func (*app) CompVersion() string      { return "1.0" }
func (a *app) Init(c *core.Ctx) error { a.ctx = c; return nil }
func (a *app) Handle(env core.Envelope) (core.Message, error) {
	return a.ctx.Call("echo", env.Msg)
}

// timedStub is the client system's view of the remote echo: the stub,
// with a span around each call into it.
type timedStub struct {
	*distributed.Stub
	p *probe
}

func (s timedStub) Handle(env core.Envelope) (core.Message, error) {
	sp := s.p.begin(spanStub)
	msg, err := s.Stub.Handle(env)
	sp.end()
	return msg, err
}

// timedPolicy counts and times every check the installed engine makes.
type timedPolicy struct {
	core.Policy
	p *probe
}

func (tp timedPolicy) CheckInvoke(req core.PolicyRequest) ([]string, error) {
	sp := tp.p.begin(spanPolicy)
	tp.p.checks.Add(1)
	acq, err := tp.Policy.CheckInvoke(req)
	sp.end()
	return acq, err
}

// timedBackend is a shard cell's pool as the router sees it, with a span
// around each batch frame.
type timedBackend struct {
	*cluster.Pool
	p *probe
}

func (b timedBackend) DoBatch(key string, readings []distributed.Reading, results []distributed.BatchResult, deadline time.Time) ([]distributed.BatchResult, error) {
	sp := b.p.begin(spanCluster)
	res, err := b.Pool.DoBatch(key, readings, results, deadline)
	sp.end()
	return res, err
}

// machine is one replica host: an SGX CPU running a system that exports
// one component on the network.
type machine struct {
	name string
	sys  *core.System
	exp  *distributed.Exporter
	mu   sync.Mutex // held through each Serve pass
}

// serve runs one Serve pass as the machine's one server loop would: never
// beside another. Serve answers a hello with the exporter's unsynchronized
// handshake PRNG, so a joining replica's handshake must not run in a pass
// beside a caller's wire round.
func (m *machine) serve() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exp.Serve()
}

// newMachine launches comp in an enclave on a fresh SGX CPU and exports it
// at endpoint name. tag keys the CPU and the handshake randomness, so a
// seed reproduces every key.
func newMachine(net *netsim.Network, vendor *cryptoutil.Signer, name, tag string, comp core.Component) (*machine, error) {
	cpu, err := sgx.New(sgx.Config{DeviceSeed: tag + "-cpu-" + name, Vendor: vendor})
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem(cpu)
	if err := sys.Launch(comp, true, 1); err != nil {
		return nil, err
	}
	if err := sys.InitAll(); err != nil {
		return nil, err
	}
	exp, err := distributed.NewExporter(distributed.ExportConfig{
		System:    sys,
		Component: comp.CompName(),
		Endpoint:  net.Attach(name),
		Identity:  cryptoutil.NewSigner(tag + "-tls-" + name),
		Rand:      cryptoutil.NewPRNG(tag + "-srv-" + name),
	})
	if err != nil {
		return nil, err
	}
	return &machine{name: name, sys: sys, exp: exp}, nil
}

// spec is the pool's admission record for the machine: the pool dials it
// from its own endpoint, pumps it through the probe, and pushes epochs to
// its exporter.
func (m *machine) spec(net *netsim.Network, tag string, p *probe) cluster.ReplicaSpec {
	return cluster.ReplicaSpec{
		Name:           m.name,
		RemoteEndpoint: m.name,
		Endpoint:       net.Attach("lb-" + m.name),
		Rand:           cryptoutil.NewPRNG(tag + "-cli-" + m.name),
		Pump:           p.pump(m.serve),
		SetEpoch:       m.exp.SetEpoch,
	}
}

// verifier is the benchmark's own attestation check for a stub it dials
// directly: decode the quote, check it against the vendor key and the
// pinned measurement, and time it.
func verifier(p *probe, vendor ed25519.PublicKey, meas [32]byte) func(ed25519.PublicKey, [32]byte, []byte) error {
	return func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
		start := time.Now()
		q, err := core.DecodeQuote(evidence)
		if err == nil {
			err = core.VerifyQuote(q, tr[:], vendor, meas)
		}
		p.verifies.Add(1)
		p.verifyNs.Add(int64(time.Since(start)))
		return err
	}
}

// stubCounters adds one stub's books to c under the distributed.* keys.
func stubCounters(c counters, st distributed.StubStats) {
	c["stub.issued"] += float64(st.Issued)
	c["stub.resolved"] += float64(st.Completed + st.Failed)
	c["stub.inflight"] += float64(st.Inflight)
	c["stub.orphans"] += float64(st.Orphans)
	c["stub.records"] += float64(st.Records)
	c["stub.coal_records"] += float64(st.CoalescedRecords)
	c["stub.coal_subs"] += float64(st.CoalescedSubs)
	if float64(st.MaxInflight) > c["stub.max_inflight"] {
		c["stub.max_inflight"] = float64(st.MaxInflight)
	}
}

// replicaCounters adds a pool replica's books to c.
func replicaCounters(c counters, ri cluster.ReplicaInfo) {
	stubCounters(c, ri.Stub)
	c["cluster.retries"] += float64(ri.Retries)
	c["cluster.failovers"] += float64(ri.Failovers)
}

// netCounters adds the traffic of the named endpoints to c: datagrams and
// bytes sent, and datagrams received by the server side.
func netCounters(c counters, net *netsim.Network, clients, servers []string) {
	for _, name := range append(append([]string(nil), clients...), servers...) {
		st := net.StatsFor(name)
		c["net.datagrams"] += float64(st.Sent)
		c["net.bytes"] += float64(st.SentBytes)
	}
	for _, name := range servers {
		c["net.server_recv"] += float64(net.StatsFor(name).Received)
	}
}

// probeCounters adds the probe's always-on counters to c.
func probeCounters(c counters, p *probe) {
	c["serves"] += float64(p.serves.Load())
	c["handler.calls"] += float64(p.handled.Load())
	c["policy.checks"] += float64(p.checks.Load())
}
