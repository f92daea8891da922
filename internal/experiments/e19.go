package experiments

import (
	"crypto/ed25519"
	"fmt"
	"strings"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/netsim"
	"lateral/internal/sgx"
)

// e19Anon is the replicated anonymizer of the Fig. 3 smart-meter backend:
// one audited build deployed N times, each instance in its own cloud
// enclave. It aggregates readings and tracks per-meter counts so the
// experiment can prove no accepted reading was lost.
type e19Anon struct {
	readings int
	sum      int64
	perMeter map[string]int
}

func (a *e19Anon) CompName() string     { return "anonymizer" }
func (a *e19Anon) CompVersion() string  { return "2.0" }
func (a *e19Anon) Init(*core.Ctx) error { return nil }

func (a *e19Anon) Handle(env core.Envelope) (core.Message, error) {
	switch env.Msg.Op {
	case "reading":
		// Data is "meterID=k" with k the kWh value in the final byte.
		data := env.Msg.Data
		if len(data) < 3 || data[len(data)-2] != '=' {
			return core.Message{}, core.ErrRefused
		}
		if a.perMeter == nil {
			a.perMeter = make(map[string]int)
		}
		a.perMeter[string(data[:len(data)-2])]++
		a.readings++
		a.sum += int64(data[len(data)-1])
		return core.Message{Op: "ack", Data: []byte(fmt.Sprint(a.readings))}, nil
	default:
		return core.Message{}, core.ErrRefused
	}
}

// e19TamperedAnon is the same anonymizer with a siphon patched in — a
// different measurement, which fleet admission must quarantine.
type e19TamperedAnon struct{ e19Anon }

func (t *e19TamperedAnon) CompVersion() string { return "2.0-siphon" }

// FleetDemo is a running anonymizer fleet, exposed so tooling (lateralctl
// cluster / metrics) can instrument and drive it.
type FleetDemo struct {
	// Pool is the attested replica fleet.
	Pool *cluster.Pool
	// Net is the simulated network between the balancer and the replicas.
	Net *netsim.Network
	// Part is the partition adversary on that network (crash injection).
	Part *netsim.Partitioner
	// TamperedAdmitErr is the admission failure of the tampered replica,
	// when one was deployed (nil otherwise).
	TamperedAdmitErr error

	anons     map[string]*e19Anon
	systems   map[string]*core.System
	exporters map[string]*distributed.Exporter
	vendor    *cryptoutil.Signer
	meas      [32]byte
	rec       core.EventRecorder
}

// BuildFleetDemo deploys an anonymizer fleet of n replicas named
// anon-1…anon-n, each in its own SGX-style enclave behind an attested
// exporter. When tamperedIdx is in [1, n], that replica runs the tampered
// build; its admission must fail and is recorded in TamperedAdmitErr.
// mon (may be nil) receives per-replica fleet telemetry.
func BuildFleetDemo(n, tamperedIdx int, mon cluster.Monitor) (*FleetDemo, error) {
	return BuildJournaledFleetDemo(n, tamperedIdx, mon, nil)
}

// BuildJournaledFleetDemo is BuildFleetDemo with a fleet black box wired
// in: rec journals every admission, state transition, failover, and
// secure-channel session event from the pool, plus every deadline,
// overload, and cancel shed inside each replica system (E24, lateralctl
// events/audit). A nil rec is the journal-off fast path.
func BuildJournaledFleetDemo(n, tamperedIdx int, mon cluster.Monitor, rec core.EventRecorder) (*FleetDemo, error) {
	net := netsim.New()
	part := netsim.NewPartitioner()
	net.SetAdversary(part)
	vendor := cryptoutil.NewSigner("intel")
	pool, err := cluster.New(cluster.Config{
		Fleet:       "anonymizer",
		RemoteName:  "anonymizer",
		VendorKey:   vendor.Public(),
		Measurement: cryptoutil.Hash(core.DomainImage(&e19Anon{})),
		JitterSeed:  "e19",
		Sleep:       func(time.Duration) {}, // virtual time only
		Monitor:     mon,
		Journal:     rec,
	})
	if err != nil {
		return nil, err
	}
	d := &FleetDemo{
		Pool:      pool,
		Net:       net,
		Part:      part,
		anons:     make(map[string]*e19Anon),
		systems:   make(map[string]*core.System),
		exporters: make(map[string]*distributed.Exporter),
		vendor:    vendor,
		meas:      cryptoutil.Hash(core.DomainImage(&e19Anon{})),
		rec:       rec,
	}
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("anon-%d", i)
		spec, err := d.buildReplica(name, i == tamperedIdx)
		if err != nil {
			return nil, err
		}
		err = pool.Admit(spec)
		if i == tamperedIdx {
			if err == nil {
				return nil, fmt.Errorf("e19: tampered replica %s was admitted", name)
			}
			d.TamperedAdmitErr = err
		} else if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// buildReplica stands up one replica machine — enclave, system, exporter —
// and returns the admission spec for it, with the exporter's epoch gate
// wired so the pool can rekey it through config transitions. It does not
// admit; the caller picks Admit (static build) or Join (epoch transition).
func (d *FleetDemo) buildReplica(name string, tampered bool) (cluster.ReplicaSpec, error) {
	cpu, err := sgx.New(sgx.Config{DeviceSeed: "e19-" + name, Vendor: d.vendor})
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	sys := core.NewSystem(cpu)
	anon := &e19Anon{}
	var comp core.Component = anon
	if tampered {
		tam := &e19TamperedAnon{}
		anon = &tam.e19Anon
		comp = tam
	}
	if err := sys.Launch(comp, true, 1); err != nil {
		return cluster.ReplicaSpec{}, err
	}
	if err := sys.InitAll(); err != nil {
		return cluster.ReplicaSpec{}, err
	}
	if d.rec != nil {
		sys.SetEventRecorder(d.rec)
	}
	exp, err := distributed.NewExporter(distributed.ExportConfig{
		System:    sys,
		Component: "anonymizer",
		Endpoint:  d.Net.Attach(name),
		Identity:  cryptoutil.NewSigner(name + "-tls"),
		Rand:      cryptoutil.NewPRNG("e19-srv-" + name),
	})
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	d.anons[name] = anon
	d.systems[name] = sys
	d.exporters[name] = exp
	return cluster.ReplicaSpec{
		Name:           name,
		RemoteEndpoint: name,
		Endpoint:       d.Net.Attach("lb-" + name),
		Rand:           cryptoutil.NewPRNG("e19-cli-" + name),
		Pump:           exp.Serve,
		SetEpoch:       exp.SetEpoch,
	}, nil
}

// Join stands up a fresh honest replica named name and admits it through a
// full config-epoch transition: the whole fleet re-attests and rekeys at
// the new epoch (E26 rolling replace).
func (d *FleetDemo) Join(name string) error {
	spec, err := d.buildReplica(name, false)
	if err != nil {
		return err
	}
	return d.Pool.Join(spec)
}

// Dial connects a side-channel stub straight to one replica's exporter,
// outside the pool, with the handshake stamping whatever epoch fn reports.
// E26 uses it to prove the epoch gate: a client keyed to a stale config
// must be refused once the fleet has moved on.
func (d *FleetDemo) Dial(replica, client string, epoch func() uint64) (*distributed.Stub, error) {
	exp := d.exporters[replica]
	if exp == nil {
		return nil, fmt.Errorf("e19: no exporter for %q", replica)
	}
	vendor, meas := d.vendor, d.meas
	return distributed.NewStub(distributed.StubConfig{
		RemoteName:     "anonymizer",
		RemoteEndpoint: replica,
		Endpoint:       d.Net.Attach(client),
		Rand:           cryptoutil.NewPRNG("e19-side-" + client),
		VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
			return core.VerifyEvidence(evidence, tr[:], vendor.Public(), meas)
		},
		Pump:  exp.Serve,
		Epoch: epoch,
	})
}

// Send routes one meter reading into the fleet, sharded by meter identity.
func (d *FleetDemo) Send(meter string, kwh int) error {
	return d.SendDeadline(meter, kwh, time.Time{})
}

// SendDeadline is Send under a caller budget: transmit, remote execution,
// and any failover must all finish before deadline. Zero is unbounded.
func (d *FleetDemo) SendDeadline(meter string, kwh int, deadline time.Time) error {
	_, err := d.Pool.DoDeadline(meter, core.Message{
		Op:   "reading",
		Data: append([]byte(meter+"="), byte(kwh)),
	}, deadline)
	return err
}

// SetTracer installs tr on every replica system.
func (d *FleetDemo) SetTracer(tr core.Tracer) {
	for _, sys := range d.systems {
		sys.SetTracer(tr)
	}
}

// Processed returns how many readings one replica's anonymizer handled.
func (d *FleetDemo) Processed(name string) int { return d.anons[name].readings }

// ProcessedTotal sums processed readings across the fleet.
func (d *FleetDemo) ProcessedTotal() int {
	n := 0
	for _, a := range d.anons {
		n += a.readings
	}
	return n
}

// ProcessedByMeter sums one meter's readings across the fleet.
func (d *FleetDemo) ProcessedByMeter(meter string) int {
	n := 0
	for _, a := range d.anons {
		n += a.perMeter[meter]
	}
	return n
}

// MakespanNs is the fleet's modeled completion time: replicas work in
// parallel, so it is the maximum per-replica accumulated virtual time.
func (d *FleetDemo) MakespanNs() int64 {
	var max int64
	for _, sys := range d.systems {
		if v := sys.Stats().VirtualNs; v > max {
			max = v
		}
	}
	return max
}

// e19Drive sends rounds×meters readings through the fleet, invoking chaos
// (when non-nil) before each send with the running reading index. It
// returns how many sends the fleet accepted and how many accepted readings
// were never processed by any replica (loss is counted per meter, so
// duplicates from one meter cannot mask losses from another).
func e19Drive(d *FleetDemo, meters, rounds int, chaos func(i int)) (accepted, lost int) {
	sent := make(map[string]int, meters)
	i := 0
	for r := 0; r < rounds; r++ {
		for m := 0; m < meters; m++ {
			if chaos != nil {
				chaos(i)
			}
			name := fmt.Sprintf("meter-%03d", m)
			if err := d.Send(name, 1+(m+r)%9); err == nil {
				accepted++
				sent[name]++
			}
			i++
		}
	}
	for name, n := range sent {
		if p := d.ProcessedByMeter(name); p < n {
			lost += n - p
		}
	}
	return accepted, lost
}

// E19Cluster validates the many-meter scaling story behind Fig. 3: "the
// service provider in charge of operating the metering infrastructure"
// cannot serve millions of meters from one enclave, so the anonymizer
// becomes an attested replica fleet (§III-D aggregates spanning machines).
// Fleets of 1/2/4/8 replicas serve the same meter population — throughput
// must scale with replica count — and a chaos run crashes one replica
// mid-stream (transparent failover, later re-attested and re-admitted)
// while a tampered build sits quarantined from admission to shutdown.
func E19Cluster() (Table, error) {
	t := Table{
		ID:     "E19",
		Title:  "attested replica fleet under load",
		Anchor: "§III-D distributed aggregates; Fig. 3 anonymizer at provider scale",
		Header: []string{"fleet", "accepted", "lost", "rd/ms", "speedup"},
	}
	const meters, rounds = 160, 3
	total := meters * rounds
	var base, prev float64
	monotonic := true
	var curve []string
	for _, n := range []int{1, 2, 4, 8} {
		d, err := BuildFleetDemo(n, 0, nil)
		if err != nil {
			return t, err
		}
		accepted, lost := e19Drive(d, meters, rounds, nil)
		thr := float64(accepted) / (float64(d.MakespanNs()) / 1e6)
		if n == 1 {
			base = thr
		}
		if thr <= prev {
			monotonic = false
		}
		prev = thr
		curve = append(curve, fmt.Sprintf("%.0f", thr))
		ok := accepted == total && lost == 0 && d.ProcessedTotal() == accepted
		label := fmt.Sprintf("%d replicas", n)
		if n == 1 {
			label = "1 replica"
		}
		t.AddRow(label, accepted, lost, thr, fmt.Sprintf("%.2fx", thr/base))
		t.Check(label+": every reading accepted and processed", ok,
			fmt.Sprintf("%d/%d accepted, %d lost, %d processed", accepted, total, lost, d.ProcessedTotal()))
	}
	t.Check("throughput grows with replica count", monotonic, strings.Join(curve, " < ")+" rd/ms")

	// Chaos run: 4 honest replicas plus a tampered deploy. anon-2 crashes a
	// third of the way in and restarts (heal + re-attest) at two thirds;
	// anon-5's evidence mismatches at admission and it must stay out.
	d, err := BuildFleetDemo(5, 5, nil)
	if err != nil {
		return t, err
	}
	accepted, lost := e19Drive(d, meters, rounds, func(i int) {
		switch i {
		case total / 3:
			d.Part.Isolate("anon-2")
		case 2 * total / 3:
			d.Part.Heal("anon-2")
			d.Pool.CheckNow()
		}
	})
	thr := float64(accepted) / (float64(d.MakespanNs()) / 1e6)
	ok := accepted == total && lost == 0 &&
		d.Pool.Quarantined() == 1 && d.Processed("anon-5") == 0 &&
		d.Pool.Healthy() == 4 && d.TamperedAdmitErr != nil
	t.AddRow("4+1 chaos (crash + tampered)", accepted, lost, thr, fmt.Sprintf("%.2fx", thr/base))
	t.Check("4+1 chaos: nothing lost, tampered replica kept out", ok,
		fmt.Sprintf("%d/%d accepted, %d lost, %d healthy, %d quarantined, anon-5 processed %d",
			accepted, total, lost, d.Pool.Healthy(), d.Pool.Quarantined(), d.Processed("anon-5")))
	// Despite losing a member mid-run and never admitting the tampered one.
	t.Check("chaos fleet beats one replica", thr > base, fmt.Sprintf("%.1f vs %.1f rd/ms", thr, base))

	var failovers int64
	for _, ri := range d.Pool.Replicas() {
		failovers += ri.Failovers
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d meters × %d readings; rd/ms = accepted / fleet makespan (max per-replica virtual time, SGX transition ≈ 8 µs)", meters, rounds),
		fmt.Sprintf("chaos run: %d failover(s); crashed anon-2 re-attested and re-admitted; tampered anon-5 quarantined at admission (%d readings)", failovers, d.Processed("anon-5")),
		"lost counts accepted readings no replica processed, tallied per meter so duplicates in the failover window cannot mask losses",
	)
	return t, nil
}
