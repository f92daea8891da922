// Package meter implements the paper's §III-C / Figure 3 distributed
// scenario end to end: a smart-meter appliance (virtualized Android on a
// TrustZone SoC, the meter isolated from it, attestation rooted in a fused
// per-device key) talking across an untrusted network to a utility server
// (an SGX enclave hosting an attested anonymizer in front of an untrusted
// database).
//
// The properties the deployment demonstrates, each tested and measured:
//
//   - The utility accepts readings only from genuine meters: a software
//     emulation without the fused key cannot connect (password-less,
//     phishing-resistant client authentication).
//   - The meter sends readings only to the audited anonymizer build: a
//     tampered anonymizer has a different measurement and is refused.
//   - The untrusted database — and the utility operator reading it — sees
//     only anonymized aggregates, never customer identities ("engineered
//     privacy instead of blind belief").
//   - A compromised Android cannot read or fake meter state, and its
//     network reach is policed by the gateway component (§III-C's DDoS
//     paragraph), see scenarios.go.
package meter

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/netsim"
	"lateral/internal/securechan"
	"lateral/internal/sgx"
	"lateral/internal/trustzone"
)

// Errors.
var (
	// ErrRefusedPeer is returned when attestation-based peer verification
	// fails during connection setup.
	ErrRefusedPeer = errors.New("meter: peer attestation refused")
)

// --- appliance-side components ---

// androidComp is the untrusted legacy UI. When compromised it becomes a
// flooding bot (the "unfortunate reality with today's IoT devices").
type androidComp struct {
	ctx *core.Ctx
}

func (a *androidComp) CompName() string         { return "android" }
func (a *androidComp) CompVersion() string      { return "9.0" }
func (a *androidComp) Init(ctx *core.Ctx) error { a.ctx = ctx; return nil }

func (a *androidComp) Handle(env core.Envelope) (core.Message, error) {
	switch env.Msg.Op {
	case "show-billing":
		// The UI may only ask the meter for a display string; it never
		// holds credentials (password-less design).
		return a.ctx.Call("meter", core.Message{Op: "billing-summary"})
	default:
		return core.Message{}, fmt.Errorf("android: op %q: %w", env.Msg.Op, core.ErrRefused)
	}
}

func (a *androidComp) HandleCompromised(env core.Envelope) (core.Message, error) {
	for _, ch := range a.ctx.Channels() {
		_, _ = a.ctx.Call(ch, core.Message{Op: "probe"})
	}
	return core.Message{Op: "pwned"}, nil
}

// meterComp is the isolated metering component: it owns the usage counter
// and the customer identity, so "Android vulnerabilities cannot harm the
// integrity and privacy of the meter readings".
type meterComp struct {
	ctx      *core.Ctx
	customer string
	usage    int
	billing  string
}

func (m *meterComp) CompName() string    { return "meter" }
func (m *meterComp) CompVersion() string { return "fw-1.0" }

func (m *meterComp) Init(ctx *core.Ctx) error {
	m.ctx = ctx
	return ctx.StoreAsset("customer-id", []byte(m.customer))
}

func (m *meterComp) Handle(env core.Envelope) (core.Message, error) {
	switch env.Msg.Op {
	case "tick-usage":
		kwh, err := strconv.Atoi(string(env.Msg.Data))
		if err != nil {
			return core.Message{}, fmt.Errorf("meter: bad usage %q: %w", env.Msg.Data, core.ErrRefused)
		}
		m.usage += kwh
		return core.Message{Op: "reading", Data: []byte(m.customer + "|" + strconv.Itoa(kwh))}, nil
	case "billing-summary":
		return core.Message{Op: "summary", Data: []byte(m.billing)}, nil
	case "billing-update":
		m.billing = string(env.Msg.Data)
		return core.Message{Op: "ok"}, nil
	default:
		return core.Message{}, fmt.Errorf("meter: op %q: %w", env.Msg.Op, core.ErrRefused)
	}
}

// --- server-side components ---

// anonymizerComp runs inside the SGX enclave. The good build keeps
// per-customer totals for billing INSIDE the enclave and writes only
// ID-free aggregates to the database. The evil build (a different,
// unaudited binary, hence a different measurement) leaks customer IDs —
// which is exactly what the meter's attestation check prevents it from
// ever receiving.
type anonymizerComp struct {
	ctx    *core.Ctx
	evil   bool
	totals map[string]int
	sum    int
}

func (a *anonymizerComp) CompName() string { return "anonymizer" }

func (a *anonymizerComp) CompVersion() string {
	if a.evil {
		return "1.0-unaudited"
	}
	return "1.0"
}

func (a *anonymizerComp) Init(ctx *core.Ctx) error {
	a.ctx = ctx
	a.totals = make(map[string]int)
	return nil
}

func (a *anonymizerComp) Handle(env core.Envelope) (core.Message, error) {
	switch env.Msg.Op {
	case "reading":
		parts := strings.SplitN(string(env.Msg.Data), "|", 2)
		if len(parts) != 2 {
			return core.Message{}, fmt.Errorf("anonymizer: malformed reading: %w", core.ErrRefused)
		}
		customer := parts[0]
		kwh, err := strconv.Atoi(parts[1])
		if err != nil {
			return core.Message{}, fmt.Errorf("anonymizer: bad kwh: %w", core.ErrRefused)
		}
		a.totals[customer] += kwh
		a.sum += kwh
		record := "aggregate-total:" + strconv.Itoa(a.sum)
		if a.evil {
			// The unaudited build helpfully "annotates" records.
			record = "customer:" + customer + " total:" + strconv.Itoa(a.totals[customer])
		}
		if _, err := a.ctx.Call("db", core.Message{Op: "store", Data: []byte(record)}); err != nil {
			return core.Message{}, err
		}
		return core.Message{Op: "ack", Data: []byte("billed:" + strconv.Itoa(a.totals[customer]))}, nil
	case "billing":
		return core.Message{Op: "total", Data: []byte(strconv.Itoa(a.totals[string(env.Msg.Data)]))}, nil
	default:
		return core.Message{}, fmt.Errorf("anonymizer: op %q: %w", env.Msg.Op, core.ErrRefused)
	}
}

// databaseComp is the untrusted long-term store run by the (curious)
// utility operator.
type databaseComp struct {
	records []string
}

func (d *databaseComp) CompName() string     { return "database" }
func (d *databaseComp) CompVersion() string  { return "1.0" }
func (d *databaseComp) Init(*core.Ctx) error { return nil }

func (d *databaseComp) Handle(env core.Envelope) (core.Message, error) {
	switch env.Msg.Op {
	case "store":
		d.records = append(d.records, string(env.Msg.Data))
		return core.Message{Op: "stored"}, nil
	case "dump":
		return core.Message{Op: "records", Data: []byte(strings.Join(d.records, "\n"))}, nil
	default:
		return core.Message{}, fmt.Errorf("database: op %q: %w", env.Msg.Op, core.ErrRefused)
	}
}

// Options configures a deployment, including the attack variants the
// experiments need.
type Options struct {
	// CustomerID identifies the household (default "customer-4711").
	CustomerID string

	// TamperAnonymizer deploys the unaudited anonymizer build on the
	// server. Its measurement differs; genuine meters must refuse it.
	TamperAnonymizer bool

	// EmulateMeter connects with a software emulation of the meter that
	// has no fused device key. The utility must refuse it.
	EmulateMeter bool

	// WireAdversary is an optional in-path network attacker.
	WireAdversary netsim.Adversary
}

// Deployment is a running Figure-3 system.
type Deployment struct {
	Appliance *core.System // TrustZone SoC
	Server    *core.System // SGX host
	Net       *netsim.Network

	TZ  *trustzone.Substrate
	SGX *sgx.Substrate

	opts      Options
	socVendor *cryptoutil.Signer // certifies meter SoCs
	cpuVendor *cryptoutil.Signer // certifies server CPUs
	serverID  *cryptoutil.Signer

	meterEP   *netsim.Endpoint
	utilityEP *netsim.Endpoint

	meterSess   *securechan.Session
	utilitySess *securechan.Session

	db *databaseComp
}

// Deploy builds both machines, loads the components, and wires the
// network. Connect must be called before readings flow.
func Deploy(opts Options) (*Deployment, error) {
	if opts.CustomerID == "" {
		opts.CustomerID = "customer-4711"
	}
	d := &Deployment{
		opts:      opts,
		socVendor: cryptoutil.NewSigner("soc-vendor"),
		cpuVendor: cryptoutil.NewSigner("cpu-vendor"),
		serverID:  cryptoutil.NewSigner("utility-tls-identity"),
		Net:       netsim.New(),
		db:        &databaseComp{},
	}
	if opts.WireAdversary != nil {
		d.Net.SetAdversary(opts.WireAdversary)
	}
	// Appliance: TrustZone SoC.
	tz, err := trustzone.New(trustzone.Config{DeviceSeed: "meter-001", Vendor: d.socVendor})
	if err != nil {
		return nil, fmt.Errorf("deploy appliance: %w", err)
	}
	d.TZ = tz
	d.Appliance = core.NewSystem(tz)
	android := &androidComp{}
	mtr := &meterComp{customer: opts.CustomerID}
	if err := d.Appliance.Launch(android, false, 1); err != nil {
		return nil, err
	}
	if err := d.Appliance.Launch(mtr, true, 1); err != nil {
		return nil, err
	}
	if err := d.Appliance.Grant(core.ChannelSpec{Name: "meter", From: "android", To: "meter", Badge: 1}); err != nil {
		return nil, err
	}
	if err := d.Appliance.InitAll(); err != nil {
		return nil, err
	}
	// Server: SGX host.
	sg, err := sgx.New(sgx.Config{DeviceSeed: "utility-cpu", Vendor: d.cpuVendor})
	if err != nil {
		return nil, fmt.Errorf("deploy server: %w", err)
	}
	d.SGX = sg
	d.Server = core.NewSystem(sg)
	anon := &anonymizerComp{evil: opts.TamperAnonymizer}
	if err := d.Server.Launch(anon, true, 1); err != nil {
		return nil, err
	}
	if err := d.Server.Launch(d.db, false, 1); err != nil {
		return nil, err
	}
	if err := d.Server.Grant(core.ChannelSpec{Name: "db", From: "anonymizer", To: "database", Badge: 1, Declassify: true}); err != nil {
		return nil, err
	}
	if err := d.Server.InitAll(); err != nil {
		return nil, err
	}
	d.meterEP = d.Net.Attach("meter")
	d.utilityEP = d.Net.Attach("utility")
	return d, nil
}

// GoodAnonymizerMeasurement is the audited build's measurement — published
// by the utility "to encourage trust in its operation".
func GoodAnonymizerMeasurement() [32]byte {
	return cryptoutil.Hash(core.DomainImage(&anonymizerComp{}))
}

// GoodMeterMeasurement is the genuine meter firmware measurement.
func GoodMeterMeasurement() [32]byte {
	return cryptoutil.Hash(core.DomainImage(&meterComp{}))
}

// meterEvidence produces the appliance's channel-bound quote: the TZ
// anchor (fused key) signs the meter domain's measurement.
func (d *Deployment) meterEvidence(transcript [32]byte) ([]byte, error) {
	if d.opts.EmulateMeter {
		// "Users could disconnect the actual meter and instead have a
		// software emulation send fake data" — the emulator has no fused
		// key, so it signs with one it made up.
		fake := cryptoutil.NewSigner("meter-emulator")
		q := core.SignQuote("tz-rom", GoodMeterMeasurement(), transcript[:], fake,
			core.IssueVendorCert(fake, fake.Public()))
		return q.Encode(), nil
	}
	h, err := d.Appliance.HandleOf("meter")
	if err != nil {
		return nil, err
	}
	q, err := d.TZ.Anchor().Quote(h, transcript[:])
	if err != nil {
		return nil, err
	}
	return q.Encode(), nil
}

// anonymizerEvidence produces the server's channel-bound SGX quote.
func (d *Deployment) anonymizerEvidence(transcript [32]byte) ([]byte, error) {
	h, err := d.Server.HandleOf("anonymizer")
	if err != nil {
		return nil, err
	}
	q, err := d.SGX.Anchor().Quote(h, transcript[:])
	if err != nil {
		return nil, err
	}
	return q.Encode(), nil
}

// Connect runs the mutually attested handshake over the simulated network.
// It fails with ErrRefusedPeer when either side's evidence is unacceptable.
func (d *Deployment) Connect() error {
	client, err := securechan.NewClient(securechan.ClientConfig{
		Rand: cryptoutil.NewPRNG("meter-hs"),
		VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
			if err := core.VerifyEvidence(evidence, tr[:], d.cpuVendor.Public(), GoodAnonymizerMeasurement()); err != nil {
				return fmt.Errorf("%w: %v", ErrRefusedPeer, err)
			}
			return nil
		},
		Evidence: d.meterEvidence,
	})
	if err != nil {
		return err
	}
	server, err := securechan.NewServer(securechan.ServerConfig{
		Rand:     cryptoutil.NewPRNG("utility-hs"),
		Identity: d.serverID,
		Evidence: d.anonymizerEvidence,
		VerifyClient: func(evidence []byte, tr [32]byte) error {
			if err := core.VerifyEvidence(evidence, tr[:], d.socVendor.Public(), GoodMeterMeasurement()); err != nil {
				return fmt.Errorf("%w: %v", ErrRefusedPeer, err)
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	// Three handshake flights over the wire.
	if err := d.meterEP.Send("utility", client.Hello()); err != nil {
		return err
	}
	dg, ok := d.utilityEP.Recv()
	if !ok {
		return fmt.Errorf("connect: hello lost: %w", ErrRefusedPeer)
	}
	resp, pending, err := server.Respond(dg.Payload)
	if err != nil {
		return err
	}
	if err := d.utilityEP.Send("meter", resp); err != nil {
		return err
	}
	dg, ok = d.meterEP.Recv()
	if !ok {
		return fmt.Errorf("connect: response lost: %w", ErrRefusedPeer)
	}
	cs, finish, err := client.Finish(dg.Payload)
	if err != nil {
		return err
	}
	if err := d.meterEP.Send("utility", finish); err != nil {
		return err
	}
	dg, ok = d.utilityEP.Recv()
	if !ok {
		return fmt.Errorf("connect: finish lost: %w", ErrRefusedPeer)
	}
	ss, err := pending.Complete(dg.Payload)
	if err != nil {
		return err
	}
	d.meterSess, d.utilitySess = cs, ss
	return nil
}

// SendReading meters kwh usage and ships the reading to the utility over
// the attested channel; the anonymizer's billing acknowledgment flows back
// to the meter component for display.
func (d *Deployment) SendReading(kwh int) error {
	return d.SendReadingDeadline(kwh, time.Time{})
}

// SendReadingDeadline is SendReading under a caller budget: both on-device
// handler executions (metering and the billing update) and the server-side
// anonymizer execution are bounded by deadline; a stall anywhere surfaces
// as core.ErrDeadline instead of a hung meter. A zero deadline is
// unbounded.
func (d *Deployment) SendReadingDeadline(kwh int, deadline time.Time) error {
	if d.meterSess == nil {
		return fmt.Errorf("send reading: not connected: %w", ErrRefusedPeer)
	}
	reading, err := d.Appliance.DeliverDeadline("meter", core.Message{
		Op: "tick-usage", Data: []byte(strconv.Itoa(kwh)),
	}, core.Span{}, deadline)
	if err != nil {
		return err
	}
	rec, err := d.meterSess.Seal(reading.Data)
	if err != nil {
		return err
	}
	if err := d.meterEP.Send("utility", rec); err != nil {
		return err
	}
	dg, ok := d.utilityEP.Recv()
	if !ok {
		return fmt.Errorf("send reading: record lost in transit")
	}
	plain, err := d.utilitySess.Open(dg.Payload)
	if err != nil {
		return err
	}
	ack, err := d.Server.DeliverDeadline("anonymizer", core.Message{Op: "reading", Data: plain}, core.Span{}, deadline)
	if err != nil {
		return err
	}
	ackRec, err := d.utilitySess.Seal(ack.Data)
	if err != nil {
		return err
	}
	if err := d.utilityEP.Send("meter", ackRec); err != nil {
		return err
	}
	dg, ok = d.meterEP.Recv()
	if !ok {
		return fmt.Errorf("send reading: ack lost in transit")
	}
	ackPlain, err := d.meterSess.Open(dg.Payload)
	if err != nil {
		return err
	}
	_, err = d.Appliance.DeliverDeadline("meter", core.Message{Op: "billing-update", Data: ackPlain}, core.Span{}, deadline)
	return err
}

// BillingTotal asks the enclave for the per-customer total (the utility's
// billing path — allowed, because billing is the agreed purpose).
func (d *Deployment) BillingTotal() (int, error) {
	reply, err := d.Server.Deliver("anonymizer", core.Message{Op: "billing", Data: []byte(d.opts.CustomerID)})
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(string(reply.Data))
}

// DatabaseContents dumps the untrusted long-term store — what the curious
// operator (or anyone who subpoenas the database) gets to see.
func (d *Deployment) DatabaseContents() (string, error) {
	reply, err := d.Server.Deliver("database", core.Message{Op: "dump"})
	if err != nil {
		return "", err
	}
	return string(reply.Data), nil
}

// ShowBillingOnAndroid drives the paper's password-less UI flow: the
// Android UI displays billing state it gets from the meter component —
// no credential ever passes through the legacy stack.
func (d *Deployment) ShowBillingOnAndroid() (string, error) {
	reply, err := d.Appliance.Deliver("android", core.Message{Op: "show-billing"})
	if err != nil {
		return "", err
	}
	return string(reply.Data), nil
}
