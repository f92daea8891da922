package experiments

import (
	"crypto/ed25519"
	"fmt"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/kernel"
	"lateral/internal/netsim"
	"lateral/internal/sgx"
)

// e17Vault is the relocatable storage component of E17.
type e17Vault struct {
	doc []byte
}

func (v *e17Vault) CompName() string     { return "vault" }
func (v *e17Vault) CompVersion() string  { return "1.0" }
func (v *e17Vault) Init(*core.Ctx) error { return nil }

func (v *e17Vault) Handle(env core.Envelope) (core.Message, error) {
	switch env.Msg.Op {
	case "put":
		v.doc = append([]byte(nil), env.Msg.Data...)
		return core.Message{Op: "ok"}, nil
	case "get":
		return core.Message{Op: "doc", Data: v.doc}, nil
	default:
		return core.Message{}, core.ErrRefused
	}
}

// e17Client calls the vault through its granted channel, oblivious to
// whether the vault is local or an enclave across the network.
type e17Client struct {
	ctx *core.Ctx
}

func (c *e17Client) CompName() string         { return "client" }
func (c *e17Client) CompVersion() string      { return "1.0" }
func (c *e17Client) Init(ctx *core.Ctx) error { c.ctx = ctx; return nil }

func (c *e17Client) Handle(env core.Envelope) (core.Message, error) {
	return c.ctx.Call("vault", env.Msg)
}

// DistributedDemo is the laptop+cloud deployment of E17, exposed so
// tooling (lateralctl trace distributed) can instrument both systems and
// drive the client.
type DistributedDemo struct {
	// Laptop hosts the client and the vault stub.
	Laptop *core.System
	// Cloud hosts the real vault behind the attested exporter.
	Cloud *core.System
	// Stub is the laptop-side proxy; Connect before delivering.
	Stub *distributed.Stub
	// Wire records every datagram the adversary saw.
	Wire *netsim.Recorder
	// Net is the simulated network between the machines.
	Net *netsim.Network
}

// BuildDistributedDemo constructs the honest-cloud E17 deployment.
func BuildDistributedDemo() (*DistributedDemo, error) {
	laptop, cloud, stub, rec, net, err := e17Remote(false)
	if err != nil {
		return nil, err
	}
	return &DistributedDemo{Laptop: laptop, Cloud: cloud, Stub: stub, Wire: rec, Net: net}, nil
}

// e17Remote wires a client system to a cloud-hosted vault and returns both
// systems plus the wire recorder.
func e17Remote(tampered bool) (*core.System, *core.System, *distributed.Stub, *netsim.Recorder, *netsim.Network, error) {
	net := netsim.New()
	rec := &netsim.Recorder{}
	net.SetAdversary(rec)
	vendor := cryptoutil.NewSigner("intel")
	cloudCPU, err := sgx.New(sgx.Config{DeviceSeed: "e17-cloud", Vendor: vendor})
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	cloud := core.NewSystem(cloudCPU)
	var remote core.Component = &e17Vault{}
	if tampered {
		remote = &e17TamperedVault{}
	}
	if err := cloud.Launch(remote, true, 1); err != nil {
		return nil, nil, nil, nil, nil, err
	}
	if err := cloud.InitAll(); err != nil {
		return nil, nil, nil, nil, nil, err
	}
	exporter, err := distributed.NewExporter(distributed.ExportConfig{
		System:    cloud,
		Component: "vault",
		Endpoint:  net.Attach("cloud"),
		Identity:  cryptoutil.NewSigner("cloud-tls"),
		Rand:      cryptoutil.NewPRNG("e17-cloud"),
	})
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	audited := cryptoutil.Hash(core.DomainImage(&e17Vault{}))
	stub, err := distributed.NewStub(distributed.StubConfig{
		RemoteName:     "vault",
		RemoteEndpoint: "cloud",
		Endpoint:       net.Attach("laptop"),
		Rand:           cryptoutil.NewPRNG("e17-laptop"),
		VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
			return core.VerifyEvidence(evidence, tr[:], vendor.Public(), audited)
		},
		Pump: exporter.Serve,
	})
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	laptop := core.NewSystem(kernel.New(kernel.Config{}))
	if err := laptop.Launch(&e17Client{}, false, 1); err != nil {
		return nil, nil, nil, nil, nil, err
	}
	if err := laptop.Launch(stub, false, 1); err != nil {
		return nil, nil, nil, nil, nil, err
	}
	if err := laptop.Grant(core.ChannelSpec{Name: "vault", From: "client", To: "vault", Badge: 1}); err != nil {
		return nil, nil, nil, nil, nil, err
	}
	if err := laptop.InitAll(); err != nil {
		return nil, nil, nil, nil, nil, err
	}
	return laptop, cloud, stub, rec, net, nil
}

type e17TamperedVault struct{ e17Vault }

func (t *e17TamperedVault) CompVersion() string { return "1.0-evil" }

// E17Distributed validates the §III-D extension: "aggregates of
// individually reusable components that can even form distributed
// confidence domains across machine boundaries." The SAME client and the
// SAME vault run (a) colocated on one microkernel, (b) split across
// machines with the vault in a cloud enclave, and (c) against a tampered
// cloud build, which must be refused.
func E17Distributed() (Table, error) {
	t := Table{
		ID:     "E17",
		Title:  "distributed confidence domains",
		Anchor: "§III-D distributed aggregates; §II-B enclave-in-the-cloud",
		Header: []string{"deployment", "round-trip", "wire-leak"},
	}
	secret := []byte("E17-ROUNDTRIP-DOC")

	// (a) Local: both components on one microkernel.
	local := core.NewSystem(kernel.New(kernel.Config{}))
	if err := local.Launch(&e17Client{}, false, 1); err != nil {
		return t, err
	}
	if err := local.Launch(&e17Vault{}, false, 1); err != nil {
		return t, err
	}
	if err := local.Grant(core.ChannelSpec{Name: "vault", From: "client", To: "vault", Badge: 1}); err != nil {
		return t, err
	}
	if err := local.InitAll(); err != nil {
		return t, err
	}
	if _, err := local.Deliver("client", core.Message{Op: "put", Data: secret}); err != nil {
		return t, err
	}
	reply, err := local.Deliver("client", core.Message{Op: "get"})
	ok := err == nil && string(reply.Data) == string(secret)
	t.AddRow("local (same microkernel)", boolCell(ok), "n/a")
	t.Check("local (same microkernel) round-trips", ok, "round-trip="+boolCell(ok))

	// (b) Remote: vault in a cloud enclave, attested channel.
	laptop, _, stub, rec, _, err := e17Remote(false)
	if err != nil {
		return t, err
	}
	if err := stub.Connect(); err != nil {
		return t, err
	}
	if _, err := laptop.Deliver("client", core.Message{Op: "put", Data: secret}); err != nil {
		return t, err
	}
	reply, err = laptop.Deliver("client", core.Message{Op: "get"})
	ok = err == nil && string(reply.Data) == string(secret)
	leak := rec.Saw(secret)
	t.AddRow("remote (cloud SGX enclave)", boolCell(ok), boolCell(leak))
	t.Check("remote (cloud SGX enclave) round-trips, nothing on the wire", ok && !leak,
		fmt.Sprintf("round-trip=%s, wire-leak=%s", boolCell(ok), boolCell(leak)))

	// (c) Tampered cloud build: connect must fail.
	_, _, stub2, _, _, err := e17Remote(true)
	if err != nil {
		return t, err
	}
	cerr := stub2.Connect()
	t.AddRow("remote, tampered vault build", "refused", "n/a")
	t.Check("remote, tampered vault build is refused", cerr != nil, "refused="+boolCell(cerr != nil))
	t.Notes = append(t.Notes,
		fmt.Sprintf("client and vault code identical in all rows (%d-byte doc)", len(secret)))
	return t, nil
}
