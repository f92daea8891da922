// Cloudstore: distributed confidence domains (§III-D). A mail client on a
// laptop keeps its archive in a storage component that runs inside an SGX
// enclave on a rented cloud server — the §II-B scenario where "the data
// center customer needs to trust only the Intel CPU, but not the operating
// system nor any other software outside of his enclave."
//
// The storage component is the SAME code that would run locally; only the
// manifest placement changes. The laptop pins the audited build's
// measurement: a cloud provider silently swapping the binary is refused at
// connection time.
//
//	go run ./examples/cloudstore
package main

import (
	"crypto/ed25519"
	"fmt"
	"log"
	"strings"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/kernel"
	"lateral/internal/netsim"
	"lateral/internal/sgx"
)

// vaultComp is the storage service: a tiny key-value vault.
type vaultComp struct {
	docs map[string][]byte
}

func (v *vaultComp) CompName() string    { return "vault" }
func (v *vaultComp) CompVersion() string { return "1.0" }
func (v *vaultComp) Init(*core.Ctx) error {
	v.docs = make(map[string][]byte)
	return nil
}

func (v *vaultComp) Handle(env core.Envelope) (core.Message, error) {
	switch env.Msg.Op {
	case "put":
		kv := strings.SplitN(string(env.Msg.Data), "=", 2)
		if len(kv) != 2 {
			return core.Message{}, core.ErrRefused
		}
		v.docs[kv[0]] = []byte(kv[1])
		return core.Message{Op: "ok"}, nil
	case "get":
		doc, ok := v.docs[string(env.Msg.Data)]
		if !ok {
			return core.Message{}, core.ErrRefused
		}
		return core.Message{Op: "doc", Data: doc}, nil
	default:
		return core.Message{}, core.ErrRefused
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net := netsim.New()
	eavesdropper := &netsim.Recorder{}
	net.SetAdversary(eavesdropper)
	intel := cryptoutil.NewSigner("intel")

	// --- cloud side: the vault in an enclave on a rented server ---
	cloudCPU, err := sgx.New(sgx.Config{DeviceSeed: "rented-server", Vendor: intel})
	if err != nil {
		return err
	}
	cloud := core.NewSystem(cloudCPU)
	if err := cloud.Launch(&vaultComp{}, true, 1); err != nil {
		return err
	}
	if err := cloud.InitAll(); err != nil {
		return err
	}
	exporter, err := distributed.NewExporter(distributed.ExportConfig{
		System:    cloud,
		Component: "vault",
		Endpoint:  net.Attach("cloud"),
		Identity:  cryptoutil.NewSigner("cloud-tls"),
		Rand:      cryptoutil.NewPRNG("cloud"),
	})
	if err != nil {
		return err
	}

	// --- laptop side: the stub stands in for the vault ---
	auditedMeasurement := cryptoutil.Hash(core.DomainImage(&vaultComp{}))
	stub, err := distributed.NewStub(distributed.StubConfig{
		RemoteName:     "vault",
		RemoteEndpoint: "cloud",
		Endpoint:       net.Attach("laptop"),
		Rand:           cryptoutil.NewPRNG("laptop"),
		VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
			return core.VerifyEvidence(evidence, tr[:], intel.Public(), auditedMeasurement)
		},
		Pump: exporter.Serve,
	})
	if err != nil {
		return err
	}
	laptop := core.NewSystem(kernel.New(kernel.Config{}))
	if err := laptop.Launch(stub, false, 1); err != nil {
		return err
	}
	if err := laptop.InitAll(); err != nil {
		return err
	}
	if err := stub.Connect(); err != nil {
		return fmt.Errorf("attested connect: %w", err)
	}
	fmt.Println("connected: laptop verified the enclave's quote against the audited build")

	secret := "the merger closes friday"
	if _, err := laptop.Deliver("vault", core.Message{Op: "put", Data: []byte("memo=" + secret)}); err != nil {
		return err
	}
	reply, err := laptop.Deliver("vault", core.Message{Op: "get", Data: []byte("memo")})
	if err != nil {
		return err
	}
	fmt.Printf("round trip through the cloud enclave: %q\n", reply.Data)
	fmt.Printf("cloud operator's wire tap saw the memo: %v\n", eavesdropper.Saw([]byte(secret)))
	return nil
}
