package experiments

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/journal"
	"lateral/internal/kernel"
	"lateral/internal/netsim"
	"lateral/internal/policy"
	"lateral/internal/sgx"
)

// E25 components: a deliberately unscrupulous app that reads identifying
// data and then tries to push it out, the vault holding that data, and a
// sink modeling the network boundary. Every step the app takes is
// individually permitted — the mosaic (read ids, THEN egress) is what the
// chain-aware policy must refuse, because no single component is in a
// position to.

type e25App struct{ ctx *core.Ctx }

func (a *e25App) CompName() string         { return "app" }
func (a *e25App) CompVersion() string      { return "1.0" }
func (a *e25App) Init(ctx *core.Ctx) error { a.ctx = ctx; return nil }

func (a *e25App) Handle(env core.Envelope) (core.Message, error) {
	switch env.Msg.Op {
	case "send": // untainted egress: allowed
		return a.ctx.Call("to-net", core.Message{Op: "send", Data: env.Msg.Data})
	case "exfil": // mosaic: taint, then egress — must be denied
		if _, err := a.ctx.Call("vault", core.Message{Op: "ids"}); err != nil {
			return core.Message{}, err
		}
		return a.ctx.Call("to-net", core.Message{Op: "send", Data: env.Msg.Data})
	case "export": // sanctioned tainted egress: requires approval
		if _, err := a.ctx.Call("vault", core.Message{Op: "ids"}); err != nil {
			return core.Message{}, err
		}
		return a.ctx.Call("to-export", core.Message{Op: "send", Data: env.Msg.Data})
	default:
		return core.Message{}, core.ErrRefused
	}
}

type e25Vault struct{}

func (e25Vault) CompName() string     { return "vault" }
func (e25Vault) CompVersion() string  { return "1.0" }
func (e25Vault) Init(*core.Ctx) error { return nil }
func (e25Vault) Handle(env core.Envelope) (core.Message, error) {
	if env.Msg.Op != "ids" {
		return core.Message{}, core.ErrRefused
	}
	return core.Message{Op: "ok", Data: []byte("meter-identities")}, nil
}

type e25Sink struct{ sent int }

func (s *e25Sink) CompName() string     { return "net" }
func (s *e25Sink) CompVersion() string  { return "1.0" }
func (s *e25Sink) Init(*core.Ctx) error { return nil }
func (s *e25Sink) Handle(env core.Envelope) (core.Message, error) {
	if env.Msg.Op != "send" {
		return core.Message{}, core.ErrRefused
	}
	s.sent++
	return core.Message{Op: "sent"}, nil
}

const e25PolicyText = `# mosaic rule: ids taint the chain, tainted chains may not egress
taint vault ids meter-identities
deny no-exfil to-net * when meter-identities
approve ops-export to-export * when meter-identities
allow rest * *
`

// E25Policy validates chain-aware runtime policy enforcement: the
// confused-deputy/mosaic gap the paper's decomposition argument leaves
// open. Capabilities decide whether a component may EVER invoke a channel;
// they cannot express "not after what this chain already touched". The
// policy engine closes that: taint accumulated along the invocation chain
// (and carried across the wire) feeds declarative deny/approve rules
// enforced by the system before any handler runs. The rows prove the four
// claims: an untainted workload is unaffected, the local mosaic is denied
// and journaled (replayable by an auditor), the same taint is enforced at
// a remote machine's deliver boundary, and approval grants decay on TTL so
// a sanctioned export must be re-approved once its grant expires.
func E25Policy() (Table, error) {
	t := Table{
		ID:     "E25",
		Title:  "chain-aware policy: mosaic exfiltration denied",
		Anchor: "§II least privilege beyond capabilities; §V trustworthy operation over time",
		Header: []string{"scenario", "outcome", "denies"},
	}

	// --- local machine: app/vault/sink under one policy engine ---------
	signer := cryptoutil.NewSigner("e25-auditor")
	counter := &journal.MemCounter{}
	jnl, err := journal.New(journal.Config{Name: "meter", Signer: signer, Counter: counter, CheckpointEvery: 8})
	if err != nil {
		return t, err
	}
	rules, err := policy.Decode([]byte(e25PolicyText))
	if err != nil {
		return t, err
	}
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	approvals := 0
	eng, err := policy.New(policy.Config{
		Name:     "meter",
		Rules:    rules,
		Approver: policy.ApproverFunc(func(string, core.PolicyRequest) bool { approvals++; return true }),
		GrantTTL: time.Minute,
		Clock:    clock,
		Recorder: jnl,
	})
	if err != nil {
		return t, err
	}
	sub, err := sgx.New(sgx.Config{DeviceSeed: "e25-meter", Vendor: cryptoutil.NewSigner("cpu-vendor")})
	if err != nil {
		return t, err
	}
	sys := core.NewSystem(sub)
	sys.SetEventRecorder(jnl)
	sys.SetPolicy(eng)
	sink := &e25Sink{}
	for _, c := range []core.Component{&e25App{}, e25Vault{}, sink} {
		if err := sys.Launch(c, true, 1); err != nil {
			return t, err
		}
	}
	for _, ch := range []core.ChannelSpec{
		{Name: "vault", From: "app", To: "vault", Badge: 1},
		{Name: "to-net", From: "app", To: "net", Badge: 2},
		{Name: "to-export", From: "app", To: "net", Badge: 3},
	} {
		if err := sys.Grant(ch); err != nil {
			return t, err
		}
	}
	if err := sys.InitAll(); err != nil {
		return t, err
	}

	// Row 1: the untainted workload is unaffected by the installed policy.
	var okSends int
	for i := 0; i < 10; i++ {
		if _, err := sys.Deliver("app", core.Message{Op: "send", Data: []byte("telemetry")}); err == nil {
			okSends++
		}
	}
	t.AddRow("untainted egress ×10", fmt.Sprintf("%d ok", okSends), sys.Stats().PolicyDenies)
	t.Check("untainted egress ×10", okSends == 10 && sys.Stats().PolicyDenies == 0, "want 10 ok, no deny")

	// Row 2: the mosaic — read ids, then egress — is denied before the sink
	// runs, and the deny lands in the journal.
	sentBefore := sink.sent
	_, exfilErr := sys.Deliver("app", core.Message{Op: "exfil", Data: []byte("ids")})
	denies := sys.Stats().PolicyDenies
	deniedEntries := 0
	for _, e := range jnl.Entries() {
		if e.Kind == journal.KindPolicyDeny {
			deniedEntries++
		}
	}
	mosaicOK := errors.Is(exfilErr, core.ErrPolicy) && sink.sent == sentBefore &&
		denies == 1 && deniedEntries == 1
	t.AddRow("mosaic exfil (ids→net)", outcomeCell(exfilErr), denies)
	t.Check("mosaic exfil (ids→net)", mosaicOK,
		fmt.Sprintf("want one policy deny before the sink runs, journaled once (%d journaled)", deniedEntries))

	// Row 3: sanctioned export needs approval; the grant covers repeats
	// until its TTL decays, then the next export must re-approve.
	if _, err := sys.Deliver("app", core.Message{Op: "export", Data: []byte("report")}); err != nil {
		return t, fmt.Errorf("e25: first export: %w", err)
	}
	if _, err := sys.Deliver("app", core.Message{Op: "export", Data: []byte("report")}); err != nil {
		return t, fmt.Errorf("e25: export under live grant: %w", err)
	}
	reused := approvals == 1
	now = now.Add(2 * time.Minute) // grant decays
	if _, err := sys.Deliver("app", core.Message{Op: "export", Data: []byte("report")}); err != nil {
		return t, fmt.Errorf("e25: export after decay: %w", err)
	}
	t.AddRow("approved export, TTL decay", fmt.Sprintf("%d approvals/3 exports", approvals),
		sys.Stats().PolicyDenies)
	t.Check("approved export, TTL decay", reused && approvals == 2,
		"want the first grant reused once, then re-approved after decay")

	// Row 4: the taint crosses the wire — a remote machine's own policy
	// denies the tainted ingress at its deliver boundary.
	wire, err := e25Wire()
	if err != nil {
		return t, err
	}
	t.AddRow("tainted ingress at remote boundary", outcomeCell(wire.tainted)+" on wire", wire.denies)
	t.Check("tainted ingress at remote boundary",
		errors.Is(wire.tainted, core.ErrPolicy) && wire.denies == 1 && wire.sent == 1,
		fmt.Sprintf("want the remote machine's own policy to deny it once, the untainted send landing (%d landed)", wire.sent))

	// Row 5: an auditor holding only the export replays the denies.
	if err := jnl.Checkpoint(); err != nil {
		return t, err
	}
	trusted, _ := counter.Value()
	_, replayErr := journal.Replay(jnl.Export(), signer.Public(), trusted)
	t.AddRow("auditor replay of deny journal", fmt.Sprintf("%d policy entries", deniedEntries+2), denies)
	t.Check("auditor replay of deny journal", replayErr == nil, "want a clean replay from the export alone")

	t.Notes = append(t.Notes,
		"policy (decoded from its canonical text form): taint vault/ids; deny to-net when tainted; approve to-export when tainted",
		"denies happen BEFORE the egress handler runs: the sink's counter never moves on a denied chain",
		fmt.Sprintf("approval grants are capabilities minted with a %s TTL on the engine's clock; decay fails closed", time.Minute),
		"wire row: client machine taints its chain locally, the SGX machine's own engine refuses the ingress (statusPolicy on the wire)",
	)
	return t, nil
}

// e25WireRun is what e25Wire measured: the tainted send's error, the
// remote machine's policy deny count, and the sends that reached its sink.
type e25WireRun struct {
	tainted error
	denies  int64
	sent    int
}

// e25Wire proves cross-machine enforcement: a client whose chain is
// tainted locally calls a remote store; the taint rides the request frame
// and the REMOTE machine's policy denies it at the deliver boundary. The
// untainted path on the same session keeps working.
func e25Wire() (e25WireRun, error) {
	net := netsim.New()
	vendor := cryptoutil.NewSigner("intel")

	// Cloud machine: SGX store enclave, policy denies tainted ingress.
	cloudRules, err := policy.Decode([]byte(
		"deny no-ingress @deliver * when meter-identities\nallow rest * *\n"))
	if err != nil {
		return e25WireRun{}, err
	}
	cloudEng, err := policy.New(policy.Config{Name: "cloud", Rules: cloudRules})
	if err != nil {
		return e25WireRun{}, err
	}
	sub, err := sgx.New(sgx.Config{DeviceSeed: "e25-cloud", Vendor: vendor})
	if err != nil {
		return e25WireRun{}, err
	}
	cloudSys := core.NewSystem(sub)
	cloudSys.SetPolicy(cloudEng)
	store := &e25Sink{}
	if err := cloudSys.Launch(store, true, 1); err != nil {
		return e25WireRun{}, err
	}
	if err := cloudSys.InitAll(); err != nil {
		return e25WireRun{}, err
	}
	meas := cryptoutil.Hash(core.DomainImage(&e25Sink{}))
	exporter, err := distributed.NewExporter(distributed.ExportConfig{
		System:    cloudSys,
		Component: "net",
		Endpoint:  net.Attach("cloud"),
		Identity:  cryptoutil.NewSigner("cloud-tls"),
		Rand:      cryptoutil.NewPRNG("e25-cloud-hs"),
	})
	if err != nil {
		return e25WireRun{}, err
	}

	// Client machine: microkernel, its own policy taints the chain when the
	// app reads the local vault; the stub exports the remote sink as "net".
	clientRules, err := policy.Decode([]byte(
		"taint vault ids meter-identities\nallow rest * *\n"))
	if err != nil {
		return e25WireRun{}, err
	}
	clientEng, err := policy.New(policy.Config{Name: "client", Rules: clientRules})
	if err != nil {
		return e25WireRun{}, err
	}
	clientSys := core.NewSystem(kernel.New(kernel.Config{}))
	clientSys.SetPolicy(clientEng)
	stub, err := distributed.NewStub(distributed.StubConfig{
		RemoteName:     "net",
		RemoteEndpoint: "cloud",
		Endpoint:       net.Attach("meter"),
		Rand:           cryptoutil.NewPRNG("e25-client-hs"),
		VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
			return core.VerifyEvidence(evidence, tr[:], vendor.Public(), meas)
		},
		Pump: exporter.Serve,
	})
	if err != nil {
		return e25WireRun{}, err
	}
	if err := clientSys.Launch(&e25App{}, false, 1); err != nil {
		return e25WireRun{}, err
	}
	if err := clientSys.Launch(e25Vault{}, false, 1); err != nil {
		return e25WireRun{}, err
	}
	if err := clientSys.Launch(stub, false, 1); err != nil {
		return e25WireRun{}, err
	}
	for _, ch := range []core.ChannelSpec{
		{Name: "vault", From: "app", To: "vault", Badge: 1},
		{Name: "to-net", From: "app", To: "net", Badge: 2},
	} {
		if err := clientSys.Grant(ch); err != nil {
			return e25WireRun{}, err
		}
	}
	if err := clientSys.InitAll(); err != nil {
		return e25WireRun{}, err
	}
	if err := stub.Connect(); err != nil {
		return e25WireRun{}, err
	}

	// Untainted send crosses the wire and lands.
	if _, err := clientSys.Deliver("app", core.Message{Op: "send", Data: []byte("ok")}); err != nil {
		return e25WireRun{}, fmt.Errorf("e25: untainted remote send: %w", err)
	}
	// Tainted send: denied by the CLOUD's policy, rehydrated as ErrPolicy.
	_, tainted := clientSys.Deliver("app", core.Message{Op: "exfil", Data: []byte("ids")})
	return e25WireRun{tainted: tainted, denies: cloudSys.Stats().PolicyDenies, sent: store.sent}, nil
}

// outcomeCell renders an error's class as a stable table cell.
func outcomeCell(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrPolicy):
		return "denied"
	case errors.Is(err, core.ErrOverloaded):
		return "overloaded"
	default:
		return "failed"
	}
}
