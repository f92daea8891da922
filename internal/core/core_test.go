package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"lateral/internal/cryptoutil"
)

// echoComp replies with its own name and the received payload.
type echoComp struct {
	name string
	ctx  *Ctx
}

func (e *echoComp) CompName() string    { return e.name }
func (e *echoComp) CompVersion() string { return "1.0" }
func (e *echoComp) Init(ctx *Ctx) error { e.ctx = ctx; return nil }
func (e *echoComp) Handle(env Envelope) (Message, error) {
	return Message{Op: "echo", Data: append([]byte(e.name+":"), env.Msg.Data...)}, nil
}

// keeperComp stores a secret asset at Init and serves it only on channel-
// identified requests from "alice".
type keeperComp struct {
	secret []byte
}

func (k *keeperComp) CompName() string    { return "keeper" }
func (k *keeperComp) CompVersion() string { return "1.0" }
func (k *keeperComp) Init(ctx *Ctx) error {
	return ctx.StoreAsset("secret", k.secret)
}
func (k *keeperComp) Handle(env Envelope) (Message, error) {
	if env.From != "alice" {
		return Message{}, ErrRefused
	}
	return Message{Op: "ok", Data: k.secret}, nil
}

// evilComp is Subvertible: when compromised it tries every channel it has.
type evilComp struct {
	name string
	ctx  *Ctx
}

func (e *evilComp) CompName() string    { return e.name }
func (e *evilComp) CompVersion() string { return "1.0" }
func (e *evilComp) Init(ctx *Ctx) error { e.ctx = ctx; return nil }
func (e *evilComp) Handle(env Envelope) (Message, error) {
	return Message{Op: "benign"}, nil
}
func (e *evilComp) HandleCompromised(env Envelope) (Message, error) {
	for _, ch := range e.ctx.Channels() {
		_, _ = e.ctx.Call(ch, Message{Op: "steal"})
	}
	return Message{Op: "pwned"}, nil
}

// callerComp forwards any request on a configured channel.
type callerComp struct {
	name    string
	channel string
	ctx     *Ctx
}

func (c *callerComp) CompName() string    { return c.name }
func (c *callerComp) CompVersion() string { return "1.0" }
func (c *callerComp) Init(ctx *Ctx) error { c.ctx = ctx; return nil }
func (c *callerComp) Handle(env Envelope) (Message, error) {
	return c.ctx.Call(c.channel, env.Msg)
}

// transcript is a minimal Observer.
type transcript struct {
	data []byte
}

func (t *transcript) Observe(_ string, data []byte) {
	t.data = append(t.data, data...)
	t.data = append(t.data, 0)
}

func (t *transcript) saw(b []byte) bool { return bytes.Contains(t.data, b) }

func newTestSystem(t *testing.T) *System {
	t.Helper()
	return NewSystem(NewMonolith(0))
}

func TestLaunchGrantCall(t *testing.T) {
	sys := newTestSystem(t)
	a := &callerComp{name: "a", channel: "to-b"}
	b := &echoComp{name: "b"}
	if err := sys.Launch(a, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Launch(b, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Grant(ChannelSpec{Name: "to-b", From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	reply, err := sys.Deliver("a", Message{Op: "go", Data: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Data) != "b:hi" {
		t.Errorf("reply = %q", reply.Data)
	}
	st := sys.Stats()
	if st.Invocations != 2 {
		t.Errorf("invocations = %d, want 2 (deliver + call)", st.Invocations)
	}
	if st.VirtualNs != 2*sys.Properties().InvokeCostNs {
		t.Errorf("virtual ns = %d", st.VirtualNs)
	}
}

func TestUngrantedChannelBlocked(t *testing.T) {
	sys := newTestSystem(t)
	a := &callerComp{name: "a", channel: "nope"}
	b := &echoComp{name: "b"}
	for _, c := range []Component{a, b} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	_, err := sys.Deliver("a", Message{Op: "go"})
	if !errors.Is(err, ErrNoChannel) {
		t.Errorf("ungranted call: got %v, want ErrNoChannel", err)
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Launch(&echoComp{name: "x"}, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Launch(&echoComp{name: "x"}, false, 1); !errors.Is(err, ErrDomainExists) {
		t.Errorf("duplicate launch: got %v", err)
	}
	if err := sys.Grant(ChannelSpec{Name: "c", From: "x", To: "ghost"}); !errors.Is(err, ErrNoDomain) {
		t.Errorf("grant to missing: got %v", err)
	}
	if err := sys.Grant(ChannelSpec{Name: "c", From: "ghost", To: "x"}); !errors.Is(err, ErrNoDomain) {
		t.Errorf("grant from missing: got %v", err)
	}
}

func TestBadgeEstablishesSenderIdentity(t *testing.T) {
	sys := newTestSystem(t)
	alice := &callerComp{name: "alice", channel: "k"}
	mallory := &callerComp{name: "mallory", channel: "k"}
	keeper := &keeperComp{secret: []byte("s3cr3t")}
	for _, c := range []Component{alice, mallory, keeper} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Grant(ChannelSpec{Name: "k", From: "alice", To: "keeper", Badge: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Grant(ChannelSpec{Name: "k", From: "mallory", To: "keeper", Badge: 2}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	reply, err := sys.Deliver("alice", Message{Op: "get"})
	if err != nil {
		t.Fatalf("alice via badge channel: %v", err)
	}
	if string(reply.Data) != "s3cr3t" {
		t.Errorf("alice got %q", reply.Data)
	}
	// Mallory's channel identifies mallory; claiming to be alice in the
	// payload does not help.
	if _, err := sys.Deliver("mallory", Message{Op: "get", Data: []byte("i-am-alice")}); !errors.Is(err, ErrRefused) {
		t.Errorf("mallory: got %v, want ErrRefused", err)
	}
}

func TestAmbientChannelHasNoIdentity(t *testing.T) {
	sys := newTestSystem(t)
	alice := &callerComp{name: "alice", channel: "k"}
	keeper := &keeperComp{secret: []byte("x")}
	for _, c := range []Component{alice, keeper} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Grant(ChannelSpec{Name: "k", From: "alice", To: "keeper"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	// Even the legitimate caller is anonymous on an ambient channel.
	if _, err := sys.Deliver("alice", Message{Op: "get"}); !errors.Is(err, ErrRefused) {
		t.Errorf("ambient call: got %v, want ErrRefused", err)
	}
}

func TestMonolithCompromiseLeaksEverything(t *testing.T) {
	sys := newTestSystem(t)
	obs := &transcript{}
	sys.SetObserver(obs)
	victim := &keeperComp{secret: []byte("THE-CROWN-JEWELS")}
	patsy := &evilComp{name: "patsy"}
	if err := sys.Launch(victim, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Launch(patsy, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	if obs.saw([]byte("THE-CROWN-JEWELS")) {
		t.Fatal("secret visible before compromise")
	}
	// Compromising an unrelated component on the monolith exposes the
	// keeper's asset: no walls inside one process.
	if err := sys.Compromise("patsy"); err != nil {
		t.Fatal(err)
	}
	if !obs.saw([]byte("THE-CROWN-JEWELS")) {
		t.Error("monolith compromise did not leak colocated asset")
	}
	if !sys.IsCompromised("patsy") {
		t.Error("IsCompromised false after compromise")
	}
	if sys.IsCompromised("keeper") {
		t.Error("separate monolith domain marked compromised (only memory leaks, not control)")
	}
}

func TestColocationSharesFate(t *testing.T) {
	sys := newTestSystem(t)
	obs := &transcript{}
	sys.SetObserver(obs)
	k := &keeperComp{secret: []byte("COLOC-SECRET")}
	e := &evilComp{name: "renderer"}
	if err := sys.Colocate("app", false, 1, k, e); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Compromise("renderer"); err != nil {
		t.Fatal(err)
	}
	if !sys.IsCompromised("keeper") {
		t.Error("colocated component did not share compromise fate")
	}
	if !obs.saw([]byte("COLOC-SECRET")) {
		t.Error("colocated asset not leaked")
	}
	d1, _ := sys.DomainOf("keeper")
	d2, _ := sys.DomainOf("renderer")
	if d1 != "app" || d2 != "app" {
		t.Errorf("domains = %q, %q, want app", d1, d2)
	}
}

func TestCompromisedBehaviorAndTrafficObserved(t *testing.T) {
	sys := newTestSystem(t)
	obs := &transcript{}
	sys.SetObserver(obs)
	e := &evilComp{name: "bot"}
	b := &echoComp{name: "sink"}
	if err := sys.Launch(e, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Launch(b, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Grant(ChannelSpec{Name: "out", From: "bot", To: "sink"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	reply, err := sys.Deliver("bot", Message{Op: "ping"})
	if err != nil || reply.Op != "benign" {
		t.Fatalf("pre-compromise: %v %v", reply, err)
	}
	if err := sys.Compromise("bot"); err != nil {
		t.Fatal(err)
	}
	reply, err = sys.Deliver("bot", Message{Op: "ping", Data: []byte("visible-to-adversary")})
	if err != nil || reply.Op != "pwned" {
		t.Fatalf("post-compromise: %v %v", reply, err)
	}
	if !obs.saw([]byte("visible-to-adversary")) {
		t.Error("adversary did not observe message into compromised domain")
	}
	// The evil payload used its granted channel; sink's reply was observed.
	if !obs.saw([]byte("sink:")) {
		t.Error("adversary did not observe replies to its own calls")
	}
}

func TestAssetsRoundTripAndExhaustion(t *testing.T) {
	sys := newTestSystem(t)
	e := &echoComp{name: "c"}
	if err := sys.Launch(e, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	ctx, err := sys.CtxOf("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.StoreAsset("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := ctx.LoadAsset("k")
	if err != nil || string(got) != "v1" {
		t.Fatalf("load = %q, %v", got, err)
	}
	// Overwrite in place (same or smaller size reuses the slot).
	if err := ctx.StoreAsset("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ = ctx.LoadAsset("k")
	if string(got) != "v2" {
		t.Errorf("after overwrite = %q", got)
	}
	if _, err := ctx.LoadAsset("missing"); err == nil {
		t.Error("load of missing asset succeeded")
	}
	// Exhaust the single page.
	if err := ctx.StoreAsset("big", make([]byte, 5000)); err == nil {
		t.Error("oversized asset stored in one-page domain")
	}
	names := sys.AssetNames("c")
	if len(names) != 1 || names[0] != "k" {
		t.Errorf("asset names = %v", names)
	}
}

func TestCtxIntrospection(t *testing.T) {
	sys := newTestSystem(t)
	a := &callerComp{name: "a", channel: "x"}
	b := &echoComp{name: "b"}
	if err := sys.Launch(a, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Launch(b, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Grant(ChannelSpec{Name: "x", From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	ctx := a.ctx
	if ctx.Self() != "a" || ctx.DomainName() != "a" {
		t.Errorf("self/domain = %s/%s", ctx.Self(), ctx.DomainName())
	}
	if !ctx.HasChannel("x") || ctx.HasChannel("y") {
		t.Error("HasChannel wrong")
	}
	if chs := ctx.Channels(); len(chs) != 1 || chs[0] != "x" {
		t.Errorf("channels = %v", chs)
	}
	if ctx.Substrate().Substrate != "monolith" {
		t.Errorf("substrate = %q", ctx.Substrate().Substrate)
	}
	if _, err := ctx.Quote(nil); err == nil {
		t.Error("Quote on anchorless substrate succeeded")
	}
	if _, err := ctx.Seal(nil); err == nil {
		t.Error("Seal on anchorless substrate succeeded")
	}
	if _, err := ctx.Unseal(nil); err == nil {
		t.Error("Unseal on anchorless substrate succeeded")
	}
}

func TestQuoteSignVerify(t *testing.T) {
	vendor := cryptoutil.NewSigner("vendor")
	device := cryptoutil.NewSigner("device-1")
	cert := IssueVendorCert(vendor, device.Public())
	meas := cryptoutil.Hash([]byte("good-code"))
	nonce := []byte("fresh-nonce")
	q := SignQuote("tpm", meas, nonce, device, cert)

	if err := VerifyQuote(q, nonce, vendor.Public(), meas); err != nil {
		t.Errorf("valid quote rejected: %v", err)
	}
	var zero [32]byte
	if err := VerifyQuote(q, nonce, vendor.Public(), zero); err != nil {
		t.Errorf("measurement-agnostic verify failed: %v", err)
	}
	if err := VerifyQuote(q, []byte("stale"), vendor.Public(), meas); !errors.Is(err, ErrQuote) {
		t.Error("replayed nonce accepted")
	}
	if err := VerifyQuote(q, nonce, vendor.Public(), cryptoutil.Hash([]byte("other"))); !errors.Is(err, ErrQuote) {
		t.Error("wrong measurement accepted")
	}
	if err := VerifyQuote(q, nonce, cryptoutil.NewSigner("fake-vendor").Public(), meas); !errors.Is(err, ErrQuote) {
		t.Error("wrong vendor accepted")
	}
	// An imposter without the device key cannot forge.
	imposter := cryptoutil.NewSigner("imposter")
	forged := SignQuote("tpm", meas, nonce, imposter, IssueVendorCert(imposter, imposter.Public()))
	if err := VerifyQuote(forged, nonce, vendor.Public(), meas); !errors.Is(err, ErrQuote) {
		t.Error("forged quote accepted")
	}
	tampered := q
	tampered.Measurement = cryptoutil.Hash([]byte("evil-code"))
	if err := VerifyQuote(tampered, nonce, vendor.Public(), zero); !errors.Is(err, ErrQuote) {
		t.Error("tampered measurement accepted")
	}
}

func TestQuoteEncodeDecodeRoundTrip(t *testing.T) {
	vendor := cryptoutil.NewSigner("v")
	device := cryptoutil.NewSigner("d")
	q := SignQuote("sgx-qe", cryptoutil.Hash([]byte("c")), []byte("n"), device,
		IssueVendorCert(vendor, device.Public()))
	got, err := DecodeQuote(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(got, []byte("n"), vendor.Public(), q.Measurement); err != nil {
		t.Errorf("decoded quote invalid: %v", err)
	}
	if err := VerifyEvidence(q.Encode(), []byte("n"), vendor.Public(), q.Measurement); err != nil {
		t.Errorf("encoded quote refused as evidence: %v", err)
	}
	if err := VerifyEvidence(q.Encode()[:5], []byte("n"), vendor.Public(), q.Measurement); !errors.Is(err, ErrQuote) {
		t.Errorf("truncated evidence: %v, want ErrQuote", err)
	}
	if got.AnchorKind != "sgx-qe" {
		t.Errorf("kind = %q", got.AnchorKind)
	}
	if _, err := DecodeQuote([]byte{0}); err == nil {
		t.Error("truncated quote decoded")
	}
	if _, err := DecodeQuote([]byte{0, 5, 'a'}); err == nil {
		t.Error("short field decoded")
	}
}

// TestDecodeQuoteRefusesNonCanonical: only the bytes Encode produces for
// a SignQuote quote decode. A genuine quote with trailing bytes, or with a
// device key or signature of the wrong size, is refused with ErrQuote.
func TestDecodeQuoteRefusesNonCanonical(t *testing.T) {
	vendor := cryptoutil.NewSigner("v")
	device := cryptoutil.NewSigner("d")
	q := SignQuote("sgx-qe", cryptoutil.Hash([]byte("c")), []byte("n"), device,
		IssueVendorCert(vendor, device.Public()))
	shortKey, longSig := q, q
	shortKey.DevicePub = q.DevicePub[:len(q.DevicePub)-1]
	longSig.DeviceSig = append(append([]byte(nil), q.DeviceSig...), 0)
	for name, b := range map[string][]byte{
		"trailing bytes":   append(q.Encode(), 0, 0),
		"short device key": shortKey.Encode(),
		"long signature":   longSig.Encode(),
	} {
		if _, err := DecodeQuote(b); !errors.Is(err, ErrQuote) {
			t.Errorf("%s: DecodeQuote = %v, want ErrQuote", name, err)
		}
	}
}

func TestCodeOfDistinguishesVersions(t *testing.T) {
	a := CodeOf(&echoComp{name: "x"})
	b := CodeOf(&echoComp{name: "y"})
	if bytes.Equal(a, b) {
		t.Error("different components share code identity")
	}
}

func TestMonolithDomainBounds(t *testing.T) {
	m := NewMonolith(2 * 4096)
	d, err := m.CreateDomain(DomainSpec{Name: "d", Code: []byte("c")})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(4090, []byte("12345678")); err == nil {
		t.Error("out-of-domain write succeeded")
	}
	if _, err := d.Read(-1, 4); err == nil {
		t.Error("negative read succeeded")
	}
	if _, err := m.CreateDomain(DomainSpec{Name: "e", Code: nil, MemPages: 2}); err == nil {
		t.Error("arena over-allocation succeeded")
	}
	if err := d.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, []byte("x")); err == nil {
		t.Error("write to destroyed domain succeeded")
	}
}

func TestMessageCloneIndependence(t *testing.T) {
	m := Message{Op: "op", Data: []byte("abc")}
	c := m.Clone()
	c.Data[0] = 'X'
	if m.Data[0] == 'X' {
		t.Error("clone aliases original")
	}
}

// Property: quote encode/decode is the identity for arbitrary nonces.
func TestQuickQuoteRoundTrip(t *testing.T) {
	vendor := cryptoutil.NewSigner("qv")
	device := cryptoutil.NewSigner("qd")
	cert := IssueVendorCert(vendor, device.Public())
	f := func(nonce []byte, code []byte) bool {
		q := SignQuote("k", cryptoutil.Hash(code), nonce, device, cert)
		got, err := DecodeQuote(q.Encode())
		if err != nil {
			return false
		}
		return VerifyQuote(got, nonce, vendor.Public(), q.Measurement) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSystemIntrospectionHelpers(t *testing.T) {
	sub := NewMonolith(0)
	sys := NewSystem(sub)
	if sys.Substrate() != sub {
		t.Error("Substrate accessor wrong")
	}
	a := &echoComp{name: "a"}
	b := &echoComp{name: "b"}
	if err := sys.Launch(a, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Launch(b, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Grant(ChannelSpec{Name: "x", From: "a", To: "b", Badge: 5}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	comps := sys.Components()
	if len(comps) != 2 || comps[0] != "a" || comps[1] != "b" {
		t.Errorf("components = %v", comps)
	}
	h, err := sys.HandleOf("a")
	if err != nil || h.DomainName() != "a" {
		t.Errorf("handle = %v, %v", h, err)
	}
	if h.Measurement() == ([32]byte{}) {
		t.Error("zero measurement from monolith handle")
	}
	if _, err := sys.HandleOf("ghost"); !errors.Is(err, ErrNoDomain) {
		t.Errorf("handle of missing: %v", err)
	}
	if _, err := sys.CtxOf("ghost"); !errors.Is(err, ErrNoDomain) {
		t.Errorf("ctx of missing: %v", err)
	}
	if _, err := sys.DomainOf("ghost"); !errors.Is(err, ErrNoDomain) {
		t.Errorf("domain of missing: %v", err)
	}
	if sys.AssetNames("ghost") != nil {
		t.Error("asset names of missing component")
	}
	// Channel usage before and after invocations; ResetStats.
	usage := sys.ChannelUsage()
	if len(usage) != 1 || usage[0].Uses != 0 || usage[0].Badge != 5 {
		t.Errorf("usage = %+v", usage)
	}
	ctx, _ := sys.CtxOf("a")
	if _, err := ctx.Call("x", Message{Op: "hi"}); err != nil {
		t.Fatal(err)
	}
	usage = sys.ChannelUsage()
	if usage[0].Uses != 1 {
		t.Errorf("uses = %d", usage[0].Uses)
	}
	if sys.Stats().Invocations == 0 {
		t.Error("stats not counted")
	}
	sys.ResetStats()
	if sys.Stats().Invocations != 0 {
		t.Error("ResetStats did not clear")
	}
	// Duplicate grant name from the same sender is refused.
	if err := sys.Grant(ChannelSpec{Name: "x", From: "a", To: "b"}); err == nil {
		t.Error("duplicate grant accepted")
	}
	// Colocate with zero components fails.
	if err := sys.Colocate("empty", false, 1); err == nil {
		t.Error("empty colocate accepted")
	}
}

func TestInitErrorPropagates(t *testing.T) {
	sys := NewSystem(NewMonolith(0))
	bad := &badInit{}
	if err := sys.Launch(bad, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err == nil {
		t.Error("init error swallowed")
	}
}

type badInit struct{}

func (*badInit) CompName() string    { return "bad" }
func (*badInit) CompVersion() string { return "1" }
func (*badInit) Init(*Ctx) error     { return ErrRefused }
func (*badInit) Handle(Envelope) (Message, error) {
	return Message{}, nil
}
