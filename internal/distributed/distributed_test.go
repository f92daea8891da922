package distributed

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/kernel"
	"lateral/internal/netsim"
	"lateral/internal/sgx"
)

// cloudStore is the remote service: a keyed document store in an enclave.
type cloudStore struct {
	docs map[string][]byte
}

func (c *cloudStore) CompName() string    { return "store" }
func (c *cloudStore) CompVersion() string { return "2.0" }
func (c *cloudStore) Init(*core.Ctx) error {
	c.docs = make(map[string][]byte)
	return nil
}

func (c *cloudStore) Handle(env core.Envelope) (core.Message, error) {
	switch env.Msg.Op {
	case "put":
		parts := strings.SplitN(string(env.Msg.Data), "=", 2)
		if len(parts) != 2 {
			return core.Message{}, core.ErrRefused
		}
		c.docs[parts[0]] = []byte(parts[1])
		return core.Message{Op: "ok"}, nil
	case "get":
		doc, ok := c.docs[string(env.Msg.Data)]
		if !ok {
			return core.Message{}, fmt.Errorf("no such doc: %w", core.ErrRefused)
		}
		return core.Message{Op: "doc", Data: doc}, nil
	case "stall":
		// Models a hung backend; the server-side watchdog must contain it.
		time.Sleep(100 * time.Millisecond)
		return core.Message{Op: "ok"}, nil
	case "taint":
		// Reports the chain taint the invocation arrived with.
		return core.Message{Op: "taint", Data: []byte(strings.Join(env.Taint, ","))}, nil
	default:
		return core.Message{}, core.ErrRefused
	}
}

// localClient calls the (possibly remote) store via its granted channel.
type localClient struct {
	ctx *core.Ctx
}

func (l *localClient) CompName() string         { return "client" }
func (l *localClient) CompVersion() string      { return "1.0" }
func (l *localClient) Init(ctx *core.Ctx) error { l.ctx = ctx; return nil }

func (l *localClient) Handle(env core.Envelope) (core.Message, error) {
	return l.ctx.Call("store", env.Msg)
}

// fixture wires a client machine (microkernel) to a cloud machine (SGX)
// over the simulated network.
type fixture struct {
	net       *netsim.Network
	cloudSys  *core.System
	clientSys *core.System
	exporter  *Exporter
	stub      *Stub
	vendor    *cryptoutil.Signer
	storeMeas [32]byte
}

func newFixture(t testing.TB, adversary netsim.Adversary, tamperRemote bool) *fixture {
	t.Helper()
	f := &fixture{net: netsim.New(), vendor: cryptoutil.NewSigner("intel")}
	if adversary != nil {
		f.net.SetAdversary(adversary)
	}
	// Cloud machine: SGX hosting the store enclave.
	sub, err := sgx.New(sgx.Config{DeviceSeed: "cloud-cpu", Vendor: f.vendor})
	if err != nil {
		t.Fatal(err)
	}
	f.cloudSys = core.NewSystem(sub)
	store := &cloudStore{}
	if tamperRemote {
		store.docs = nil // same type; tampering is a different VERSION below
	}
	comp := core.Component(store)
	if tamperRemote {
		comp = &tamperedStore{}
	}
	if err := f.cloudSys.Launch(comp, true, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.cloudSys.InitAll(); err != nil {
		t.Fatal(err)
	}
	f.storeMeas = cryptoutil.Hash(core.DomainImage(&cloudStore{}))

	cloudEP := f.net.Attach("cloud")
	f.exporter, err = NewExporter(ExportConfig{
		System:    f.cloudSys,
		Component: "store",
		Endpoint:  cloudEP,
		Identity:  cryptoutil.NewSigner("cloud-tls"),
		Rand:      cryptoutil.NewPRNG("cloud-hs"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Client machine: microkernel hosting the client + the stub.
	f.clientSys = core.NewSystem(kernel.New(kernel.Config{}))
	clientEP := f.net.Attach("laptop")
	f.stub, err = NewStub(StubConfig{
		RemoteName:     "store",
		RemoteEndpoint: "cloud",
		Endpoint:       clientEP,
		Rand:           cryptoutil.NewPRNG("laptop-hs"),
		VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
			q, err := core.DecodeQuote(evidence)
			if err != nil {
				return err
			}
			return core.VerifyQuote(q, tr[:], f.vendor.Public(), f.storeMeas)
		},
		Pump: func() error { return f.exporter.Serve() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.clientSys.Launch(&localClient{}, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.clientSys.Launch(f.stub, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.clientSys.Grant(core.ChannelSpec{Name: "store", From: "client", To: "store", Badge: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.clientSys.InitAll(); err != nil {
		t.Fatal(err)
	}
	return f
}

// tamperedStore is a different binary (different version → measurement).
type tamperedStore struct{ cloudStore }

func (t *tamperedStore) CompVersion() string { return "2.0-evil" }

func TestRemoteCallEndToEnd(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if _, err := f.clientSys.Deliver("client", core.Message{Op: "put", Data: []byte("report=q3 numbers")}); err != nil {
		t.Fatalf("put: %v", err)
	}
	reply, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte("report")})
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if string(reply.Data) != "q3 numbers" {
		t.Errorf("got %q", reply.Data)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	_, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte("missing")})
	if !errors.Is(err, ErrRemote) {
		t.Errorf("remote refusal: got %v, want ErrRemote", err)
	}
	// The channel survives an application-level error.
	if _, err := f.clientSys.Deliver("client", core.Message{Op: "put", Data: []byte("a=b")}); err != nil {
		t.Errorf("call after error: %v", err)
	}
}

// TestBudgetEnforcedServerSide: the envelope deadline becomes a wire
// budget, the exporter re-anchors and enforces it, and the typed failure
// survives the round trip — errors.Is(err, core.ErrDeadline) on the client
// for a handler that hung on the server.
func TestBudgetEnforcedServerSide(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := f.stub.Handle(core.Envelope{
		Msg:      core.Message{Op: "stall"},
		Deadline: time.Now().Add(20 * time.Millisecond),
	})
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("stalled remote call: got %v, want core.ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("caller blocked %v on a 20ms budget", elapsed)
	}
	if st := f.cloudSys.Stats(); st.Timeouts == 0 {
		t.Error("server never accounted the timeout")
	}
	// The session survives; an unbounded call still works once the
	// abandoned handler drains.
	time.Sleep(120 * time.Millisecond)
	if _, err := f.stub.Handle(core.Envelope{Msg: core.Message{Op: "put", Data: []byte("a=b")}}); err != nil {
		t.Errorf("call after remote timeout: %v", err)
	}
}

// TestRemoteOverloadTyped: a shed call on the server arrives at the client
// as core.ErrOverloaded, so the cluster layer can fail over on it.
func TestRemoteOverloadTyped(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	f.cloudSys.SetAdmissionLimit(1)
	// First call abandons a 100ms stall after 10ms; its handler still holds
	// the single admission slot, so the immediate second call is shed.
	if _, err := f.stub.Handle(core.Envelope{
		Msg:      core.Message{Op: "stall"},
		Deadline: time.Now().Add(10 * time.Millisecond),
	}); !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("first call: got %v, want core.ErrDeadline", err)
	}
	_, err := f.stub.Handle(core.Envelope{
		Msg:      core.Message{Op: "get", Data: []byte("x")},
		Deadline: time.Now().Add(10 * time.Millisecond),
	})
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("call into full queue: got %v, want core.ErrOverloaded", err)
	}
	time.Sleep(120 * time.Millisecond) // let the abandoned handler drain
}

// TestStubRefusesExpiredCall: a call whose budget is already spent never
// touches the wire.
func TestStubRefusesExpiredCall(t *testing.T) {
	rec := &netsim.Recorder{}
	f := newFixture(t, rec, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	before := len(rec.Messages())
	_, err := f.stub.Handle(core.Envelope{
		Msg:      core.Message{Op: "get", Data: []byte("x")},
		Deadline: time.Now().Add(-time.Millisecond),
	})
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("expired call: got %v, want core.ErrDeadline", err)
	}
	if after := len(rec.Messages()); after != before {
		t.Errorf("expired call burned %d wire flights", after-before)
	}
}

func TestUnconnectedStubFailsClosed(t *testing.T) {
	f := newFixture(t, nil, false)
	_, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte("x")})
	if !errors.Is(err, ErrNotConnected) {
		t.Errorf("unconnected call: got %v", err)
	}
}

func TestEavesdropperSeesNoDocuments(t *testing.T) {
	rec := &netsim.Recorder{}
	f := newFixture(t, rec, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	secret := []byte("WIRE-INVISIBLE-DOCUMENT")
	if _, err := f.clientSys.Deliver("client", core.Message{Op: "put", Data: append([]byte("d="), secret...)}); err != nil {
		t.Fatal(err)
	}
	if rec.Saw(secret) {
		t.Error("document visible on the wire")
	}
}

func TestTamperedRemoteRefused(t *testing.T) {
	f := newFixture(t, nil, true)
	if err := f.stub.Connect(); err == nil {
		t.Error("stub connected to a remote with the wrong measurement")
	}
}

func TestWireTamperingDetected(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		// Tampering during handshake is also an acceptable failure point,
		// but there is no adversary yet — connect must succeed.
		t.Fatal(err)
	}
	f.net.SetAdversary(netsim.Tamperer{})
	_, err := f.clientSys.Deliver("client", core.Message{Op: "put", Data: []byte("a=b")})
	if err == nil {
		t.Error("tampered record accepted end to end")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewExporter(ExportConfig{}); err == nil {
		t.Error("empty exporter config accepted")
	}
	if _, err := NewStub(StubConfig{}); err == nil {
		t.Error("empty stub config accepted")
	}
	// Exporting a component that does not exist fails at construction.
	sys := core.NewSystem(core.NewMonolith(0))
	net := netsim.New()
	_, err := NewExporter(ExportConfig{
		System:    sys,
		Component: "ghost",
		Endpoint:  net.Attach("x"),
		Identity:  cryptoutil.NewSigner("id"),
		Rand:      cryptoutil.NewPRNG("r"),
	})
	if !errors.Is(err, core.ErrNoDomain) {
		t.Errorf("ghost export: got %v", err)
	}
}

func TestCallFrameCodec(t *testing.T) {
	b := encodeCall("op-name", []byte("payload"))
	op, data, err := decodeCall(b)
	if err != nil || op != "op-name" || string(data) != "payload" {
		t.Errorf("codec = %q %q %v", op, data, err)
	}
	if _, _, err := decodeCall([]byte{0}); !errors.Is(err, ErrTransport) {
		t.Errorf("short frame: %v", err)
	}
	if _, _, err := decodeCall([]byte{0, 9, 'x'}); !errors.Is(err, ErrTransport) {
		t.Errorf("truncated op: %v", err)
	}
}

func TestGarbledHelloDoesNotKillExporter(t *testing.T) {
	f := newFixture(t, nil, false)
	// A hostile peer sends garbage; Serve must survive and the real
	// client must still connect afterwards.
	if err := f.net.Inject(netsim.Datagram{From: "hostile", To: "cloud", Payload: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := f.exporter.Serve(); err != nil {
		t.Fatalf("serve after garbage: %v", err)
	}
	if err := f.stub.Connect(); err != nil {
		t.Fatalf("connect after garbage: %v", err)
	}
}

func TestGarbageOnEstablishedSessionPreservesIt(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.clientSys.Deliver("client", core.Message{Op: "put", Data: []byte("k=v1")}); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Garbage from the client's own address is neither a decryptable record
	// nor hello-shaped: it must be dropped with the decrypt failure kept —
	// not treated as a session reset, which would burn a handshake attempt
	// and kill the live session.
	var jobs []*job
	err := f.exporter.collect(netsim.Datagram{From: "laptop", To: "cloud", Payload: []byte("neither record nor hello")}, &jobs)
	if err == nil || len(jobs) != 0 {
		t.Fatalf("garbage on established session accepted: %v, %d jobs", err, len(jobs))
	}
	if !strings.Contains(err.Error(), "undecryptable record") {
		t.Errorf("decrypt failure not preserved: %v", err)
	}
	// The session survived: the next record decrypts under the same keys.
	reply, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte("k")})
	if err != nil || string(reply.Data) != "v1" {
		t.Fatalf("session lost after garbage: %q, %v", reply.Data, err)
	}
}

// spanSink collects completed spans from both machines; it lives here
// rather than importing internal/telemetry to keep this package's test
// dependencies minimal.
type spanSink struct {
	mu    sync.Mutex
	spans []core.Span
	kinds []core.SpanKind
}

func (s *spanSink) SpanStart(core.Span, core.SpanInfo, time.Time) {}

func (s *spanSink) SpanEnd(sp core.Span, info core.SpanInfo, _ time.Time, _ time.Duration, _ error) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.kinds = append(s.kinds, info.Kind)
	s.mu.Unlock()
}

// TestTraceStitchesAcrossMachines proves the wire frames propagate span
// context: with one tracer shared by both systems, the cloud-side deliver
// span is a descendant of the laptop-side call span, in the same trace.
func TestTraceStitchesAcrossMachines(t *testing.T) {
	f := newFixture(t, nil, false)
	sink := &spanSink{}
	f.clientSys.SetTracer(sink)
	f.cloudSys.SetTracer(sink)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.clientSys.Deliver("client", core.Message{Op: "put", Data: []byte("k=v")}); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	byID := make(map[uint64]core.Span, len(sink.spans))
	var rootTrace uint64
	var remoteDeliver core.Span
	for i, sp := range sink.spans {
		byID[sp.ID] = sp
		if sink.kinds[i] == core.SpanDeliver && sp.Parent != 0 {
			remoteDeliver = sp // the cloud-side deliver adopted a wire parent
		}
		if sink.kinds[i] == core.SpanDeliver && sp.Parent == 0 {
			rootTrace = sp.Trace
		}
	}
	if remoteDeliver.ID == 0 {
		t.Fatal("no cloud-side deliver span with a wire-propagated parent")
	}
	if rootTrace == 0 {
		t.Fatal("no root deliver span")
	}
	if remoteDeliver.Trace != rootTrace {
		t.Errorf("remote deliver in trace %#x, root trace %#x", remoteDeliver.Trace, rootTrace)
	}
	// Walking parents from the remote deliver must reach the root (depth
	// bounds the walk against cycles).
	cur := remoteDeliver
	reachedRoot := false
	for depth := 0; depth < 20; depth++ {
		if cur.Parent == 0 {
			reachedRoot = true
			break
		}
		next, ok := byID[cur.Parent]
		if !ok {
			t.Fatalf("span %#x has unrecorded parent %#x", cur.ID, cur.Parent)
		}
		cur = next
	}
	if !reachedRoot {
		t.Error("parent walk from remote deliver never reached the root")
	}
}

// TestRequestFrameRoundTrip covers the framing across all field
// combinations: span context and remaining budget, each present or absent,
// next to the mandatory correlation ID.
func TestRequestFrameRoundTrip(t *testing.T) {
	sp := core.Span{Trace: 0xdead, ID: 0xbeef}
	for _, tc := range []struct {
		name   string
		span   core.Span
		budget time.Duration
	}{
		{name: "bare", span: core.Span{}, budget: 0},
		{name: "traced", span: sp, budget: 0},
		{name: "budgeted", span: core.Span{}, budget: 750 * time.Millisecond},
		{name: "traced+budgeted", span: sp, budget: 2 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := Request{Span: tc.span, Budget: tc.budget, Corr: 42, Op: "put", Data: []byte("k=v")}
			req, err := DecodeRequest(AppendRequest(nil, in))
			if err != nil {
				t.Fatal(err)
			}
			if req.Span != tc.span || req.Budget != tc.budget || req.Corr != 42 ||
				req.Op != "put" || string(req.Data) != "k=v" {
				t.Errorf("round trip = %+v", req)
			}
		})
	}
	// Taint rides the frame and round-trips with every other field.
	t.Run("tainted", func(t *testing.T) {
		in := Request{
			Span: sp, Budget: time.Second, Corr: 7,
			Taint: []string{"ingress", "meter-identities"},
			Op:    "put", Data: []byte("k=v"),
		}
		req, err := DecodeRequest(AppendRequest(nil, in))
		if err != nil {
			t.Fatal(err)
		}
		if req.Span != in.Span || req.Budget != in.Budget || req.Corr != in.Corr ||
			strings.Join(req.Taint, ",") != "ingress,meter-identities" ||
			req.Op != in.Op || string(req.Data) != "k=v" {
			t.Errorf("round trip = %+v", req)
		}
	})
}

// TestDecodeFrameErrorPaths is the table-driven sweep over every way a
// frame can be malformed, at both layers of the framing (call frame and
// request wrapper). Every failure must wrap ErrTransport so callers can
// distinguish wire damage from remote refusals.
func TestDecodeFrameErrorPaths(t *testing.T) {
	callCases := []struct {
		name string
		in   []byte
		ok   bool
		op   string
		data string
	}{
		{name: "nil frame", in: nil},
		{name: "short frame", in: []byte{0}},
		{name: "truncated op", in: []byte{0, 9, 'x'}},
		{name: "op length over frame", in: []byte{0xff, 0xff, 'a', 'b'}},
		{name: "empty op empty data", in: []byte{0, 0}, ok: true},
		{name: "happy path", in: encodeCall("op", []byte("d")), ok: true, op: "op", data: "d"},
	}
	for _, tc := range callCases {
		t.Run("call/"+tc.name, func(t *testing.T) {
			op, data, err := decodeCall(tc.in)
			if !tc.ok {
				if !errors.Is(err, ErrTransport) {
					t.Fatalf("err = %v, want ErrTransport", err)
				}
				return
			}
			if err != nil || op != tc.op || string(data) != tc.data {
				t.Fatalf("decode = %q %q %v", op, data, err)
			}
		})
	}
	call := encodeCall("op", nil)
	// withCorr prefixes rest with flags (plus frameCorr) and a zero
	// correlation ID: what a frame without span or budget needs before its
	// taint field and call.
	withCorr := func(flags byte, rest ...byte) []byte {
		return append(append([]byte{flags | frameCorr}, make([]byte, 8)...), rest...)
	}
	reqCases := []struct {
		name string
		in   []byte
		ok   bool
	}{
		{name: "empty frame", in: nil},
		{name: "flags only, traced", in: []byte{frameTraced}},
		{name: "truncated span context", in: []byte{frameTraced, 1, 2, 3}},
		{name: "span context then short call", in: append(append([]byte{frameTraced | frameCorr}, make([]byte, 16+8)...), 0)},
		{name: "untraced short call", in: withCorr(0, 0)},
		{name: "no correlation id", in: append([]byte{0}, call...)},
		{name: "truncated correlation id", in: []byte{frameCorr, 1, 2, 3}},
		{name: "flags only, budgeted", in: []byte{frameBudget}},
		{name: "truncated budget", in: []byte{frameBudget, 1, 2, 3}},
		{name: "budget overflow", in: append(append([]byte{frameBudget | frameCorr}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), withCorr(0, call...)[1:]...)},
		{name: "unknown future flag", in: append([]byte{1<<5 | frameCorr}, withCorr(0, call...)[1:]...)},
		{name: "flags only, tainted", in: withCorr(frameTaint)},
		{name: "taint count zero", in: withCorr(frameTaint, append([]byte{0}, call...)...)},
		{name: "taint count over max", in: withCorr(frameTaint, append([]byte{maxTaintLabels + 1}, call...)...)},
		{name: "taint label empty", in: withCorr(frameTaint, append([]byte{1, 0}, call...)...)},
		{name: "taint label truncated", in: withCorr(frameTaint, 1, 3, 'a')},
		{name: "taint labels unsorted", in: withCorr(frameTaint, append([]byte{2, 1, 'b', 1, 'a'}, call...)...)},
		{name: "taint label duplicated", in: withCorr(frameTaint, append([]byte{2, 1, 'a', 1, 'a'}, call...)...)},
		{name: "tainted valid", in: AppendRequest(nil, Request{Taint: []string{"a", "b"}, Op: "op"}), ok: true},
		{name: "untraced valid", in: AppendRequest(nil, Request{Op: "op"}), ok: true},
		{name: "traced valid", in: AppendRequest(nil, Request{Span: core.Span{Trace: 1, ID: 2}, Op: "op"}), ok: true},
		{name: "budgeted valid", in: AppendRequest(nil, Request{Budget: time.Second, Op: "op"}), ok: true},
		{name: "traced budgeted valid", in: AppendRequest(nil, Request{Span: core.Span{Trace: 1, ID: 2}, Budget: time.Second, Op: "op"}), ok: true},
	}
	for _, tc := range reqCases {
		t.Run("request/"+tc.name, func(t *testing.T) {
			_, err := DecodeRequest(tc.in)
			if tc.ok && err != nil {
				t.Fatalf("unexpected err %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrTransport) {
				t.Fatalf("err = %v, want ErrTransport", err)
			}
		})
	}
}

// TestRemoteErrorWrapping pins the ErrRemote contract: a refusal executed
// on the remote side arrives wrapped in ErrRemote carrying the remote
// error text, and is NOT an ErrTransport.
func TestRemoteErrorWrapping(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	_, err := f.clientSys.Deliver("client", core.Message{Op: "no-such-op"})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if errors.Is(err, ErrTransport) {
		t.Error("remote refusal also claims to be a transport failure")
	}
	if !strings.Contains(err.Error(), "refused") {
		t.Errorf("remote error text lost: %v", err)
	}
}

func TestPingDoesNotInvokeComponent(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := f.stub.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// The store never saw the probe: its document map is untouched and a
	// get for the ping op name fails like any other missing key.
	if _, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte(PingOp)}); !errors.Is(err, ErrRemote) {
		t.Errorf("ping leaked into component state: %v", err)
	}
}

func TestCloseThenReconnect(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.clientSys.Deliver("client", core.Message{Op: "put", Data: []byte("k=v1")}); err != nil {
		t.Fatal(err)
	}
	f.stub.Close()
	if f.stub.Connected() {
		t.Error("closed stub reports connected")
	}
	if _, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte("k")}); !errors.Is(err, ErrNotConnected) {
		t.Errorf("call after close: %v", err)
	}
	// Reconnect from the same endpoint: the exporter must accept the
	// fresh hello as a session reset.
	if err := f.stub.Connect(); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if err := f.stub.Ping(); err != nil {
		t.Fatalf("ping after reconnect: %v", err)
	}
	// Server-side state survived the reset (the component never died).
	reply, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte("k")})
	if err != nil || string(reply.Data) != "v1" {
		t.Errorf("state after reconnect = %q, %v", reply.Data, err)
	}
}

// denyTainted is a minimal policy for the wire tests: refuse any external
// delivery whose imported chain taint contains the label.
type denyTainted struct{ label string }

func (d *denyTainted) CheckInvoke(req core.PolicyRequest) ([]string, error) {
	if req.Channel == core.PolicyDeliver && core.HasTaint(req.Taint, d.label) {
		return nil, fmt.Errorf("tainted by %s: %w", d.label, core.ErrPolicy)
	}
	return nil, nil
}

// TestTaintCrossesWire: the chain's taint set rides the request frame,
// the receiving system's policy judges it at the deliver boundary before
// the component runs, and a remote deny rehydrates as core.ErrPolicy on
// the client. A machine without a policy engine still forwards the labels
// into the handler — the wire never launders a chain.
func TestTaintCrossesWire(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	// No policy on the cloud machine: taint propagates into the handler.
	reply, err := f.stub.Handle(core.Envelope{
		Msg:   core.Message{Op: "taint"},
		Taint: []string{"ingress", "meter-identities"},
	})
	if err != nil {
		t.Fatalf("tainted call without policy: %v", err)
	}
	if string(reply.Data) != "ingress,meter-identities" {
		t.Errorf("remote handler saw taint %q", reply.Data)
	}

	// With a policy installed, the imported taint is judged at the cloud
	// machine's deliver boundary and the typed deny crosses back.
	f.cloudSys.SetPolicy(&denyTainted{label: "meter-identities"})
	_, err = f.stub.Handle(core.Envelope{
		Msg:   core.Message{Op: "get", Data: []byte("report")},
		Taint: []string{"meter-identities"},
	})
	if !errors.Is(err, core.ErrPolicy) {
		t.Fatalf("tainted remote call: got %v, want core.ErrPolicy", err)
	}
	if denies := f.cloudSys.Stats().PolicyDenies; denies != 1 {
		t.Errorf("cloud PolicyDenies = %d, want 1", denies)
	}
	// An untainted call on the same session is unaffected, and the deny
	// did not poison the channel.
	if _, err := f.stub.Handle(core.Envelope{Msg: core.Message{Op: "put", Data: []byte("a=b")}}); err != nil {
		t.Errorf("untainted call after deny: %v", err)
	}
}

// TestExporterEpochGateAndEviction pins the exporter half of config-epoch
// rekeying. An ungated exporter accepts both legacy (epoch-less) clients
// and clients keyed ahead of it; once the gate moves, sessions keyed at
// older epochs are evicted and stale hellos are refused — but a session
// already keyed AT the new epoch survives the gate catching up to it
// (regression: the pending used to record the gate's epoch instead of the
// hello's, so a joiner admitted mid-transition lost its fresh session).
func TestExporterEpochGateAndEviction(t *testing.T) {
	f := newFixture(t, nil, false)
	dial := func(client string, epoch uint64) *Stub {
		t.Helper()
		s, err := NewStub(StubConfig{
			RemoteName:     "store",
			RemoteEndpoint: "cloud",
			Endpoint:       f.net.Attach(client),
			Rand:           cryptoutil.NewPRNG(client + "-hs"),
			VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
				q, err := core.DecodeQuote(evidence)
				if err != nil {
					return err
				}
				return core.VerifyQuote(q, tr[:], f.vendor.Public(), f.storeMeas)
			},
			Pump:  func() error { return f.exporter.Serve() },
			Epoch: func() uint64 { return epoch },
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	put := func(s *Stub, kv string) error {
		_, err := s.Handle(core.Envelope{Msg: core.Message{Op: "put", Data: []byte(kv)}})
		return err
	}

	if err := f.stub.Connect(); err != nil {
		t.Fatalf("legacy client: %v", err)
	}
	if err := put(f.stub, "a=1"); err != nil {
		t.Fatalf("legacy put: %v", err)
	}
	ahead := dial("laptop-ahead", 1)
	if err := ahead.Connect(); err != nil {
		t.Fatalf("epoch-1 client against ungated exporter: %v", err)
	}
	if got := ahead.SessionEpoch(); got != 1 {
		t.Fatalf("ahead session epoch = %d, want 1", got)
	}

	f.exporter.SetEpoch(1)
	if got := f.exporter.Epoch(); got != 1 {
		t.Fatalf("exporter epoch = %d, want 1", got)
	}
	if err := put(ahead, "b=2"); err != nil {
		t.Fatalf("epoch-1 session evicted by SetEpoch(1): %v", err)
	}
	if err := put(f.stub, "c=3"); err == nil {
		t.Fatal("epoch-0 session survived SetEpoch(1)")
	}
	if err := dial("laptop-replay", 0).Connect(); err == nil {
		t.Fatal("epoch-0 hello accepted by epoch-1 exporter")
	}
	if err := dial("laptop-cur", 1).Connect(); err != nil {
		t.Fatalf("epoch-1 hello refused by epoch-1 exporter: %v", err)
	}
	// SetEpoch(0) removes the gate without evicting the live session.
	f.exporter.SetEpoch(0)
	if err := put(ahead, "d=4"); err != nil {
		t.Fatalf("gate removal evicted a live session: %v", err)
	}
}

// holdFirstHellos holds each of the exporter's first two handshake
// responses on the wire until the other joins it or 100 ms pass, and
// records whether they were ever on the wire together.
type holdFirstHellos struct {
	from    string
	seen    atomic.Int32
	active  atomic.Int32
	joined  sync.Once
	overlap chan struct{}
}

func (h *holdFirstHellos) Intercept(d netsim.Datagram) []netsim.Datagram {
	if d.From != h.from || h.seen.Add(1) > 2 {
		return []netsim.Datagram{d}
	}
	if h.active.Add(1) > 1 {
		h.joined.Do(func() { close(h.overlap) })
	}
	defer h.active.Add(-1)
	select {
	case <-h.overlap:
	case <-time.After(100 * time.Millisecond):
	}
	return []netsim.Datagram{d}
}

// TestConcurrentServePassesSerializeHandshakes pins the exporter's
// handshake lock. Two stubs share one exporter, and their first pumps run
// Serve together once both hellos are queued, so each pass takes one
// hello; neither stub reads its response before both passes are done. The
// first pass's response is held on the wire until the second pass answers
// too or 100 ms pass: a second hello answered meanwhile drew from the
// exporter's handshake randomness at the same time as the first, which is
// caught on every run. Run with -race: the PRNG is unsynchronized.
func TestConcurrentServePassesSerializeHandshakes(t *testing.T) {
	hold := &holdFirstHellos{from: "cloud", overlap: make(chan struct{})}
	f := newFixture(t, hold, false)
	var queued, served sync.WaitGroup
	queued.Add(2)
	served.Add(2)
	dial := func(client string) *Stub {
		t.Helper()
		var primed atomic.Bool
		s, err := NewStub(StubConfig{
			RemoteName:     "store",
			RemoteEndpoint: "cloud",
			Endpoint:       f.net.Attach(client),
			Rand:           cryptoutil.NewPRNG(client + "-hs"),
			VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
				q, err := core.DecodeQuote(evidence)
				if err != nil {
					return err
				}
				return core.VerifyQuote(q, tr[:], f.vendor.Public(), f.storeMeas)
			},
			Pump: func() error {
				if !primed.Swap(true) {
					queued.Done()
					queued.Wait()
					defer func() {
						served.Done()
						served.Wait()
					}()
				}
				return f.exporter.Serve()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	stubs := []*Stub{dial("laptop-a"), dial("laptop-b")}
	errs := make(chan error, len(stubs))
	for _, s := range stubs {
		go func(s *Stub) { errs <- s.Connect() }(s)
	}
	for range stubs {
		if err := <-errs; err != nil {
			t.Fatalf("Connect: %v", err)
		}
	}
	select {
	case <-hold.overlap:
		t.Fatal("two Serve passes answered hellos at the same time")
	default:
	}
	for i, s := range stubs {
		kv := fmt.Sprintf("k%d=v", i)
		if _, err := s.Handle(core.Envelope{Msg: core.Message{Op: "put", Data: []byte(kv)}}); err != nil {
			t.Fatalf("put on session %d: %v", i, err)
		}
	}
}
