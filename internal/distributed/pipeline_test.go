package distributed

// Tests for the wire-v3 pipelining path: correlation-ID demux, orphaned
// and duplicated replies, and the demux loop under concurrent callers and
// network chaos (run under -race by the race-hotpath make target).

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/netsim"
	"lateral/internal/securechan"
)

// handshakeByHand runs the client side of the attested handshake without
// a Stub, for tests that seal records themselves.
func handshakeByHand(t *testing.T, f *fixture, ep *netsim.Endpoint, seed string) *securechan.Session {
	t.Helper()
	client, err := securechan.NewClient(securechan.ClientConfig{
		Rand:         cryptoutil.NewPRNG(seed),
		VerifyServer: func(ed25519.PublicKey, [32]byte, []byte) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send("cloud", client.Hello()); err != nil {
		t.Fatal(err)
	}
	if err := f.exporter.Serve(); err != nil {
		t.Fatal(err)
	}
	dg, ok := ep.Recv()
	if !ok {
		t.Fatal("no handshake response")
	}
	sess, finish, err := client.Finish(dg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send("cloud", finish); err != nil {
		t.Fatal(err)
	}
	if err := f.exporter.Serve(); err != nil {
		t.Fatal(err)
	}
	return sess
}

// pipeFixture builds a stub against the fixture's exporter whose pump
// counts wire rounds and sleeps briefly first, so concurrent callers'
// requests accumulate and one serve round drains the batch.
func pipeFixture(t *testing.T, f *fixture, rtt time.Duration) (*Stub, *atomic.Int64) {
	t.Helper()
	var rounds atomic.Int64
	stub, err := NewStub(StubConfig{
		RemoteName:     "store",
		RemoteEndpoint: "cloud",
		Endpoint:       f.net.Attach("pipeline"),
		Rand:           cryptoutil.NewPRNG("pipeline-hs"),
		VerifyServer:   func(ed25519.PublicKey, [32]byte, []byte) error { return nil },
		Pump: func() error {
			if rtt > 0 {
				time.Sleep(rtt)
			}
			rounds.Add(1)
			return f.exporter.Serve()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return stub, &rounds
}

// TestPipelinedCallsShareWireRounds drives concurrent callers through one
// stub and verifies the demux loop batches them: several calls ride each
// wire round, every call completes exactly once, and the in-flight
// high-water mark proves real overlap.
func TestPipelinedCallsShareWireRounds(t *testing.T) {
	f := newFixture(t, nil, false)
	stub, rounds := pipeFixture(t, f, 200*time.Microsecond)
	if err := stub.Connect(); err != nil {
		t.Fatal(err)
	}
	handshake := rounds.Load()

	const workers, per = 8, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if _, err := stub.Handle(core.Envelope{Msg: core.Message{Op: "put", Data: []byte(key + "=x")}}); err != nil {
					errs <- fmt.Errorf("put %s: %w", key, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := stub.Stats()
	if st.Issued != workers*per || st.Completed != workers*per || st.Failed != 0 {
		t.Errorf("books: %+v, want %d issued = completed", st, workers*per)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight = %d after quiesce", st.Inflight)
	}
	if st.MaxInflight < 2 {
		t.Errorf("max inflight = %d, calls never overlapped", st.MaxInflight)
	}
	if used := rounds.Load() - handshake; used >= workers*per {
		t.Errorf("%d wire rounds for %d calls: no batching", used, workers*per)
	}
}

// holdOne swallows the first cloud→laptop datagram after Arm, keeping a
// copy the test re-injects later — a reply the network delivered too late.
type holdOne struct {
	mu    sync.Mutex
	armed bool
	held  *netsim.Datagram
}

func (h *holdOne) Arm() {
	h.mu.Lock()
	h.armed = true
	h.mu.Unlock()
}

func (h *holdOne) Held() *netsim.Datagram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.held
}

func (h *holdOne) Intercept(d netsim.Datagram) []netsim.Datagram {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.armed || d.From != "cloud" {
		return []netsim.Datagram{d}
	}
	h.armed = false
	// Deep-copy: the network releases the original's buffer after the
	// adversary returns.
	p := make([]byte, len(d.Payload))
	copy(p, d.Payload)
	h.held = &netsim.Datagram{From: d.From, To: d.To, Payload: p}
	return nil
}

// TestLateReplyDroppedAsOrphan loses a reply in flight (the caller unwinds
// with a transport error), then lets it surface during a later call: the
// demux loop must drop it as an orphan — counted, never misdelivered — and
// the later call must still complete with its own reply.
func TestLateReplyDroppedAsOrphan(t *testing.T) {
	hold := &holdOne{}
	f := newFixture(t, hold, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.clientSys.Deliver("client", core.Message{Op: "put", Data: []byte("k=v")}); err != nil {
		t.Fatal(err)
	}

	hold.Arm()
	_, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte("k")})
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("swallowed reply: err = %v, want ErrTransport", err)
	}
	held := hold.Held()
	if held == nil {
		t.Fatal("adversary held nothing")
	}
	if err := f.net.Inject(*held); err != nil {
		t.Fatal(err)
	}

	// The next call drains the stale reply first. Its correlation ID names
	// no parked caller, so it is dropped and counted; the call's own reply
	// arrives on the round after.
	got, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte("k")})
	if err != nil || string(got.Data) != "v" {
		t.Fatalf("call after late reply = %q, %v", got.Data, err)
	}
	st := f.stub.Stats()
	if st.Orphans != 1 {
		t.Errorf("orphans = %d, want 1", st.Orphans)
	}
	if st.Issued != st.Completed+st.Failed || st.Inflight != 0 {
		t.Errorf("books unbalanced: %+v", st)
	}
}

// dupOnce duplicates the first cloud→laptop datagram after Arm — an
// at-least-once network delivering a sealed reply twice.
type dupOnce struct {
	mu    sync.Mutex
	armed bool
}

func (u *dupOnce) Arm() {
	u.mu.Lock()
	u.armed = true
	u.mu.Unlock()
}

func (u *dupOnce) Intercept(d netsim.Datagram) []netsim.Datagram {
	u.mu.Lock()
	defer u.mu.Unlock()
	if !u.armed || d.From != "cloud" {
		return []netsim.Datagram{d}
	}
	u.armed = false
	p := make([]byte, len(d.Payload))
	copy(p, d.Payload)
	return []netsim.Datagram{d, {From: d.From, To: d.To, Payload: p}}
}

// TestDuplicateReplyFailsSession pins the replay semantics: a duplicated
// record trips the channel's strictly-increasing sequence check, which is
// indistinguishable from tampering, so the session fails closed — the call
// that drained it gets a typed error, the stub disconnects, and a
// reconnect restores service. (The duplicate is NOT an orphan: it never
// decrypts.)
func TestDuplicateReplyFailsSession(t *testing.T) {
	dup := &dupOnce{}
	f := newFixture(t, dup, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.clientSys.Deliver("client", core.Message{Op: "put", Data: []byte("k=v")}); err != nil {
		t.Fatal(err)
	}

	dup.Arm()
	// This call's reply is duplicated; the first copy completes it.
	if _, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte("k")}); err != nil {
		t.Fatalf("call with duplicated reply: %v", err)
	}
	// The next call drains the stale duplicate, which cannot decrypt
	// (sequence replay) — the session fails closed.
	_, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte("k")})
	if !errors.Is(err, securechan.ErrReplay) {
		t.Fatalf("duplicate record: err = %v, want ErrReplay", err)
	}
	if f.stub.Connected() {
		t.Fatal("session survived a replayed record")
	}

	// Reconnect restores service. The first attempt may collide with the
	// exporter's reply to the request that died with the session (the
	// cluster layer retries exactly like this).
	for i := 0; i < 3; i++ {
		if err = f.stub.Connect(); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	got, err := f.clientSys.Deliver("client", core.Message{Op: "get", Data: []byte("k")})
	if err != nil || string(got.Data) != "v" {
		t.Fatalf("call after reconnect = %q, %v", got.Data, err)
	}
	if st := f.stub.Stats(); st.Issued != st.Completed+st.Failed || st.Inflight != 0 {
		t.Errorf("books unbalanced: %+v", st)
	}
}

// TestDemuxUnderChaosDelayer runs concurrent pipelined callers against a
// reordering network (the race-hotpath target runs this under -race).
// Held-back records trip the replay guard and fail sessions mid-flight;
// callers reconnect and press on. The only promises under this chaos are
// memory safety and exactly-once accounting: every issued call resolves
// exactly once and nothing stays in flight.
func TestDemuxUnderChaosDelayer(t *testing.T) {
	f := newFixture(t, netsim.NewDelayer(7, 0.2, 3), false)
	var connMu sync.Mutex
	reconnect := func() {
		connMu.Lock()
		defer connMu.Unlock()
		if !f.stub.Connected() {
			_ = f.stub.Connect() // may fail under chaos; callers retry
		}
	}
	for i := 0; i < 10; i++ {
		if err := f.stub.Connect(); err == nil {
			break
		}
	}

	const workers, per = 8, 25
	var wg sync.WaitGroup
	var ok atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				msg := core.Message{Op: "put", Data: []byte(fmt.Sprintf("w%d-%d=x", w, i))}
				if _, err := f.stub.Handle(core.Envelope{Msg: msg}); err != nil {
					reconnect()
					continue
				}
				ok.Add(1)
			}
		}(w)
	}
	wg.Wait()

	st := f.stub.Stats()
	if st.Issued != st.Completed+st.Failed {
		t.Errorf("exactly-once violated under chaos: %+v", st)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight = %d after quiesce", st.Inflight)
	}
	if ok.Load() == 0 {
		t.Error("no call ever succeeded under chaos")
	}
}
