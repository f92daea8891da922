package securechan

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"testing"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/netsim"
)

// pinVerify pins the server's identity key.
func pinVerify(want ed25519.PublicKey) func(ed25519.PublicKey, [32]byte, []byte) error {
	return func(got ed25519.PublicKey, _ [32]byte, _ []byte) error {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("unexpected server key: %w", ErrHandshake)
		}
		return nil
	}
}

// handshake runs a full 3-message handshake in memory.
func handshake(t *testing.T, ccfg ClientConfig, scfg ServerConfig) (*Session, *Session, error) {
	t.Helper()
	client, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, pending, err := server.Respond(client.Hello())
	if err != nil {
		return nil, nil, err
	}
	cs, finish, err := client.Finish(resp)
	if err != nil {
		return nil, nil, err
	}
	ss, err := pending.Complete(finish)
	if err != nil {
		return nil, nil, err
	}
	return cs, ss, nil
}

func TestHandshakeAndRecords(t *testing.T) {
	id := cryptoutil.NewSigner("server-id")
	cs, ss, err := handshake(t,
		ClientConfig{Rand: cryptoutil.NewPRNG("c"), VerifyServer: pinVerify(id.Public())},
		ServerConfig{Rand: cryptoutil.NewPRNG("s"), Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	// Client → server.
	rec, err := cs.Seal([]byte("reading: 42kWh"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ss.Open(rec)
	if err != nil || string(got) != "reading: 42kWh" {
		t.Fatalf("open = %q, %v", got, err)
	}
	// Server → client.
	rec2, err := ss.Seal([]byte("price: 0.31"))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := cs.Open(rec2)
	if err != nil || string(got2) != "price: 0.31" {
		t.Fatalf("open = %q, %v", got2, err)
	}
}

func TestHelloShaped(t *testing.T) {
	client, err := NewClient(ClientConfig{Rand: cryptoutil.NewPRNG("c"), VerifyServer: pinVerify(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !HelloShaped(client.Hello()) {
		t.Error("genuine hello not recognized")
	}
	id := cryptoutil.NewSigner("server-id")
	cs, _, err := handshake(t,
		ClientConfig{Rand: cryptoutil.NewPRNG("c2"), VerifyServer: pinVerify(id.Public())},
		ServerConfig{Rand: cryptoutil.NewPRNG("s"), Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := cs.Seal([]byte("reading: 42kWh"))
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"sealed record":   rec,
		"empty":           nil,
		"garbage":         []byte("neither record nor hello"),
		"truncated hello": client.Hello()[:10],
		"padded hello":    append(client.Hello(), 0),
	} {
		if HelloShaped(b) {
			t.Errorf("%s passes the hello shape check", name)
		}
	}
}

func TestWrongServerKeyRejected(t *testing.T) {
	id := cryptoutil.NewSigner("server-id")
	other := cryptoutil.NewSigner("other-id")
	_, _, err := handshake(t,
		ClientConfig{Rand: cryptoutil.NewPRNG("c"), VerifyServer: pinVerify(other.Public())},
		ServerConfig{Rand: cryptoutil.NewPRNG("s"), Identity: id})
	if !errors.Is(err, ErrHandshake) {
		t.Errorf("wrong pinned key: got %v", err)
	}
}

func TestMITMCannotSpliceChannels(t *testing.T) {
	// Mallory intercepts the ClientHello and answers with her own
	// identity; the client's pin check catches it. Then she tries to
	// forward the REAL server's response unchanged — which still works
	// only if she does not modify anything, in which case she learns
	// nothing (she lacks both ephemeral private keys).
	id := cryptoutil.NewSigner("server-id")
	mallory := cryptoutil.NewSigner("mallory")
	client, err := NewClient(ClientConfig{Rand: cryptoutil.NewPRNG("c"), VerifyServer: pinVerify(id.Public())})
	if err != nil {
		t.Fatal(err)
	}
	// Mallory's forged response.
	mserver, _ := NewServer(ServerConfig{Rand: cryptoutil.NewPRNG("m"), Identity: mallory})
	forged, _, err := mserver.Respond(client.Hello())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Finish(forged); !errors.Is(err, ErrHandshake) {
		t.Errorf("MITM identity accepted: got %v", err)
	}
}

func TestTamperedResponseRejected(t *testing.T) {
	id := cryptoutil.NewSigner("server-id")
	client, _ := NewClient(ClientConfig{Rand: cryptoutil.NewPRNG("c"), VerifyServer: pinVerify(id.Public())})
	server, _ := NewServer(ServerConfig{Rand: cryptoutil.NewPRNG("s"), Identity: id})
	resp, _, err := server.Respond(client.Hello())
	if err != nil {
		t.Fatal(err)
	}
	resp[len(resp)-1] ^= 1
	if _, _, err := client.Finish(resp); err == nil {
		t.Error("tampered response accepted")
	}
}

func TestRecordReplayAndReorderRejected(t *testing.T) {
	id := cryptoutil.NewSigner("server-id")
	cs, ss, err := handshake(t,
		ClientConfig{Rand: cryptoutil.NewPRNG("c"), VerifyServer: pinVerify(id.Public())},
		ServerConfig{Rand: cryptoutil.NewPRNG("s"), Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := cs.Seal([]byte("one"))
	r2, _ := cs.Seal([]byte("two"))
	if _, err := ss.Open(r2); err != nil {
		t.Fatal(err)
	}
	// Replay of r2 and late delivery of r1 must both fail.
	if _, err := ss.Open(r2); !errors.Is(err, ErrReplay) {
		t.Errorf("replay: got %v", err)
	}
	if _, err := ss.Open(r1); !errors.Is(err, ErrReplay) {
		t.Errorf("reorder: got %v", err)
	}
	// Tampered record fails AEAD.
	r3, _ := cs.Seal([]byte("three"))
	r3[len(r3)-1] ^= 1
	if _, err := ss.Open(r3); !errors.Is(err, cryptoutil.ErrAuth) {
		t.Errorf("tampered record: got %v", err)
	}
	if _, err := ss.Open([]byte("short")); !errors.Is(err, ErrHandshake) {
		t.Errorf("short record: got %v", err)
	}
}

func TestServerAttestationEvidence(t *testing.T) {
	// The server attaches a quote bound to the transcript; the client
	// verifies it instead of pinning a key (the smart meter checking the
	// anonymizer's code identity).
	vendor := cryptoutil.NewSigner("intel")
	device := cryptoutil.NewSigner("server-cpu")
	cert := core.IssueVendorCert(vendor, device.Public())
	goodMeas := cryptoutil.Hash([]byte("anonymizer-v1"))
	id := cryptoutil.NewSigner("server-id")

	scfg := ServerConfig{
		Rand:     cryptoutil.NewPRNG("s"),
		Identity: id,
		Evidence: func(tr [32]byte) ([]byte, error) {
			return core.SignQuote("sgx-qe", goodMeas, tr[:], device, cert).Encode(), nil
		},
	}
	ccfg := ClientConfig{
		Rand: cryptoutil.NewPRNG("c"),
		VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
			return core.VerifyEvidence(evidence, tr[:], vendor.Public(), goodMeas)
		},
	}
	if _, _, err := handshake(t, ccfg, scfg); err != nil {
		t.Fatalf("attested handshake failed: %v", err)
	}
	// A tampered server binary (different measurement) is refused.
	evilMeas := cryptoutil.Hash([]byte("anonymizer-EVIL"))
	scfg.Evidence = func(tr [32]byte) ([]byte, error) {
		return core.SignQuote("sgx-qe", evilMeas, tr[:], device, cert).Encode(), nil
	}
	scfg.Rand = cryptoutil.NewPRNG("s2")
	ccfg.Rand = cryptoutil.NewPRNG("c2")
	if _, _, err := handshake(t, ccfg, scfg); err == nil {
		t.Error("tampered server evidence accepted")
	}
}

func TestClientAttestationRequired(t *testing.T) {
	// Password-less client auth: the server demands meter evidence.
	id := cryptoutil.NewSigner("server-id")
	vendor := cryptoutil.NewSigner("soc-vendor")
	meterDev := cryptoutil.NewSigner("meter-001")
	cert := core.IssueVendorCert(vendor, meterDev.Public())
	meterMeas := cryptoutil.Hash([]byte("meter-fw-v1"))

	scfg := ServerConfig{
		Rand:     cryptoutil.NewPRNG("s"),
		Identity: id,
		VerifyClient: func(evidence []byte, tr [32]byte) error {
			return core.VerifyEvidence(evidence, tr[:], vendor.Public(), meterMeas)
		},
	}
	good := ClientConfig{
		Rand:         cryptoutil.NewPRNG("c"),
		VerifyServer: pinVerify(id.Public()),
		Evidence: func(tr [32]byte) ([]byte, error) {
			return core.SignQuote("tz-rom", meterMeas, tr[:], meterDev, cert).Encode(), nil
		},
	}
	if _, _, err := handshake(t, good, scfg); err != nil {
		t.Fatalf("attested client rejected: %v", err)
	}
	// An emulator without the fused key cannot connect.
	imposter := cryptoutil.NewSigner("software-emulation")
	bad := ClientConfig{
		Rand:         cryptoutil.NewPRNG("c2"),
		VerifyServer: pinVerify(id.Public()),
		Evidence: func(tr [32]byte) ([]byte, error) {
			return core.SignQuote("tz-rom", meterMeas, tr[:], imposter,
				core.IssueVendorCert(imposter, imposter.Public())).Encode(), nil
		},
	}
	scfg.Rand = cryptoutil.NewPRNG("s2")
	if _, _, err := handshake(t, bad, scfg); err == nil {
		t.Error("emulated meter accepted")
	}
	// A client with NO evidence fails when the server demands it.
	none := ClientConfig{Rand: cryptoutil.NewPRNG("c3"), VerifyServer: pinVerify(id.Public())}
	scfg.Rand = cryptoutil.NewPRNG("s3")
	if _, _, err := handshake(t, none, scfg); err == nil {
		t.Error("evidence-less client accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); !errors.Is(err, ErrHandshake) {
		t.Errorf("empty client config: got %v", err)
	}
	if _, err := NewServer(ServerConfig{}); !errors.Is(err, ErrHandshake) {
		t.Errorf("empty server config: got %v", err)
	}
}

func TestMalformedHandshakeMessages(t *testing.T) {
	id := cryptoutil.NewSigner("server-id")
	server, _ := NewServer(ServerConfig{Rand: cryptoutil.NewPRNG("s"), Identity: id})
	if _, _, err := server.Respond([]byte{1, 2, 3}); !errors.Is(err, ErrHandshake) {
		t.Errorf("garbage hello: got %v", err)
	}
	client, _ := NewClient(ClientConfig{Rand: cryptoutil.NewPRNG("c"), VerifyServer: pinVerify(id.Public())})
	if _, _, err := client.Finish([]byte{0}); !errors.Is(err, ErrHandshake) {
		t.Errorf("garbage response: got %v", err)
	}
	// Bad key length inside a well-formed LV structure.
	bad := append(lv([]byte("shortkey")), lv(make([]byte, nonceLen))...)
	if _, _, err := server.Respond(bad); !errors.Is(err, ErrHandshake) {
		t.Errorf("bad key: got %v", err)
	}
}

func TestEavesdropperLearnsNothingOverNetsim(t *testing.T) {
	// Full integration: handshake + records over the simulated network
	// with a passive recorder in path. The secret payload never appears
	// in the adversary's transcript.
	id := cryptoutil.NewSigner("server-id")
	net := netsim.New()
	rec := &netsim.Recorder{}
	net.SetAdversary(rec)
	cEP := net.Attach("meter")
	sEP := net.Attach("utility")

	client, _ := NewClient(ClientConfig{Rand: cryptoutil.NewPRNG("c"), VerifyServer: pinVerify(id.Public())})
	server, _ := NewServer(ServerConfig{Rand: cryptoutil.NewPRNG("s"), Identity: id})

	if err := cEP.Send("utility", client.Hello()); err != nil {
		t.Fatal(err)
	}
	d, _ := sEP.Recv()
	resp, pending, err := server.Respond(d.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := sEP.Send("meter", resp); err != nil {
		t.Fatal(err)
	}
	d, _ = cEP.Recv()
	cs, finish, err := client.Finish(d.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := cEP.Send("utility", finish); err != nil {
		t.Fatal(err)
	}
	d, _ = sEP.Recv()
	ss, err := pending.Complete(d.Payload)
	if err != nil {
		t.Fatal(err)
	}

	secret := []byte("READING-PRIVATE-9981")
	rec1, _ := cs.Seal(secret)
	if err := cEP.Send("utility", rec1); err != nil {
		t.Fatal(err)
	}
	d, _ = sEP.Recv()
	got, err := ss.Open(d.Payload)
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("open = %q, %v", got, err)
	}
	if rec.Saw(secret) {
		t.Error("eavesdropper saw plaintext reading")
	}
}

func TestRatchetAcrossEpochs(t *testing.T) {
	id := cryptoutil.NewSigner("server-id")
	cs, ss, err := handshake(t,
		ClientConfig{Rand: cryptoutil.NewPRNG("rc"), VerifyServer: pinVerify(id.Public())},
		ServerConfig{Rand: cryptoutil.NewPRNG("rs"), Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	// Cross several ratchet boundaries; every record must round-trip.
	for i := 0; i < 3*RatchetInterval+5; i++ {
		msg := []byte(fmt.Sprintf("record-%d", i))
		rec, err := cs.Seal(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ss.Open(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestRatchetProvidesForwardSecrecyAcrossDrops(t *testing.T) {
	// Records can be lost; the receiver catches up across epochs when the
	// next one arrives.
	id := cryptoutil.NewSigner("server-id")
	cs, ss, err := handshake(t,
		ClientConfig{Rand: cryptoutil.NewPRNG("fc"), VerifyServer: pinVerify(id.Public())},
		ServerConfig{Rand: cryptoutil.NewPRNG("fs"), Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	for i := 0; i < 2*RatchetInterval+3; i++ {
		last, err = cs.Seal([]byte("burst"))
		if err != nil {
			t.Fatal(err)
		}
	}
	// Only the final record of the burst arrives.
	if _, err := ss.Open(last); err != nil {
		t.Fatalf("catch-up across epochs failed: %v", err)
	}
}

func TestForgedFutureSequenceDoesNotBrickSession(t *testing.T) {
	id := cryptoutil.NewSigner("server-id")
	cs, ss, err := handshake(t,
		ClientConfig{Rand: cryptoutil.NewPRNG("bc"), VerifyServer: pinVerify(id.Public())},
		ServerConfig{Rand: cryptoutil.NewPRNG("bs"), Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	// Attacker forges a record claiming an absurd sequence number.
	forged := make([]byte, 8+40)
	forged[0] = 0xff // seq ≈ 2^63
	if _, err := ss.Open(forged); err == nil {
		t.Fatal("forged record accepted")
	}
	// A moderate forged skip (within the allowed window) also fails AEAD
	// and must not commit the trial ratchet.
	forged2 := make([]byte, 8+40)
	forged2[6] = 0x01 // seq = 256: a few epochs ahead
	if _, err := ss.Open(forged2); err == nil {
		t.Fatal("forged record accepted")
	}
	// The genuine stream still works afterwards.
	rec, err := cs.Seal([]byte("still alive"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ss.Open(rec)
	if err != nil || string(got) != "still alive" {
		t.Fatalf("session bricked by forged record: %q, %v", got, err)
	}
}

// TestADEncodingMatchesLegacy pins the append-based associated-data
// encoding to the fmt.Sprintf("%s:%d") form the record layer used before
// the zero-allocation rewrite. The AD is authenticated by every record's
// AEAD tag, so any divergence would break interop between old and new
// peers silently — sequence numbers near every base-10 digit-length
// boundary are the risk spots.
func TestADEncodingMatchesLegacy(t *testing.T) {
	seqs := []uint64{0, 1, 9, 10, 99, 100, 1<<32 - 1, 1 << 32, 1<<64 - 1}
	for _, dir := range []string{"c2s", "s2c"} {
		for _, seq := range seqs {
			got := appendAD(nil, dir, seq)
			want := fmt.Sprintf("%s:%d", dir, seq)
			if string(got) != want {
				t.Errorf("appendAD(%q, %d) = %q, want %q", dir, seq, got, want)
			}
		}
	}
}

// TestHelloEpochStamp pins the config-epoch wire extension: an epoch-0
// client emits the legacy 2-field hello (byte-identical pre-epoch wire),
// a non-zero epoch adds the 8-byte stamp, and HelloEpoch reads it back.
func TestHelloEpochStamp(t *testing.T) {
	legacy, err := NewClient(ClientConfig{Rand: cryptoutil.NewPRNG("c0"), VerifyServer: pinVerify(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := HelloEpoch(legacy.Hello()); !ok || e != 0 {
		t.Fatalf("legacy hello epoch = %d, %v; want 0, true", e, ok)
	}
	stamped, err := NewClient(ClientConfig{Rand: cryptoutil.NewPRNG("c7"), VerifyServer: pinVerify(nil), ConfigEpoch: 7})
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := HelloEpoch(stamped.Hello()); !ok || e != 7 {
		t.Fatalf("stamped hello epoch = %d, %v; want 7, true", e, ok)
	}
	if _, ok := HelloEpoch([]byte("not a hello")); ok {
		t.Fatal("garbage parsed as a hello")
	}
}

// TestEpochGateRefusesStaleHello: a server pinned to an epoch refuses
// hellos stamped with any other epoch — including legacy epoch-less ones
// — with the typed ErrEpoch, and the pending it does accept remembers
// the epoch the keys were derived at.
func TestEpochGateRefusesStaleHello(t *testing.T) {
	id := cryptoutil.NewSigner("server-id")
	for _, stale := range []uint64{0, 2, 4} {
		_, _, err := handshake(t,
			ClientConfig{Rand: cryptoutil.NewPRNG("c"), VerifyServer: pinVerify(id.Public()), ConfigEpoch: stale},
			ServerConfig{Rand: cryptoutil.NewPRNG("s"), Identity: id, ConfigEpoch: 3})
		if !errors.Is(err, ErrEpoch) {
			t.Errorf("hello at epoch %d against gate 3 = %v, want ErrEpoch", stale, err)
		}
	}
	server, err := NewServer(ServerConfig{Rand: cryptoutil.NewPRNG("s"), Identity: id, ConfigEpoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{Rand: cryptoutil.NewPRNG("c"), VerifyServer: pinVerify(id.Public()), ConfigEpoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, pending, err := server.Respond(client.Hello())
	if err != nil {
		t.Fatalf("matching epoch refused: %v", err)
	}
	if got := pending.Epoch(); got != 3 {
		t.Fatalf("pending epoch = %d, want 3", got)
	}
	// An ungated server accepts a stamped hello and records the client's
	// epoch — the value session eviction keys on.
	open, err := NewServer(ServerConfig{Rand: cryptoutil.NewPRNG("s2"), Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	_, p2, err := open.Respond(client.Hello())
	if err != nil {
		t.Fatalf("ungated server refused stamped hello: %v", err)
	}
	if got := p2.Epoch(); got != 3 {
		t.Fatalf("ungated pending epoch = %d, want 3 (the hello's stamp)", got)
	}
}

// TestEpochBoundKeysCannotCrossEpochs: sessions handshaken at different
// epochs from identical randomness derive unrelated record keys — the
// HKDF salt binds the epoch — so records sealed under one epoch's keys
// never authenticate under another's.
func TestEpochBoundKeysCannotCrossEpochs(t *testing.T) {
	id := cryptoutil.NewSigner("server-id")
	session := func(epoch uint64) (*Session, *Session) {
		// Identical PRNG seeds per epoch: same ECDH keys, same nonces —
		// the only difference between runs is the epoch in the salt.
		cs, ss, err := handshake(t,
			ClientConfig{Rand: cryptoutil.NewPRNG("c-fixed"), VerifyServer: pinVerify(id.Public()), ConfigEpoch: epoch},
			ServerConfig{Rand: cryptoutil.NewPRNG("s-fixed"), Identity: id, ConfigEpoch: epoch})
		if err != nil {
			t.Fatalf("handshake at epoch %d: %v", epoch, err)
		}
		return cs, ss
	}
	cs1, _ := session(1)
	_, ss2 := session(2)
	rec, err := cs1.Seal([]byte("reading"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss2.Open(rec); err == nil {
		t.Fatal("record sealed at epoch 1 opened by epoch-2 session")
	}
	// Same-epoch rerun still works, so the refusal above is the epoch.
	cs1b, ss1b := session(1)
	rec2, err := cs1b.Seal([]byte("reading"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss1b.Open(rec2); err != nil {
		t.Fatalf("same-epoch record refused: %v", err)
	}
}
