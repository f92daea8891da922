// Package securechan implements an attested secure channel over the
// untrusted network: an authenticated key exchange (X25519 + Ed25519)
// whose handshake transcript can carry trust-anchor quotes in both
// directions.
//
// This is the glue of the paper's distributed scenarios: the smart meter
// "would verify the code identity of the data anonymizer component before
// sending it any readings" (server attestation bound to the channel), and
// "the appliance is authenticating itself using a secret hardware key"
// (client attestation — password-less, phishing-resistant).
//
// Channel binding: quotes embed the transcript hash as their nonce, so
// evidence cannot be cut-and-pasted from another connection, and a
// man-in-the-middle cannot splice two half-channels together.
package securechan

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"lateral/internal/cryptoutil"
)

// Errors.
var (
	// ErrHandshake is returned for malformed or unauthentic handshake
	// messages.
	ErrHandshake = errors.New("securechan: handshake failed")

	// ErrReplay is returned when a record's sequence number goes
	// backwards or repeats.
	ErrReplay = errors.New("securechan: replay detected")

	// ErrEpoch is returned when a ClientHello carries a fleet config
	// epoch that does not match the responder's current epoch: stale
	// members (and replayed pre-rekey hellos) are refused at the door.
	ErrEpoch = errors.New("securechan: config epoch mismatch")
)

const (
	nonceLen = 16
	protoTag = "lateral-hs-v1"
	epochLen = 8
)

// randReader adapts the deterministic PRNG to io.Reader for key
// generation.
type randReader struct{ p *cryptoutil.PRNG }

func (r randReader) Read(p []byte) (int, error) {
	copy(p, r.p.Bytes(len(p)))
	return len(p), nil
}

// lv encodes a length-prefixed field.
func lv(b []byte) []byte {
	out := make([]byte, 2, 2+len(b))
	out[0] = byte(len(b) >> 8)
	out[1] = byte(len(b))
	return append(out, b...)
}

// splitLV parses consecutive length-prefixed fields.
func splitLV(b []byte, n int) ([][]byte, error) {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("truncated field %d: %w", i, ErrHandshake)
		}
		l := int(b[0])<<8 | int(b[1])
		b = b[2:]
		if len(b) < l {
			return nil, fmt.Errorf("short field %d: %w", i, ErrHandshake)
		}
		out = append(out, b[:l])
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("trailing bytes: %w", ErrHandshake)
	}
	return out, nil
}

// splitHello parses a ClientHello: two mandatory fields (X25519 public
// key, nonce) plus an optional third — the 8-byte big-endian fleet
// config epoch the client was keyed at. Epoch-less hellos (the wire
// format before dynamic membership) decode as epoch 0.
func splitHello(hello []byte) (fields [][]byte, epoch uint64, err error) {
	b := hello
	for len(b) > 0 {
		if len(fields) == 3 {
			return nil, 0, fmt.Errorf("trailing bytes: %w", ErrHandshake)
		}
		if len(b) < 2 {
			return nil, 0, fmt.Errorf("truncated field %d: %w", len(fields), ErrHandshake)
		}
		l := int(b[0])<<8 | int(b[1])
		b = b[2:]
		if len(b) < l {
			return nil, 0, fmt.Errorf("short field %d: %w", len(fields), ErrHandshake)
		}
		fields = append(fields, b[:l])
		b = b[l:]
	}
	if len(fields) < 2 {
		return nil, 0, fmt.Errorf("hello needs 2 fields, got %d: %w", len(fields), ErrHandshake)
	}
	if len(fields) == 3 {
		if len(fields[2]) != epochLen {
			return nil, 0, fmt.Errorf("epoch field size %d: %w", len(fields[2]), ErrHandshake)
		}
		epoch = binary.BigEndian.Uint64(fields[2])
	}
	return fields, epoch, nil
}

// ClientConfig configures the initiating side.
type ClientConfig struct {
	// Rand provides handshake randomness (deterministic in experiments).
	Rand *cryptoutil.PRNG

	// VerifyServer authenticates the responder. It receives the server's
	// long-term identity key, the transcript hash, and the server's
	// attestation evidence (empty if the server attached none). Returning
	// an error aborts the handshake. Required.
	VerifyServer func(idPub ed25519.PublicKey, transcript [32]byte, evidence []byte) error

	// Evidence, when non-nil, produces the client's own attestation
	// evidence bound to the transcript (password-less client auth).
	Evidence func(transcript [32]byte) ([]byte, error)

	// Events, when non-nil, observes the handshake outcome: fired once
	// from Finish with kind "handshake-ok" or "handshake-fail" (detail
	// carries the failure text). Journaling layers hang off this without
	// the channel knowing about them.
	Events func(kind, detail string)

	// ConfigEpoch, when non-zero, is the fleet configuration epoch this
	// client was keyed at. It is stamped into the hello (inside the
	// transcript, so quotes bind it), checked by epoch-gated servers, and
	// folded into the HKDF salt so session keys from one epoch cannot
	// authenticate traffic in another. Zero keeps the pre-epoch wire
	// format and key schedule byte-identical.
	ConfigEpoch uint64
}

// ServerConfig configures the responding side.
type ServerConfig struct {
	// Rand provides handshake randomness.
	Rand *cryptoutil.PRNG

	// Identity signs the handshake; its public half is what clients pin
	// or check against attestation evidence. Required.
	Identity *cryptoutil.Signer

	// Evidence, when non-nil, produces attestation evidence bound to the
	// transcript (e.g. an SGX quote of the anonymizer enclave).
	Evidence func(transcript [32]byte) ([]byte, error)

	// VerifyClient, when non-nil, demands and checks client evidence —
	// connections without acceptable evidence fail.
	VerifyClient func(evidence []byte, transcript [32]byte) error

	// Events, when non-nil, observes handshake outcomes: fired once per
	// Pending.Complete with kind "handshake-ok" or "handshake-fail".
	Events func(kind, detail string)

	// ConfigEpoch, when non-zero, gates admission: a hello whose stamped
	// epoch differs (including epoch-less legacy hellos) is refused with
	// ErrEpoch. Zero accepts any hello and derives keys at whatever epoch
	// the client stamped, preserving pre-epoch interop.
	ConfigEpoch uint64
}

// Client is an in-flight initiator handshake.
type Client struct {
	cfg   ClientConfig
	priv  *ecdh.PrivateKey
	nonce []byte
	hello []byte
}

// NewClient starts a handshake and returns the initiator state.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Rand == nil || cfg.VerifyServer == nil {
		return nil, fmt.Errorf("securechan: client needs Rand and VerifyServer: %w", ErrHandshake)
	}
	priv, err := ecdh.X25519().GenerateKey(randReader{cfg.Rand})
	if err != nil {
		return nil, fmt.Errorf("securechan: keygen: %w", err)
	}
	c := &Client{cfg: cfg, priv: priv, nonce: cfg.Rand.Bytes(nonceLen)}
	c.hello = append(lv(priv.PublicKey().Bytes()), lv(c.nonce)...)
	if cfg.ConfigEpoch > 0 {
		var e [epochLen]byte
		binary.BigEndian.PutUint64(e[:], cfg.ConfigEpoch)
		c.hello = append(c.hello, lv(e[:])...)
	}
	return c, nil
}

// Hello returns the first handshake message (client → server).
func (c *Client) Hello() []byte {
	return append([]byte(nil), c.hello...)
}

// HelloShaped cheaply reports whether b is structurally a ClientHello:
// two length-prefixed fields of X25519-key and nonce size, optionally
// followed by an 8-byte config-epoch field. Servers use it to decide
// whether an undecryptable datagram on an established session deserves a
// handshake attempt at all — record frames (8-byte big-endian sequence
// header + ciphertext) never match, so garbage cannot buy a server
// handshake or reset a live session.
func HelloShaped(b []byte) bool {
	fields, _, err := splitHello(b)
	return err == nil && len(fields[0]) == 32 && len(fields[1]) == nonceLen
}

// HelloEpoch returns the fleet config epoch stamped into a ClientHello
// (0 for epoch-less hellos) and whether b parses as a hello at all.
func HelloEpoch(b []byte) (uint64, bool) {
	_, epoch, err := splitHello(b)
	return epoch, err == nil
}

// Server accepts handshakes.
type Server struct {
	cfg ServerConfig
}

// NewServer creates a responder.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Rand == nil || cfg.Identity == nil {
		return nil, fmt.Errorf("securechan: server needs Rand and Identity: %w", ErrHandshake)
	}
	return &Server{cfg: cfg}, nil
}

// Pending is a server-side handshake awaiting the client's Finish.
type Pending struct {
	srv        *Server
	transcript [32]byte
	sess       *Session
	epoch      uint64
}

// Epoch returns the fleet config epoch the pending session's keys were
// derived at — the hello's stamp, which an epoch-0 (ungated) server
// accepts verbatim. Epoch-aware servers track sessions by this value, not
// by their own gate: a gate still at 0 says nothing about what epoch the
// client keyed itself to.
func (p *Pending) Epoch() uint64 { return p.epoch }

// Respond consumes a ClientHello and produces the second message
// (server → client) plus the pending state.
func (s *Server) Respond(hello []byte) ([]byte, *Pending, error) {
	fields, helloEpoch, err := splitHello(hello)
	if err != nil {
		return nil, nil, err
	}
	if s.cfg.ConfigEpoch > 0 && helloEpoch != s.cfg.ConfigEpoch {
		return nil, nil, fmt.Errorf("hello at epoch %d, fleet at %d: %w",
			helloEpoch, s.cfg.ConfigEpoch, ErrEpoch)
	}
	clientPub, err := ecdh.X25519().NewPublicKey(fields[0])
	if err != nil {
		return nil, nil, fmt.Errorf("client key: %w", ErrHandshake)
	}
	clientNonce := fields[1]
	priv, err := ecdh.X25519().GenerateKey(randReader{s.cfg.Rand})
	if err != nil {
		return nil, nil, fmt.Errorf("securechan: keygen: %w", err)
	}
	serverNonce := s.cfg.Rand.Bytes(nonceLen)
	idPub := s.cfg.Identity.Public()

	transcript := cryptoutil.Hash([]byte(protoTag), hello,
		priv.PublicKey().Bytes(), serverNonce, idPub)
	sig := s.cfg.Identity.Sign(transcript[:])
	var evidence []byte
	if s.cfg.Evidence != nil {
		evidence, err = s.cfg.Evidence(transcript)
		if err != nil {
			return nil, nil, fmt.Errorf("server evidence: %w", err)
		}
	}
	resp := append(lv(priv.PublicKey().Bytes()), lv(serverNonce)...)
	resp = append(resp, lv(idPub)...)
	resp = append(resp, lv(sig)...)
	resp = append(resp, lv(evidence)...)

	shared, err := priv.ECDH(clientPub)
	if err != nil {
		return nil, nil, fmt.Errorf("ecdh: %w", ErrHandshake)
	}
	sess := deriveSession(shared, clientNonce, serverNonce, helloEpoch, false)
	return resp, &Pending{srv: s, transcript: transcript, sess: sess, epoch: helloEpoch}, nil
}

// notify reports a handshake outcome to the configured Events hook.
func notify(events func(kind, detail string), err error) {
	if events == nil {
		return
	}
	if err != nil {
		events("handshake-fail", err.Error())
		return
	}
	events("handshake-ok", "")
}

// Finish consumes the server's response, authenticates it, and returns the
// client session plus the third message (client → server).
func (c *Client) Finish(resp []byte) (*Session, []byte, error) {
	sess, finish, err := c.finish(resp)
	notify(c.cfg.Events, err)
	return sess, finish, err
}

func (c *Client) finish(resp []byte) (*Session, []byte, error) {
	fields, err := splitLV(resp, 5)
	if err != nil {
		return nil, nil, err
	}
	serverPub, err := ecdh.X25519().NewPublicKey(fields[0])
	if err != nil {
		return nil, nil, fmt.Errorf("server key: %w", ErrHandshake)
	}
	serverNonce, idPubRaw, sig, evidence := fields[1], fields[2], fields[3], fields[4]
	if len(idPubRaw) != ed25519.PublicKeySize {
		return nil, nil, fmt.Errorf("identity key size: %w", ErrHandshake)
	}
	idPub := ed25519.PublicKey(idPubRaw)
	transcript := cryptoutil.Hash([]byte(protoTag), c.hello,
		fields[0], serverNonce, idPubRaw)
	if !cryptoutil.Verify(idPub, transcript[:], sig) {
		return nil, nil, fmt.Errorf("server signature: %w", ErrHandshake)
	}
	if err := c.cfg.VerifyServer(idPub, transcript, evidence); err != nil {
		return nil, nil, fmt.Errorf("server rejected by policy: %w", err)
	}
	shared, err := c.priv.ECDH(serverPub)
	if err != nil {
		return nil, nil, fmt.Errorf("ecdh: %w", ErrHandshake)
	}
	sess := deriveSession(shared, c.nonce, serverNonce, c.cfg.ConfigEpoch, true)

	var clientEvidence []byte
	if c.cfg.Evidence != nil {
		clientEvidence, err = c.cfg.Evidence(transcript)
		if err != nil {
			return nil, nil, fmt.Errorf("client evidence: %w", err)
		}
	}
	// The finish message doubles as key confirmation: it is sealed under
	// the fresh session key.
	finish, err := sess.Seal(clientEvidence)
	if err != nil {
		return nil, nil, err
	}
	return sess, finish, nil
}

// Complete consumes the client's finish message, enforcing client
// attestation when the server demands it, and returns the server session.
func (p *Pending) Complete(finish []byte) (*Session, error) {
	sess, err := p.complete(finish)
	notify(p.srv.cfg.Events, err)
	return sess, err
}

func (p *Pending) complete(finish []byte) (*Session, error) {
	evidence, err := p.sess.Open(finish)
	if err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	if p.srv.cfg.VerifyClient != nil {
		if err := p.srv.cfg.VerifyClient(evidence, p.transcript); err != nil {
			return nil, fmt.Errorf("client rejected by policy: %w", err)
		}
	}
	return p.sess, nil
}

// Transcript returns the handshake transcript hash (for binding
// application data to the channel).
func (p *Pending) Transcript() [32]byte { return p.transcript }

// RatchetInterval is the number of records after which each direction's
// key is ratcheted forward automatically. Ratcheting is one-way (HKDF), so
// a key compromised later cannot decrypt earlier traffic — forward secrecy
// within the session, not just across sessions.
const RatchetInterval = 64

// Session is one direction-aware record channel endpoint.
//
// Sessions are not safe for unsynchronized concurrent use: one goroutine
// at a time may seal, and one at a time may open. internal/distributed's
// stub seals only as the coalescer's flush leader and opens only under its
// receive token; its exporter does both inside its one Serve pass. The
// cached AEADs and scratch buffers below exist for that hot path — record
// sealing must not pay an AES key schedule, a fmt.Sprintf, or a SHA-256
// per record.
type Session struct {
	initiator bool
	sendKey   []byte
	recvKey   []byte
	sendSeq   uint64
	recvSeq   uint64
	sendEpoch uint64
	recvEpoch uint64

	// Cached AEADs for the current epoch keys, rebuilt lazily after a
	// ratchet. recvAEAD always corresponds to recvKey — trial-ratchets that
	// fail to authenticate commit neither.
	sendAEAD cipher.AEAD
	recvAEAD cipher.AEAD

	// Cached 4-byte nonce prefixes (SHA-256 of the direction label); the
	// full nonce is prefix || big-endian seq, byte-identical to
	// cryptoutil.DeriveNonce.
	sendPrefix [4]byte
	recvPrefix [4]byte

	// Reusable scratch for the per-record associated data, one per
	// direction, and the nonce, which only sealing uses: a pipelined stub
	// seals as flush leader while another caller opens under the receive
	// token, so the two halves of a session run concurrently and must not
	// share scratch.
	// The AD scratch is a slice, not a fixed array, because coalesced
	// records (SealToAD/OpenToAD) extend the AD with a caller header of up
	// to a few hundred bytes; the slice keeps its grown capacity so the
	// deep-pipeline path still allocates nothing after warmup.
	sendAD []byte
	recvAD []byte
	nonce  [cryptoutil.NonceSize]byte
}

// deriveSession derives the record keys. When cfgEpoch is non-zero the
// fleet config epoch is folded into the HKDF salt, so the same ECDH
// shared secret yields unrelated keys in different epochs — a session
// keyed before a rekey cannot produce records that authenticate after
// it. Epoch 0 keeps the derivation byte-identical to the pre-epoch wire.
func deriveSession(shared, clientNonce, serverNonce []byte, cfgEpoch uint64, initiator bool) *Session {
	salt := append(append([]byte(nil), clientNonce...), serverNonce...)
	if cfgEpoch > 0 {
		var e [epochLen]byte
		binary.BigEndian.PutUint64(e[:], cfgEpoch)
		salt = append(salt, e[:]...)
	}
	keys := cryptoutil.HKDF(shared, salt, []byte("lateral-record-keys"), 2*cryptoutil.KeySize)
	c2s, s2c := keys[:cryptoutil.KeySize], keys[cryptoutil.KeySize:]
	s := &Session{initiator: initiator}
	if initiator {
		s.sendKey, s.recvKey = c2s, s2c
	} else {
		s.sendKey, s.recvKey = s2c, c2s
	}
	s.sendPrefix = noncePrefix(s.dir(true))
	s.recvPrefix = noncePrefix(s.dir(false))
	return s
}

// noncePrefix caches the context half of cryptoutil.DeriveNonce: the first
// four bytes of SHA-256(dir).
func noncePrefix(dir string) (p [4]byte) {
	d := cryptoutil.Hash([]byte(dir))
	copy(p[:], d[:4])
	return p
}

// appendAD encodes the per-record associated data "dir:seq" — byte-identical
// to the fmt.Sprintf("%s:%d", dir, seq) encoding earlier wire versions used
// (TestADEncodingMatchesLegacy pins the equivalence), without the
// formatting machinery or its allocations.
func appendAD(dst []byte, dir string, seq uint64) []byte {
	dst = append(dst, dir...)
	dst = append(dst, ':')
	return strconv.AppendUint(dst, seq, 10)
}

func (s *Session) dir(sending bool) string {
	if s.initiator == sending {
		return "c2s"
	}
	return "s2c"
}

// ratchet advances a key one epoch: k' = HKDF(k). The old key is
// overwritten; there is no way back.
func ratchet(key []byte, epoch uint64) []byte {
	var e [8]byte
	for i := 0; i < 8; i++ {
		e[7-i] = byte(epoch >> (8 * i))
	}
	return cryptoutil.HKDF(key, e[:], []byte("lateral-ratchet"), cryptoutil.KeySize)
}

// epochFor returns the ratchet epoch a sequence number belongs to.
func epochFor(seq uint64) uint64 {
	return (seq - 1) / RatchetInterval
}

// Seal encrypts one record with the next sequence number, ratcheting the
// send key at epoch boundaries.
func (s *Session) Seal(plaintext []byte) ([]byte, error) {
	return s.SealTo(nil, plaintext)
}

// SealTo is Seal with a caller-supplied destination: the record (8-byte
// big-endian sequence header, nonce, ciphertext) is appended to dst and the
// extended slice returned. With enough spare capacity in dst the record
// layer allocates nothing.
func (s *Session) SealTo(dst, plaintext []byte) ([]byte, error) {
	return s.SealToAD(dst, plaintext, nil)
}

// SealToAD is SealTo with extra associated data: the record authenticates
// extraAD in addition to the usual "dir:seq" binding without transmitting
// it, so the peer must present the identical bytes to OpenToAD or the open
// fails. Coalesced wire records bind their cleartext header (sub-frame
// count and every correlation ID) this way — a tampered header cannot
// survive the AEAD pass. An empty extraAD is byte-identical to SealTo.
func (s *Session) SealToAD(dst, plaintext, extraAD []byte) ([]byte, error) {
	s.sendSeq++
	seq := s.sendSeq
	for s.sendEpoch < epochFor(seq) {
		s.sendEpoch++
		s.sendKey = ratchet(s.sendKey, s.sendEpoch)
		s.sendAEAD = nil
	}
	if s.sendAEAD == nil {
		aead, err := cryptoutil.NewAEAD(s.sendKey)
		if err != nil {
			return nil, err
		}
		s.sendAEAD = aead
	}
	ad := appendAD(s.sendAD[:0], s.dir(true), seq)
	ad = append(ad, extraAD...)
	s.sendAD = ad[:0] // keep grown capacity for the next record
	copy(s.nonce[:4], s.sendPrefix[:])
	binary.BigEndian.PutUint64(s.nonce[4:], seq)
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], seq)
	dst = append(dst, hdr[:]...)
	return cryptoutil.SealTo(dst, s.sendAEAD, s.nonce[:], plaintext, ad), nil
}

// Open decrypts one record, enforcing strictly increasing sequence
// numbers: replays and reordering are rejected.
func (s *Session) Open(record []byte) ([]byte, error) {
	return s.OpenTo(nil, record)
}

// OpenTo is Open with a caller-supplied destination: the plaintext is
// appended to dst and the extended slice returned.
func (s *Session) OpenTo(dst, record []byte) ([]byte, error) {
	return s.OpenToAD(dst, record, nil)
}

// OpenToAD is OpenTo with extra associated data, the receiving half of
// SealToAD: the open succeeds only if extraAD matches the bytes the sender
// bound. An empty extraAD is byte-identical to OpenTo.
func (s *Session) OpenToAD(dst, record, extraAD []byte) ([]byte, error) {
	if len(record) < 8 {
		return nil, fmt.Errorf("short record: %w", ErrHandshake)
	}
	seq := binary.BigEndian.Uint64(record[:8])
	if seq <= s.recvSeq {
		return nil, fmt.Errorf("sequence %d after %d: %w", seq, s.recvSeq, ErrReplay)
	}
	// Trial-ratchet to the record's epoch WITHOUT committing: a forged
	// record claiming a far-future sequence must not advance (and thereby
	// destroy) the receive key. maxEpochSkip caps the attacker-driven work.
	const maxEpochSkip = 1 << 14
	key, epoch, aead := s.recvKey, s.recvEpoch, s.recvAEAD
	target := epochFor(seq)
	if target > epoch+maxEpochSkip {
		return nil, fmt.Errorf("sequence %d skips %d epochs: %w", seq, target-epoch, ErrReplay)
	}
	for epoch < target {
		epoch++
		key = ratchet(key, epoch)
		aead = nil
	}
	if aead == nil {
		a, err := cryptoutil.NewAEAD(key)
		if err != nil {
			return nil, err
		}
		aead = a
	}
	ad := appendAD(s.recvAD[:0], s.dir(false), seq)
	ad = append(ad, extraAD...)
	s.recvAD = ad[:0] // keep grown capacity for the next record
	pt, err := cryptoutil.OpenTo(dst, aead, record[8:], ad)
	if err != nil {
		return nil, err
	}
	s.recvKey, s.recvEpoch, s.recvSeq, s.recvAEAD = key, epoch, seq, aead
	return pt, nil
}
