package lateral

// Fuzz targets for every parser that consumes attacker-controlled bytes:
// quote decoding, handshake messages, secure-channel records, VPFS blobs,
// and journal records. Each target's invariant is "no panic, and no
// acceptance of garbage as authentic".
//
// Run seeds as part of `go test`; fuzz continuously with e.g.
//
//	go test -fuzz=FuzzDecodeQuote -fuzztime=30s .

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/hw"
	"lateral/internal/journal"
	"lateral/internal/legacy"
	"lateral/internal/netsim"
	"lateral/internal/policy"
	"lateral/internal/securechan"
	"lateral/internal/sgx"
	"lateral/internal/simtest"
	"lateral/internal/vpfs"
)

func FuzzDecodeQuote(f *testing.F) {
	vendor := cryptoutil.NewSigner("fuzz-vendor")
	device := cryptoutil.NewSigner("fuzz-device")
	genuine := core.SignQuote("sgx-qe", cryptoutil.Hash([]byte("code")), []byte("nonce"),
		device, core.IssueVendorCert(vendor, device.Public()))
	f.Add(genuine.Encode())
	f.Add(append(genuine.Encode(), 0, 0)) // genuine quote, padded
	f.Add([]byte{})
	f.Add([]byte{0, 5, 'a', 'b'})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := core.DecodeQuote(data)
		if err != nil {
			return
		}
		// Evidence is canonical: an accepted quote re-encodes to exactly
		// the bytes that were decoded.
		if enc := q.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted quote re-encodes differently:\n in  %x\n out %x", data, enc)
		}
		// So a quote over mutated bytes must never verify.
		if !bytes.Equal(data, genuine.Encode()) {
			if err := core.VerifyQuote(q, []byte("nonce"), vendor.Public(), genuine.Measurement); err == nil {
				t.Fatal("mutated quote verified")
			}
		}
	})
}

func FuzzServerRespond(f *testing.F) {
	id := cryptoutil.NewSigner("fuzz-server")
	// A genuine hello as seed.
	client, err := securechan.NewClient(securechan.ClientConfig{
		Rand:         cryptoutil.NewPRNG("fuzz-c"),
		VerifyServer: func(_ ed25519.PublicKey, _ [32]byte, _ []byte) error { return nil },
	})
	_ = err
	if client != nil {
		f.Add(client.Hello())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		server, err := securechan.NewServer(securechan.ServerConfig{
			Rand: cryptoutil.NewPRNG("fuzz-s"), Identity: id,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Must not panic; errors are fine. An accepted hello has exactly
		// one encoding: one byte more is a trailing byte, refused.
		if _, _, err := server.Respond(data); err != nil {
			return
		}
		longer := append(append([]byte(nil), data...), 0)
		if _, _, err := server.Respond(longer); !errors.Is(err, securechan.ErrHandshake) {
			t.Fatalf("hello accepted, but with a trailing byte Respond = %v, want ErrHandshake", err)
		}
	})
}

// fuzzSessions runs one handshake and returns its client and server
// sessions.
func fuzzSessions(f *testing.F) (cs, ss *securechan.Session) {
	id := cryptoutil.NewSigner("fuzz-server")
	client, _ := securechan.NewClient(securechan.ClientConfig{
		Rand:         cryptoutil.NewPRNG("c"),
		VerifyServer: func(_ ed25519.PublicKey, _ [32]byte, _ []byte) error { return nil },
	})
	server, _ := securechan.NewServer(securechan.ServerConfig{
		Rand: cryptoutil.NewPRNG("s"), Identity: id,
	})
	resp, pending, err := server.Respond(client.Hello())
	if err != nil {
		f.Fatal(err)
	}
	cs, finish, err := client.Finish(resp)
	if err != nil {
		f.Fatal(err)
	}
	ss, err = pending.Complete(finish)
	if err != nil {
		f.Fatal(err)
	}
	return cs, ss
}

func FuzzSessionOpen(f *testing.F) {
	cs, ss := fuzzSessions(f)
	rec, _ := cs.Seal([]byte("genuine record"))
	f.Add(rec)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The genuine record was never delivered, so ANY fuzzed input —
		// including the genuine bytes mutated or not — must either fail
		// or be the exact genuine record (which is fine once).
		pt, err := ss.Open(data)
		if err == nil && !bytes.Equal(pt, []byte("genuine record")) {
			t.Fatalf("forged record opened: %q", pt)
		}
	})
}

// FuzzDistributedFrame covers the call-frame decoder behind the attested
// channel: the plaintext the exporter parses after a record opens. The
// invariant is no panic, and whatever decodes must re-encode to the very
// bytes it was decoded from (a frame has exactly one encoding) and decode
// again to the same (span, budget, corr, taint, op, data) tuple. Seeds mix
// the optional fields (span, budget, taint) present and absent, truncated
// fields, unknown future flag bits, frames without the mandatory
// correlation ID, and optional fields carried at their zero value.
func FuzzDistributedFrame(f *testing.F) {
	untraced := distributed.AppendRequest(nil, distributed.Request{Corr: 1, Op: "put", Data: []byte("doc")})
	traced := distributed.AppendRequest(nil, distributed.Request{
		Span: core.Span{Trace: 7, ID: 9}, Corr: 2, Op: "get"})
	budgeted := distributed.AppendRequest(nil, distributed.Request{
		Budget: 250 * time.Millisecond, Corr: 3, Op: "put", Data: []byte("doc")})
	both := distributed.AppendRequest(nil, distributed.Request{
		Span: core.Span{Trace: 7, ID: 9}, Budget: time.Second, Corr: 4, Op: "get"})
	f.Add(untraced)
	f.Add(traced)
	f.Add(budgeted)
	f.Add(both)
	f.Add([]byte{})
	f.Add(untraced[:1])                                  // flags only
	f.Add(traced[:9])                                    // truncated span context
	f.Add(budgeted[:5])                                  // truncated budget
	f.Add(both[:20])                                     // span ok, budget cut short
	f.Add(append(slices.Clone(untraced[:9]), 0, 9, 'o')) // op length beyond frame
	f.Add([]byte{1, 0, 0, 0, 0})                         // traced flag, short span
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0})                // budget flag, 7-byte budget
	f.Add(append([]byte{1 << 5}, untraced[1:]...))       // unknown future flag bit
	// Mixed-fault shapes the simulation surfaces: ping frames (the health
	// probe op), duplicated frames, bit-flipped budgets, and a frame whose
	// every flag bit is set.
	ping := distributed.AppendRequest(nil, distributed.Request{
		Budget: time.Millisecond, Corr: 5, Op: distributed.PingOp})
	f.Add(ping)
	f.Add(append(append([]byte{}, ping...), ping...)) // duplicated datagram
	flipped := append([]byte{}, budgeted...)
	flipped[len(flipped)-1] ^= 0x01 // the linkTamperer mutation
	f.Add(flipped)
	f.Add(append([]byte{0xff}, both[1:]...)) // all flag bits set
	// Correlation IDs at the edges of their range (zero is a real ID); the
	// truncation seeds cut inside the correlation field and at the
	// span/budget/corr boundaries.
	corr := distributed.AppendRequest(nil, distributed.Request{
		Corr: 0x1122334455667788, Op: "put", Data: []byte("doc")})
	vFull := distributed.AppendRequest(nil, distributed.Request{
		Span: core.Span{Trace: 7, ID: 9}, Budget: time.Second,
		Corr: ^uint64(0), Op: "get"})
	zeroCorr := distributed.AppendRequest(nil, distributed.Request{Op: "get"})
	f.Add(corr)
	f.Add(vFull)
	f.Add(zeroCorr)
	f.Add(corr[:5])                                   // cut mid-correlation-id
	f.Add(vFull[:17])                                 // span ok, budget+corr gone
	f.Add(vFull[:25])                                 // span+budget ok, corr gone
	f.Add(append(append([]byte{}, corr...), corr...)) // duplicated v3 datagram
	// Taint-bearing frames: the chain's label set rides the wire, and the
	// decoder demands canonical form (sorted, deduplicated, bounded) — a
	// shuffled or duplicated label list must be rejected, never normalized.
	tainted := distributed.AppendRequest(nil, distributed.Request{
		Taint: []string{"ingress", "meter-identities"}, Corr: 6, Op: "put", Data: []byte("doc")})
	taintedFull := distributed.AppendRequest(nil, distributed.Request{
		Span: core.Span{Trace: 7, ID: 9}, Budget: time.Second, Corr: 3,
		Taint: []string{"a", "b", "c"}, Op: "get"})
	taintHead := tainted[:9] // taint and corr flags, then the correlation ID
	f.Add(tainted)
	f.Add(taintedFull)
	f.Add(taintHead)                                          // taint flag, count cut off
	f.Add(tainted[:12])                                       // cut inside the first label
	f.Add(append(slices.Clone(taintHead), 0))                 // taint flag, zero label count
	f.Add(append(slices.Clone(taintHead), 17))                // count beyond maxTaintLabels
	f.Add(append(slices.Clone(taintHead), 2, 1, 'b', 1, 'a')) // unsorted labels
	f.Add(append(slices.Clone(taintHead), 2, 1, 'a', 1, 'a')) // duplicated labels
	// Reply-frame shapes fed to the request decoder: the 8-byte correlation
	// prefix of a pipelined reply lands where flags belong, including an ID
	// no caller is parked on — decoders must reject, never panic.
	reply := append(binary.BigEndian.AppendUint64(nil, 0x1122334455667788), 0)
	orphanReply := append(binary.BigEndian.AppendUint64(nil, ^uint64(0)), 0)
	f.Add(append(append([]byte{}, reply...), []byte("ok")...))
	f.Add(append(append([]byte{}, orphanReply...), []byte("doc")...))
	f.Add(reply[:3]) // shorter than any reply prefix
	// Coalesced-record shapes fed to the request decoder: the 0xC3 magic
	// lands where flags belong (its high bits are no known frame version, so
	// decode must reject), whole coalesced headers, and one sub-frame cut
	// out of its record — which IS a valid v3 frame and must round-trip.
	coalHdr := distributed.AppendCoalHeader(nil, []uint64{1, 2, 3})
	f.Add(coalHdr)
	f.Add(append(append([]byte{}, coalHdr...), corr...)) // header backed by a frame
	f.Add(corr)                                          // one sub-frame, as cut out of its record
	// A frame without the correlation field — the retired v2 shape — must
	// be rejected.
	f.Add(append([]byte{0}, untraced[9:]...))
	// Optional fields present at their zero value, which AppendRequest
	// elides: an all-zero span context and a zero budget must be rejected.
	f.Add(append(append([]byte{untraced[0] | 1}, make([]byte, 16)...), untraced[1:]...))
	f.Add(append(append([]byte{untraced[0] | 2}, make([]byte, 8)...), untraced[1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := distributed.DecodeRequest(data)
		if err != nil {
			return
		}
		if req.Budget < 0 {
			t.Fatalf("negative budget %v decoded", req.Budget)
		}
		again := distributed.AppendRequest(nil, req)
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs: %x from %x", again, data)
		}
		req2, err := distributed.DecodeRequest(again)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if req2.Span != req.Span || req2.Budget != req.Budget ||
			req2.Corr != req.Corr ||
			req2.Op != req.Op || !bytes.Equal(req2.Data, req.Data) {
			t.Fatalf("round trip unstable: %+v vs %+v", req, req2)
		}
		if !slices.Equal(req2.Taint, req.Taint) {
			t.Fatalf("taint round trip unstable: %v vs %v", req.Taint, req2.Taint)
		}
	})
}

// FuzzBatchFrameDecode covers the batched-ingestion payload codec: the
// batch a sealed datagram carries through one AEAD pass. The invariant is
// the canonical-form oracle the policy and journal fuzzers use: whatever
// DecodeBatch accepts, ReencodeBatch must reproduce byte-identically
// (the codec admits exactly one encoding per batch), and reencoding the
// canonical form is the identity. Every input also runs as a batch frame
// through a live stub and exporter, whose decode loop is DecodeBatch's: an
// accepted batch must run exactly its readings and get one reply entry
// each, and a refused one must fail the frame having run none. The payload
// is a coalesced body of call frames, so seeds mix well-formed batches,
// inputs that each break one field of that layout (the count, a sub-frame
// length, an op length inside a sub-frame, the trailing bytes, a reserved
// op), a valid reading ahead of a truncated one, duplicate readings, and
// whole request frames fed in as batch payloads.
func FuzzBatchFrameDecode(f *testing.F) {
	one, _ := distributed.EncodeBatch([]distributed.Reading{{Op: "reading", Data: []byte("meter-1=\x05")}})
	many, _ := distributed.EncodeBatch([]distributed.Reading{
		{Op: "put", Data: []byte("a=1")},
		{Op: "put", Data: []byte("b=2")},
		{Op: "get", Data: []byte("a")},
		{Op: "noop"},
	})
	dup, _ := distributed.EncodeBatch([]distributed.Reading{ // duplicate readings are legal payload
		{Op: "reading", Data: []byte("meter-7=\x03")},
		{Op: "reading", Data: []byte("meter-7=\x03")},
	})
	f.Add(one)
	f.Add(many)
	f.Add(dup)
	f.Add([]byte{})
	f.Add([]byte{0})                                                  // short count
	f.Add([]byte{0, 0})                                               // zero count
	f.Add([]byte{1, 1, 0, 0, 0, 2, 0, 0})                             // count beyond MaxCoalesce
	f.Add([]byte{0, 2, 0, 0, 0, 2, 0, 0})                             // count not backed by payload
	f.Add(many[:28])                                                  // truncated in the third sub-frame length
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0})                                // sub-frame cuts the op length
	f.Add([]byte{0, 1, 0, 0, 0, 3, 0, 5, 'p'})                        // sub-frame too short for its op
	f.Add(one[:len(one)-1])                                           // truncated mid-data
	f.Add([]byte{0, 1, 0xff, 0xff, 0xff, 0xff, 0})                    // sub-frame length past the payload
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0})                                // zero-length sub-frame
	f.Add(append(append([]byte{}, one...), 0))                        // trailing byte
	f.Add(append(append([]byte{}, many...), many...))                 // duplicated batch payload
	f.Add([]byte{0, 1, 0, 0, 0, 8, 0, 6, 0, 'b', 'a', 't', 'c', 'h'}) // reserved op
	// A valid put z=9 ahead of a truncated reading: it must not run.
	f.Add([]byte{0, 2, 0, 0, 0, 8, 0, 3, 'p', 'u', 't', 'z', '=', '9', 0, 0, 0, 7, 0, 3, 'p', 'u', 't', 'z'})
	// Framing confusion: whole request frames, one carrying a batch, fed
	// where a batch payload belongs.
	f.Add(distributed.AppendRequest(nil, distributed.Request{
		Span: core.Span{Trace: 7, ID: 9}, Budget: time.Second, Corr: 41, Op: "put", Data: []byte("doc")}))
	f.Add(distributed.AppendRequest(nil, distributed.Request{
		Corr: 42, Op: distributed.BatchOp, Data: one}))
	stub, sink := fuzzBatchExporter(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		canon, err := distributed.ReencodeBatch(data)
		before := sink.handled.Load()
		reply, ferr := stub.Handle(core.Envelope{Msg: core.Message{Op: distributed.BatchOp, Data: data}})
		ran := sink.handled.Load() - before
		if err != nil {
			if ferr == nil || ran != 0 {
				t.Fatalf("refused batch %x: frame error %v after %d readings ran, want a failed frame that ran none", data, ferr, ran)
			}
			return
		}
		want := int64(binary.BigEndian.Uint16(data))
		if ferr != nil || ran != want || reply.Op != distributed.BatchOp ||
			len(reply.Data) < 2 || int64(binary.BigEndian.Uint16(reply.Data)) != want {
			t.Fatalf("accepted batch of %d: frame error %v, %d readings ran, reply %q %x", want, ferr, ran, reply.Op, reply.Data)
		}
		if !bytes.Equal(canon, data) {
			t.Fatalf("accepted batch not canonical: %x reencoded to %x", data, canon)
		}
		again, err := distributed.ReencodeBatch(canon)
		if err != nil {
			t.Fatalf("canonical batch rejected on reencode: %v", err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonical form unstable: %x vs %x", canon, again)
		}
	})
}

// batchSink is the exported component behind FuzzBatchFrameDecode's
// exporter: it counts the readings that reach it.
type batchSink struct{ handled atomic.Int64 }

func (*batchSink) CompName() string     { return "sink" }
func (*batchSink) CompVersion() string  { return "1.0" }
func (*batchSink) Init(*core.Ctx) error { return nil }
func (s *batchSink) Handle(core.Envelope) (core.Message, error) {
	s.handled.Add(1)
	return core.Message{Op: "ok"}, nil
}

// fuzzBatchExporter exports a batchSink and returns a connected stub that
// pumps the exporter inline, so every call's readings have reached the
// sink by the time it returns.
func fuzzBatchExporter(f *testing.F) (*distributed.Stub, *batchSink) {
	net := netsim.New()
	sub, err := sgx.New(sgx.Config{DeviceSeed: "fuzz-cpu", Vendor: cryptoutil.NewSigner("intel")})
	if err != nil {
		f.Fatal(err)
	}
	sys := core.NewSystem(sub)
	sink := &batchSink{}
	if err := sys.Launch(sink, true, 1); err != nil {
		f.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		f.Fatal(err)
	}
	exp, err := distributed.NewExporter(distributed.ExportConfig{
		System:    sys,
		Component: "sink",
		Endpoint:  net.Attach("cloud"),
		Identity:  cryptoutil.NewSigner("cloud-tls"),
		Rand:      cryptoutil.NewPRNG("fuzz-srv"),
	})
	if err != nil {
		f.Fatal(err)
	}
	stub, err := distributed.NewStub(distributed.StubConfig{
		RemoteName:     "sink",
		RemoteEndpoint: "cloud",
		Endpoint:       net.Attach("laptop"),
		Rand:           cryptoutil.NewPRNG("fuzz-cli"),
		VerifyServer:   func(ed25519.PublicKey, [32]byte, []byte) error { return nil },
		Pump:           exp.Serve,
	})
	if err != nil {
		f.Fatal(err)
	}
	if err := stub.Connect(); err != nil {
		f.Fatal(err)
	}
	return stub, sink
}

// FuzzCoalescedRecord is the record-level oracle. Every request and reply
// on the wire is a coalesced record: a cleartext header (magic, count,
// strictly increasing correlation table) that is also the sealed record's
// extra AD, over a decrypted body (count, length-prefixed sub-frames). The
// header and the body use the canonical-form oracle: whatever decodes must
// reencode byte-identically, so a duplicate or shuffled correlation table
// has no accepted encoding and no sub-frame can be accounted twice. A
// header that parses is also opened, under its own bytes as AD, on a
// session that never received the genuine record: whatever opens must be
// that record, so a header rewritten over genuine ciphertext never opens.
// Seeds mix well-formed records, a genuine one-sub record as a lone
// caller's flush seals it, truncated sub-frame tables, duplicate
// correlation IDs, and format confusion — a bare request frame where a
// record belongs, and a header where a body belongs.
func FuzzCoalescedRecord(f *testing.F) {
	cs, ss := fuzzSessions(f)
	frame := distributed.AppendRequest(nil, distributed.Request{
		Corr: 7, Op: "put", Data: []byte("doc")})
	record := make([]byte, 40) // stand-in for sealed bytes behind the header
	hdr1 := append(distributed.AppendCoalHeader(nil, []uint64{7}), record...)
	hdrN := append(distributed.AppendCoalHeader(nil, []uint64{1, 2, 1 << 56}), record...)
	body1 := distributed.AppendCoalBody(nil, [][]byte{frame})
	bodyN := distributed.AppendCoalBody(nil, [][]byte{frame, frame, []byte{0}})
	genuineHdr := distributed.AppendCoalHeader(nil, []uint64{7})
	genuine, err := cs.SealToAD(slices.Clone(genuineHdr), body1, genuineHdr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hdr1)
	f.Add(hdrN)
	f.Add(body1)
	f.Add(bodyN)
	f.Add([]byte{})
	f.Add([]byte{0xC3})             // magic, no count
	f.Add([]byte{0xC3, 0, 0})       // zero count
	f.Add([]byte{0xC3, 0xff, 0xff}) // count beyond MaxCoalesce
	f.Add(hdrN[:11])                // truncated correlation table
	f.Add(hdrN[:3+24])              // table complete, record missing
	dup := append(distributed.AppendCoalHeader(nil, []uint64{5, 9}), record...)
	binary.BigEndian.PutUint64(dup[3+8:], 5) // duplicate correlation IDs
	f.Add(dup)
	unsorted := append(distributed.AppendCoalHeader(nil, []uint64{5, 9}), record...)
	binary.BigEndian.PutUint64(unsorted[3:], 10) // 10, 9: out of order
	f.Add(unsorted)
	f.Add(bodyN[:7])                             // truncated sub-frame length
	f.Add(bodyN[:len(bodyN)-2])                  // truncated final sub-frame
	f.Add(append(append([]byte{}, body1...), 0)) // trailing byte
	f.Add([]byte{0, 1, 0, 0, 0, 0})              // zero-length sub-frame
	// Format confusion both ways: a bare request frame where a record
	// belongs, and a record header where a body belongs.
	f.Add(frame)
	f.Add(hdr1[:3+8])
	f.Add(genuine) // count-1 header over a sealed one-frame body
	f.Fuzz(func(t *testing.T, data []byte) {
		if hdr, rest, err := distributed.ReencodeCoalHeader(data); err == nil {
			if !bytes.Equal(hdr, data[:len(hdr)]) {
				t.Fatalf("accepted header not canonical: %x reencoded to %x", data[:len(hdr)], hdr)
			}
			if len(hdr)+len(rest) != len(data) {
				t.Fatalf("header+record do not partition the input: %d+%d != %d", len(hdr), len(rest), len(data))
			}
			if pt, err := ss.OpenToAD(nil, rest, hdr); err == nil &&
				(!bytes.Equal(hdr, genuineHdr) || !bytes.Equal(pt, body1)) {
				t.Fatalf("forged record opened: header %x, body %x", hdr, pt)
			}
		}
		canon, err := distributed.ReencodeCoalBody(data)
		if err != nil {
			return
		}
		if !bytes.Equal(canon, data) {
			t.Fatalf("accepted body not canonical: %x reencoded to %x", data, canon)
		}
		again, err := distributed.ReencodeCoalBody(canon)
		if err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("canonical body unstable: %v, %x vs %x", err, canon, again)
		}
	})
}

// FuzzPolicyDecode covers the policy DSL parser: rule sets are loaded
// from operator-written files, so the decoder must never panic, must
// bound everything it accepts (labels, rule counts, token lengths), and
// must canonicalize: whatever decodes must re-encode to text that decodes
// and re-encodes byte-identically (policy.Reencode is the oracle — one
// rule set, exactly one canonical text form).
func FuzzPolicyDecode(f *testing.F) {
	f.Add("taint to-store ids meter-identities\ndeny no-exfil to-net * when meter-identities\nallow rest * *\n")
	f.Add("approve ops to-export put when a,b,c\n")
	f.Add("# comment\n\ntaint ch op x\n")
	f.Add("taint ch op b,a,b\ndeny  r  ch  op  when  z,a\n") // messy spacing, unsorted labels
	f.Add("")
	f.Add("allow")
	f.Add("deny r ch\n")
	f.Add("taint ch op\n")
	f.Add("allow r ch op when\n")
	f.Add("frobnicate r ch op\n")
	f.Add("taint ch op A,B\n")                                     // uppercase labels refused
	f.Add("deny r ch op when " + strings.Repeat("a,", 20) + "a\n") // over MaxLabels
	f.Add("allow " + strings.Repeat("x", 100) + " ch op\n")        // over MaxTokenLen
	f.Add(strings.Repeat("allow r ch op\n", 300))                  // over MaxRules (dup names too)
	f.Add("taint ch op a\x00b\n")
	f.Fuzz(func(t *testing.T, text string) {
		canon, err := policy.Reencode([]byte(text))
		if err != nil {
			return
		}
		again, err := policy.Reencode(canon)
		if err != nil {
			t.Fatalf("re-decode of canonical form failed: %v\n%s", err, canon)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonical form unstable:\n--- first\n%s--- second\n%s", canon, again)
		}
	})
}

// FuzzScheduleDecode covers the fault-schedule parser: schedules are
// loaded from files and fuzz corpora, so the decoder must never panic and
// must bound everything it allocates. Whatever decodes must re-encode to
// text that decodes to the identical schedule (the codec's roundtrip
// contract, also enforced by simtest.Validate).
func FuzzScheduleDecode(f *testing.F) {
	f.Add(simtest.EncodeSchedule(simtest.SoakSchedule(1, 3)))
	f.Add("@150ms crash svc-2\n@200ms heal svc-2\n")
	f.Add("@10ms partition lb-svc-1 svc-1\n@5ms delay 7 25 2ms 1\n")
	f.Add("@2ms skew 250ms\n@0s dup svc-1 2\n@1ms tamper\n")
	f.Add("# comment\n\n@5ms crash svc-1")
	f.Add("")
	f.Add("@\x00 crash x")
	f.Add("@99999999999999999ns crash x")
	f.Add("@5ms delay 18446744073709551615 100 24h 1048576")
	f.Add("@5ms dup " + string(bytes.Repeat([]byte{'a'}, 200)) + " 1")
	f.Fuzz(func(t *testing.T, text string) {
		sched, err := simtest.DecodeSchedule(text)
		if err != nil {
			return
		}
		enc := simtest.EncodeSchedule(sched)
		again, err := simtest.DecodeSchedule(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical form failed: %v\n%s", err, enc)
		}
		if enc2 := simtest.EncodeSchedule(again); enc2 != enc {
			t.Fatalf("canonical form unstable:\n--- first\n%s--- second\n%s", enc, enc2)
		}
	})
}

func FuzzVPFSRead(f *testing.F) {
	f.Add([]byte("garbage blob"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		dev := hw.NewBlockDevice("fuzz", 64)
		fs, err := legacy.Format(dev)
		if err != nil {
			t.Fatal(err)
		}
		v, err := vpfs.New(fs, cryptoutil.KeyFromSeed("fuzz"), vpfs.ModeMACOnly)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) > legacy.MaxFileSize {
			blob = blob[:legacy.MaxFileSize]
		}
		if err := fs.WriteFile("f", blob); err != nil {
			t.Fatal(err)
		}
		// Attacker-written blob must never decrypt successfully.
		if pt, err := v.ReadFile("f"); err == nil {
			t.Fatalf("attacker blob accepted: %q", pt)
		}
	})
}

func FuzzLegacyFSNames(f *testing.F) {
	f.Add("normal-name", []byte("content"))
	f.Add("", []byte{})
	f.Add(string(bytes.Repeat([]byte{0}, 40)), []byte("x"))
	f.Fuzz(func(t *testing.T, name string, content []byte) {
		dev := hw.NewBlockDevice("fuzz", 128)
		fs, err := legacy.Format(dev)
		if err != nil {
			t.Fatal(err)
		}
		if len(content) > legacy.MaxFileSize {
			content = content[:legacy.MaxFileSize]
		}
		if err := fs.WriteFile(name, content); err != nil {
			return // rejected names are fine
		}
		got, err := fs.ReadFile(name)
		if err != nil {
			t.Fatalf("wrote %q but cannot read: %v", name, err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("round trip mismatch for %q", name)
		}
	})
}

// FuzzJournalDecode covers the fleet black box's export parser and chain
// verifier: an auditor replays journals it fetched from possibly-hostile
// storage, so truncated entries, bit flips, spliced chains, and
// checkpoint/counter mismatches must all yield typed errors — never a
// panic, and never a "verified" verdict on bytes the journal did not
// produce. When Replay does accept an input, re-encoding what it decoded
// must reproduce the input byte-for-byte (the canonical-form oracle).
func FuzzJournalDecode(f *testing.F) {
	signer := cryptoutil.NewSigner("fuzz-journal")
	counter := &journal.MemCounter{}
	clk := time.Unix(1_700_000_000, 0)
	jnl, err := journal.New(journal.Config{
		Signer:          signer,
		Counter:         counter,
		CheckpointEvery: 3,
		Clock:           func() time.Time { clk = clk.Add(time.Millisecond); return clk },
	})
	if err != nil {
		f.Fatal(err)
	}
	jnl.RecordEvent(journal.KindAdmit, "svc/a", "", 0, 0)
	jnl.RecordEvent(journal.KindReplicaUp, "svc/a", "", 1, 2)
	jnl.RecordEvent(journal.KindAdmit, "svc/b", "", 0, 0)
	jnl.RecordEvent(journal.KindQuarantine, "svc/b", "measurement mismatch", 3, 4)
	jnl.RecordEvent(journal.KindDeadline, "anon", "core: deadline exceeded", 5, 6)
	export := jnl.Export()
	pub := signer.Public()

	f.Add(export)
	f.Add(export[:len(export)/2])             // truncated mid-stream
	f.Add(append([]byte(nil), export[5:]...)) // missing magic
	spliced := append([]byte(nil), export...)
	spliced = append(spliced, export[5:]...) // foreign records appended
	f.Add(spliced)
	flipped := append([]byte(nil), export...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte("LATJ\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, trusted := range []uint64{0, 1, 2} {
			audit, err := journal.Replay(data, pub, trusted)
			if err != nil {
				continue
			}
			// Accepted input must be in canonical form: what the auditor
			// decoded re-encodes to the exact bytes it verified.
			re := journal.Reencode(audit.Entries, audit.Checkpoints)
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted non-canonical journal (trusted=%d):\n in: %x\nout: %x", trusted, data, re)
			}
		}
	})
}
