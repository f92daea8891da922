package distributed

// Tests for wire-level frame coalescing: the coalesced record codec and
// its canonical-form guarantees, the AD binding of the cleartext header,
// exporter-side sub-frame fault isolation, in-order execution of a record
// under one budget anchor, and the stub's send-side coalescing under
// concurrent callers.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/netsim"
	"lateral/internal/securechan"
)

// TestCoalHeaderCodec pins the header codec: round-trip identity on valid
// input, rejection of everything else, and the Reencode canonical-form
// oracle (exactly one encoding per correlation table).
func TestCoalHeaderCodec(t *testing.T) {
	corrs := []uint64{3, 7, 1 << 40}
	record := make([]byte, 32) // stand-in for the sealed record
	b := AppendCoalHeader(nil, corrs)
	b = append(b, record...)

	got, rest, err := DecodeCoalHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(corrs) || got[0] != 3 || got[1] != 7 || got[2] != 1<<40 {
		t.Fatalf("decoded corrs = %v, want %v", got, corrs)
	}
	if len(rest) != len(record) {
		t.Fatalf("rest = %d bytes, want %d", len(rest), len(record))
	}
	hdr, _, err := ReencodeCoalHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(hdr) != string(b[:3+8*len(corrs)]) {
		t.Fatal("reencoded header is not byte-identical: codec is not canonical")
	}

	bad := map[string][]byte{
		"wrong magic":     append([]byte{0xC4}, b[1:]...),
		"empty":           {},
		"count zero":      append(AppendCoalHeader(nil, nil), record...),
		"truncated table": b[:3+8*len(corrs)-5],
		"unbacked record": b[:3+8*len(corrs)+3],
		"duplicate corrs": append(AppendCoalHeader(nil, []uint64{5, 5}), record...),
		"unsorted corrs":  append(AppendCoalHeader(nil, []uint64{9, 2}), record...),
	}
	overCount := MaxCoalesce + 1
	over := append([]byte{CoalMagic, byte(overCount >> 8), byte(overCount)}, make([]byte, 8*overCount+8)...)
	bad["count over max"] = over
	for name, in := range bad {
		if _, _, err := DecodeCoalHeader(in); !errors.Is(err, ErrTransport) {
			t.Errorf("%s: err = %v, want ErrTransport", name, err)
		}
	}
}

// TestCoalBodyCodec pins the body codec the same way.
func TestCoalBodyCodec(t *testing.T) {
	subs := [][]byte{[]byte("alpha"), []byte("b"), make([]byte, 300)}
	b := AppendCoalBody(nil, subs)

	got, err := DecodeCoalBody(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "alpha" || string(got[1]) != "b" || len(got[2]) != 300 {
		t.Fatalf("decoded subs = %d entries", len(got))
	}
	re, err := ReencodeCoalBody(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(b) {
		t.Fatal("reencoded body is not byte-identical: codec is not canonical")
	}

	bad := map[string][]byte{
		"empty":          {},
		"count zero":     {0, 0},
		"unbacked count": {0, 9, 0, 0, 0, 1, 'x'},
		"truncated sub":  b[:len(b)-100],
		"trailing bytes": append(AppendCoalBody(nil, [][]byte{[]byte("x")}), 0xFF),
	}
	zero := AppendCoalBody(nil, [][]byte{[]byte("ok"), {}})
	bad["zero-length sub"] = zero
	for name, in := range bad {
		if _, err := DecodeCoalBody(in); !errors.Is(err, ErrTransport) {
			t.Errorf("%s: err = %v, want ErrTransport", name, err)
		}
	}
}

// coalClient is a hand-rolled wire peer that seals coalesced request
// records directly, making the exporter-side tests deterministic: the
// stub's coalescer only forms multi-frame records when submits race, but a
// hand-built record carries exactly the sub-frames the test chose.
type coalClient struct {
	f    *fixture
	ep   *netsim.Endpoint
	sess *securechan.Session
	// tamperHeader flips a bit in the sealed record's cleartext header
	// before transmit.
	tamperHeader bool
	// truncateLast cuts the last two bytes off the body before sealing,
	// leaving the final sub-frame's length prefix claiming bytes the body
	// does not carry.
	truncateLast bool
}

func newCoalClient(t *testing.T, f *fixture, name string) *coalClient {
	t.Helper()
	ep := f.net.Attach(name)
	sess := handshakeByHand(t, f, ep, name+"-hs")
	return &coalClient{f: f, ep: ep, sess: sess}
}

// call seals one coalesced record carrying the given (corr, op, data)
// sub-frames, serves it, and returns the decrypted reply sub-frames keyed
// by correlation ID. serveErr is the exporter's Serve error, replied is
// false when no reply record came back at all.
func (c *coalClient) call(t *testing.T, subs []coalSub) (replies map[uint64][]byte, replied bool, serveErr error) {
	t.Helper()
	corrs := make([]uint64, len(subs))
	frames := make([][]byte, len(subs))
	for i, s := range subs {
		corrs[i] = s.corr
		fcorr := s.corr
		if s.frameCorr != 0 {
			fcorr = s.frameCorr
		}
		frames[i] = AppendRequest(nil, Request{Budget: s.budget, Corr: fcorr, Op: s.op, Data: s.data})
	}
	hdr := AppendCoalHeader(nil, corrs)
	body := AppendCoalBody(nil, frames)
	if c.truncateLast {
		body = body[:len(body)-2]
	}
	rec, err := c.sess.SealToAD(hdr, body, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if c.tamperHeader {
		rec[3] ^= 0x01 // flip a bit in the first correlation ID
	}
	if err := c.ep.Send("cloud", rec); err != nil {
		t.Fatal(err)
	}
	serveErr = c.f.exporter.Serve()
	dg, ok := c.ep.Recv()
	if !ok {
		return nil, false, serveErr
	}
	rcorrs, sealed, err := DecodeCoalHeader(dg.Payload)
	if err != nil {
		t.Fatalf("reply is not a coalesced record: %v", err)
	}
	rhdr := dg.Payload[:3+8*len(rcorrs)]
	plain, err := c.sess.OpenToAD(nil, sealed, rhdr)
	if err != nil {
		t.Fatalf("open coalesced reply: %v", err)
	}
	rsubs, err := DecodeCoalBody(plain)
	if err != nil {
		t.Fatalf("decode coalesced reply body: %v", err)
	}
	replies = make(map[uint64][]byte, len(rsubs))
	for i, sub := range rsubs {
		if len(sub) < 9 {
			t.Fatalf("reply sub %d too short", i)
		}
		corr := binary.BigEndian.Uint64(sub)
		if corr != rcorrs[i] {
			t.Fatalf("reply sub %d corr %d disagrees with header %d", i, corr, rcorrs[i])
		}
		replies[corr] = append([]byte(nil), sub[8:]...)
	}
	return replies, true, serveErr
}

type coalSub struct {
	corr uint64
	// frameCorr, when non-zero, is embedded in the sub-frame instead of
	// corr — the header/frame-mismatch tests use it.
	frameCorr uint64
	// budget, when positive, rides the sub-frame's budget field.
	budget time.Duration
	op     string
	data   []byte
}

// TestCoalescedRequestRoundTrip hand-seals a two-frame coalesced record
// and checks both sub-frames execute and both replies come back in one
// coalesced record, AD-bound to the reply header.
func TestCoalescedRequestRoundTrip(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "coal")

	replies, ok, err := c.call(t, []coalSub{
		{corr: 1, op: "put", data: []byte("k=v")},
		{corr: 2, op: "get", data: []byte("k")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	if len(replies) != 2 {
		t.Fatalf("%d replies, want 2", len(replies))
	}
	if r := replies[1]; len(r) == 0 || r[0] != statusOK {
		t.Fatalf("put reply = % x, want statusOK", r)
	}
	r := replies[2]
	if len(r) == 0 || r[0] != statusOK {
		t.Fatalf("get reply = % x, want statusOK", r)
	}
	if _, data, err := decodeCall(r[1:]); err != nil || string(data) != "v" {
		t.Fatalf("get reply body = %q, %v", data, err)
	}
}

// TestCoalescedHeaderTamperFailsOpen flips one bit of a correlation ID in
// the cleartext header after sealing: the header is the record's extra AD,
// so the open must fail and no reply may be produced — the binding the
// whole design leans on (DESIGN decision 14).
func TestCoalescedHeaderTamperFailsOpen(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "tamper")
	c.tamperHeader = true

	// Serve drops hostile frames without failing the service, so the only
	// observable is silence: no reply record may be produced.
	_, replied, _ := c.call(t, []coalSub{
		{corr: 1, op: "put", data: []byte("k=v")},
		{corr: 2, op: "get", data: []byte("k")},
	})
	if replied {
		t.Fatal("exporter replied to a record with a tampered header")
	}
	// The session survives (nothing was committed): a clean record works.
	c.tamperHeader = false
	replies, ok, err := c.call(t, []coalSub{{corr: 3, op: "put", data: []byte("a=b")}, {corr: 4, op: "get", data: []byte("a")}})
	if err != nil || !ok || len(replies) != 2 {
		t.Fatalf("session did not survive a rejected record: %v, %v, %d replies", err, ok, len(replies))
	}
}

// TestCoalescedSubCorrMismatch embeds a correlation ID in one sub-frame
// that disagrees with the AD-bound header entry: that sub-frame gets a
// typed error reply addressed by the header entry, and its sibling is
// unaffected.
func TestCoalescedSubCorrMismatch(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "mismatch")

	replies, ok, err := c.call(t, []coalSub{
		{corr: 1, frameCorr: 99, op: "put", data: []byte("k=v")},
		{corr: 2, op: "put", data: []byte("k2=v2")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	if r := replies[1]; len(r) == 0 || r[0] != statusErr {
		t.Fatalf("mismatched sub reply = % x, want statusErr", r)
	}
	if r := replies[2]; len(r) == 0 || r[0] != statusOK {
		t.Fatalf("sibling reply = % x, want statusOK", r)
	}
}

// TestCoalesceFaultDrop arms the exporter's drop fault: the dropped
// sub-frame is excluded from the reply entirely (its caller would resolve
// with a typed transport error on its next dry round) while its sibling
// completes normally.
func TestCoalesceFaultDrop(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "drop")

	f.exporter.FaultNextCoalesced("drop", 0)
	replies, ok, err := c.call(t, []coalSub{
		{corr: 1, op: "put", data: []byte("k=v")},
		{corr: 2, op: "put", data: []byte("k2=v2")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	if _, present := replies[1]; present {
		t.Fatal("dropped sub-frame still got a reply")
	}
	if r := replies[2]; len(r) == 0 || r[0] != statusOK {
		t.Fatalf("sibling reply = % x, want statusOK", r)
	}

	// The fault is one-shot: the next record is untouched.
	replies, ok, err = c.call(t, []coalSub{{corr: 3, op: "get", data: []byte("k2")}, {corr: 4, op: "get", data: []byte("k2")}})
	if err != nil || !ok || len(replies) != 2 {
		t.Fatalf("fault not one-shot: %v, %v, %d replies", err, ok, len(replies))
	}
}

// TestCoalesceFaultTamper arms the tamper fault: the corrupted sub-frame
// fails decode and gets a typed error reply, siblings unaffected.
func TestCoalesceFaultTamper(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "subtamper")

	f.exporter.FaultNextCoalesced("tamper", 1)
	replies, ok, err := c.call(t, []coalSub{
		{corr: 1, op: "put", data: []byte("k=v")},
		{corr: 2, op: "put", data: []byte("k2=v2")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	if r := replies[2]; len(r) == 0 || r[0] != statusErr {
		t.Fatalf("tampered sub reply = % x, want statusErr", r)
	}
	if r := replies[1]; len(r) == 0 || r[0] != statusOK {
		t.Fatalf("sibling reply = % x, want statusOK", r)
	}
}

// TestCoalescedPingSubFrame checks a ping sub-frame is answered inline in
// its slot (no component dispatch) alongside an executing sibling.
func TestCoalescedPingSubFrame(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "ping")

	replies, ok, err := c.call(t, []coalSub{
		{corr: 1, op: PingOp},
		{corr: 2, op: "put", data: []byte("k=v")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	r := replies[1]
	if len(r) == 0 || r[0] != statusOK {
		t.Fatalf("ping reply = % x, want statusOK", r)
	}
	if op, _, err := decodeCall(r[1:]); err != nil || op != PongOp {
		t.Fatalf("ping reply op = %q, %v, want pong", op, err)
	}
	if r := replies[2]; len(r) == 0 || r[0] != statusOK {
		t.Fatalf("sibling reply = % x, want statusOK", r)
	}
}

// TestCoalescedRecordRunsInOrder alternates puts and gets of one key in
// an eight-sub-frame record: every get must see the value the put just
// before it wrote, because a record's sub-frames run in header order.
func TestCoalescedRecordRunsInOrder(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "order")

	var subs []coalSub
	for i := 0; i < 4; i++ {
		subs = append(subs,
			coalSub{corr: uint64(2*i + 1), op: "put", data: []byte(fmt.Sprintf("a=%d", i))},
			coalSub{corr: uint64(2*i + 2), op: "get", data: []byte("a")})
	}
	replies, ok, err := c.call(t, subs)
	if err != nil || !ok || len(replies) != len(subs) {
		t.Fatalf("serve = %v, replied = %v, %d replies", err, ok, len(replies))
	}
	for i := 0; i < 4; i++ {
		r := replies[uint64(2*i+2)]
		if len(r) == 0 || r[0] != statusOK {
			t.Fatalf("get %d reply = % x, want statusOK", i, r)
		}
		if _, data, err := decodeCall(r[1:]); err != nil || string(data) != fmt.Sprint(i) {
			t.Errorf("get after put a=%d read %q, %v", i, data, err)
		}
	}
}

// TestCoalescedRecordBudgetsShareOneAnchor stalls the first sub-frame of a
// record past the 30ms budget both sub-frames carry. Both budgets were
// anchored when the record started, so the put queued behind the stall is
// refused with a deadline too — and must never apply once the stall
// releases the component, because its caller was already told it failed.
func TestCoalescedRecordBudgetsShareOneAnchor(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "anchor")

	const budget = 30 * time.Millisecond
	replies, ok, err := c.call(t, []coalSub{
		{corr: 1, budget: budget, op: "stall"},
		{corr: 2, budget: budget, op: "put", data: []byte("k=v")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	for corr := uint64(1); corr <= 2; corr++ {
		if r := replies[corr]; len(r) == 0 || r[0] != statusDeadline {
			t.Errorf("sub-frame %d reply = % x, want statusDeadline", corr, r)
		}
	}
	// Outlast the abandoned stall, then look for the refused put.
	time.Sleep(150 * time.Millisecond)
	replies, ok, err = c.call(t, []coalSub{{corr: 3, op: "get", data: []byte("k")}})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	if r := replies[3]; len(r) == 0 || r[0] != statusErr {
		t.Fatalf("get k after a refused put = % x, want statusErr (no such doc)", r)
	}
}

// TestCoalescedMalformedBodyRunsNothing truncates the third sub-frame of a
// record of puts: the body's framing is checked before any sub-frame runs,
// so the record gets no reply and none of its puts applies.
func TestCoalescedMalformedBodyRunsNothing(t *testing.T) {
	f := newFixture(t, nil, false)
	c := newCoalClient(t, f, "malformed")

	c.truncateLast = true
	_, replied, _ := c.call(t, []coalSub{
		{corr: 1, op: "put", data: []byte("a=1")},
		{corr: 2, op: "put", data: []byte("b=2")},
		{corr: 3, op: "put", data: []byte("c=3")},
	})
	if replied {
		t.Fatal("exporter replied to a record with a truncated sub-frame")
	}
	c.truncateLast = false
	replies, ok, err := c.call(t, []coalSub{
		{corr: 4, op: "get", data: []byte("a")},
		{corr: 5, op: "get", data: []byte("b")},
	})
	if err != nil || !ok {
		t.Fatalf("serve = %v, replied = %v", err, ok)
	}
	for corr, r := range replies {
		if len(r) == 0 || r[0] != statusErr {
			t.Errorf("get %d after a dropped record = % x, want statusErr (no such doc)", corr, r)
		}
	}
}

// TestConcurrentCallsCoalesce drives concurrent callers through one stub
// and checks the send path actually coalesces: fewer sealed records than
// issued calls, at least one multi-frame record, exactly-once completion,
// and the record/sub-frame books consistent.
func TestConcurrentCallsCoalesce(t *testing.T) {
	f := newFixture(t, nil, false)
	stub, _ := pipeFixture(t, f, 200*time.Microsecond)
	if err := stub.Connect(); err != nil {
		t.Fatal(err)
	}

	const workers, per = 8, 20
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
	if st.Issued != workers*per || st.Completed != workers*per || st.Inflight != 0 {
		t.Fatalf("books: %+v, want %d issued = completed", st, workers*per)
	}
	if st.CoalescedRecords == 0 {
		t.Fatal("no coalesced record formed under 8 concurrent callers")
	}
	if st.Records >= st.Issued {
		t.Errorf("records = %d for %d calls: coalescing saved nothing", st.Records, st.Issued)
	}
	// Every record is either plain (one sub-frame) or coalesced: the books
	// must balance exactly.
	if plain := st.Records - st.CoalescedRecords; plain+st.CoalescedSubs != st.Issued {
		t.Errorf("record books unbalanced: %d plain + %d coalesced subs != %d issued",
			plain, st.CoalescedSubs, st.Issued)
	}
	if st.CoalescedSubs < 2*st.CoalescedRecords {
		t.Errorf("coalesced records carry < 2 subs on average: %+v", st)
	}
}

// TestSequentialCallsStayPlain pins wire interop: a purely sequential
// caller never coalesces, so every record is a plain v3 record —
// byte-compatible with pre-coalescing peers — and the explorer's
// deterministic traces stay byte-identical.
func TestSequentialCallsStayPlain(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := f.clientSys.Deliver("client", core.Message{Op: "put", Data: []byte(fmt.Sprintf("k%d=v", i))}); err != nil {
			t.Fatal(err)
		}
	}
	st := f.stub.Stats()
	if st.CoalescedRecords != 0 {
		t.Errorf("sequential calls coalesced: %+v", st)
	}
	if st.Records != st.Issued {
		t.Errorf("records = %d, want %d (one plain record per call)", st.Records, st.Issued)
	}
}
