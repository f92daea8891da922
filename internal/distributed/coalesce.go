// Wire-level frame coalescing: every request and reply is sealed as a
// coalesced record.
//
// Pipelining (wire v3) lets concurrent callers share wire *rounds*, but
// each call still pays its own AEAD pass. Coalescing amortizes the crypto
// too: senders parked behind the flush leader enqueue plaintext sub-frames,
// and the leader drains the queue and seals everything it drained (at most
// MaxCoalesce) as a single coalesced record — one AEAD pass, one auth tag,
// N requests. A lone caller's flush seals a record of one sub-frame: the
// coalesced record is the only record format on the wire. The queue only
// ever holds callers that are waiting, so it needs no other cap. The
// exporter unseals once and runs the record on its Serve goroutine before
// it reads the next datagram: the sub-frames execute in header order (core
// serializes the exported component's handlers anyway), and their replies
// go back the same way, sealed as one coalesced reply record.
//
// Wire format of a coalesced record (all integers big-endian):
//
//	magic   byte    0xC3
//	count   uint16  1..MaxCoalesce
//	corr    uint64 × count    strictly increasing
//	record  []byte  a securechan record whose extra AD is the bytes above
//
// The cleartext header exists so the receiver can account for every
// sub-frame even when one fails to decode — but it is not trusted bare:
// the sealed record's associated data covers the magic, the count, and
// every correlation ID (securechan.SealToAD), so a tampered header cannot
// survive the AEAD open. The record's plaintext is the coalesced body:
//
//	count   uint16  must equal the header count
//	repeat count times:
//	  subLen uint32; sub [subLen]byte
//
// where each request sub is a complete v3 request frame (frameCorr set,
// matching the header entry) and each reply sub is a complete reply frame
// (8-byte correlation prefix, then the reply body: status byte, payload).
// A batch payload (batch.go) is a coalesced body one level down whose subs
// are call frames, and a batch reply one whose subs are reply bodies: the
// wire has one multi-invocation framing, walked by cutCoalBodyCount and
// cutCoalSub.
//
// The exporter tells a record from a handshake flight by its first byte,
// and never trial-opens one as the other. Handshake flights start with a
// zero byte: a hello with the 2-byte length prefix of its 32-byte key
// field, a finish with the 8-byte big-endian sequence of the handshake's
// first sealed record. So on an established session a datagram starting
// with the magic byte is opened as a record; any other datagram resets the
// session if securechan.HelloShaped says it is a hello, and is dropped
// otherwise.
package distributed

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lateral/internal/core"
	"lateral/internal/netsim"
	"lateral/internal/securechan"
)

// CoalMagic is the first byte of every coalesced record.
const CoalMagic = 0xC3

// MaxCoalesce bounds the sub-frames of every coalesced body — a record's,
// and so the most one flush seals into a record, and a batch payload's,
// and so the most readings one batch frame carries. It is the decode-side
// cap: cutCoalBodyCount refuses a larger count.
const MaxCoalesce = 256

// IsCoalesced reports whether a datagram payload is a coalesced record.
func IsCoalesced(b []byte) bool { return len(b) > 0 && b[0] == CoalMagic }

// AppendCoalHeader appends the cleartext coalesced-record header (magic,
// count, correlation table) to dst and returns the extended slice. The
// caller must supply 1..MaxCoalesce strictly increasing correlation IDs;
// cutCoalHeader rejects anything else, so a header has exactly one valid
// encoding.
func AppendCoalHeader(dst []byte, corrs []uint64) []byte {
	dst = append(dst, CoalMagic, byte(len(corrs)>>8), byte(len(corrs)))
	for _, c := range corrs {
		dst = binary.BigEndian.AppendUint64(dst, c)
	}
	return dst
}

// cutCoalHeader parses and validates the cleartext header, returning the
// header bytes (the sealed record's extra AD), the rest (the record), and
// the sub-frame count. Correlation IDs must be strictly increasing — the
// canonical order the flush leader emits — so a duplicated or shuffled
// table never parses and no sub-frame can be accounted twice.
func cutCoalHeader(b []byte) (hdr, rest []byte, n int, err error) {
	if len(b) < 3 || b[0] != CoalMagic {
		return nil, nil, 0, fmt.Errorf("not a coalesced record: %w", ErrTransport)
	}
	n = int(b[1])<<8 | int(b[2])
	if n == 0 || n > MaxCoalesce {
		return nil, nil, 0, fmt.Errorf("coalesced count %d out of range: %w", n, ErrTransport)
	}
	hlen := 3 + 8*n
	// The header must be backed by at least a minimal sealed record (8-byte
	// sequence header), so a forged count cannot claim bytes it doesn't have.
	if len(b) < hlen+8 {
		return nil, nil, 0, fmt.Errorf("coalesced header of %d not backed by record: %w", n, ErrTransport)
	}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		c := binary.BigEndian.Uint64(b[3+8*i:])
		if i > 0 && c <= prev {
			return nil, nil, 0, fmt.Errorf("coalesced correlation ids not strictly increasing: %w", ErrTransport)
		}
		prev = c
	}
	return b[:hlen], b[hlen:], n, nil
}

// coalCorr returns the i-th correlation ID of a validated header.
func coalCorr(hdr []byte, i int) uint64 {
	return binary.BigEndian.Uint64(hdr[3+8*i:])
}

// DecodeCoalHeader parses a coalesced-record header, returning the
// correlation IDs and the sealed record bytes (aliasing b). Exported for
// the fuzz harness and tooling; the hot path uses cutCoalHeader.
func DecodeCoalHeader(b []byte) (corrs []uint64, rest []byte, err error) {
	hdr, rest, n, err := cutCoalHeader(b)
	if err != nil {
		return nil, nil, err
	}
	corrs = make([]uint64, n)
	for i := range corrs {
		corrs[i] = coalCorr(hdr, i)
	}
	return corrs, rest, nil
}

// ReencodeCoalHeader decodes a coalesced-record header and re-emits it in
// canonical form, returning the re-encoded header and the untouched sealed
// record. Because the header admits exactly one encoding, the output is
// byte-identical to every valid input — the fuzz oracle asserts that.
func ReencodeCoalHeader(b []byte) (hdr, rest []byte, err error) {
	corrs, rest, err := DecodeCoalHeader(b)
	if err != nil {
		return nil, nil, err
	}
	return AppendCoalHeader(make([]byte, 0, 3+8*len(corrs)), corrs), rest, nil
}

// AppendCoalBody appends the coalesced body (the record plaintext) for the
// given sub-frames to dst and returns the extended slice.
func AppendCoalBody(dst []byte, subs [][]byte) []byte {
	dst = append(dst, byte(len(subs)>>8), byte(len(subs)))
	for _, sub := range subs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(sub)))
		dst = append(dst, sub...)
	}
	return dst
}

// cutCoalBodyCount parses and bounds the body's leading count. Each
// sub-frame costs at least its 4-byte length prefix plus one byte, so the
// count must be backed by the payload.
func cutCoalBodyCount(b []byte) (int, []byte, error) {
	if len(b) < 2 {
		return 0, nil, fmt.Errorf("truncated coalesced body count: %w", ErrTransport)
	}
	n := int(b[0])<<8 | int(b[1])
	if n == 0 || n > MaxCoalesce {
		return 0, nil, fmt.Errorf("coalesced body count %d out of range: %w", n, ErrTransport)
	}
	if len(b)-2 < 5*n {
		return 0, nil, fmt.Errorf("coalesced body count %d not backed by payload: %w", n, ErrTransport)
	}
	return n, b[2:], nil
}

// cutCoalSub parses one length-prefixed sub-frame off the front of b. The
// returned sub aliases b.
func cutCoalSub(b []byte) (sub, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("truncated sub-frame length: %w", ErrTransport)
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n == 0 {
		return nil, nil, fmt.Errorf("empty sub-frame: %w", ErrTransport)
	}
	if len(b) < n {
		return nil, nil, fmt.Errorf("truncated sub-frame: %w", ErrTransport)
	}
	return b[:n], b[n:], nil
}

// DecodeCoalBody parses a coalesced body into its sub-frames (aliasing b).
// Truncated tables, zero-length subs, and trailing bytes are rejected.
func DecodeCoalBody(b []byte) ([][]byte, error) {
	n, rest, err := cutCoalBodyCount(b)
	if err != nil {
		return nil, err
	}
	subs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		var sub []byte
		sub, rest, err = cutCoalSub(rest)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after coalesced body: %w", len(rest), ErrTransport)
	}
	return subs, nil
}

// ReencodeCoalBody decodes a coalesced body and re-emits it in canonical
// form — the identity on every valid input, which the fuzz oracle checks.
func ReencodeCoalBody(b []byte) ([]byte, error) {
	subs, err := DecodeCoalBody(b)
	if err != nil {
		return nil, err
	}
	return AppendCoalBody(make([]byte, 0, len(b)), subs), nil
}

// CoalesceMonitor receives coalescing telemetry; telemetry.Metrics
// implements it structurally (the same pattern as Monitor), and a Monitor
// that doesn't is simply not called.
type CoalesceMonitor interface {
	// StubCoalesce records one coalesced record sealed carrying subframes
	// sub-frames (always ≥ 2; a record of one sub-frame is not reported).
	StubCoalesce(stub string, subframes int)
}

type nopCoalesceMonitor struct{}

func (nopCoalesceMonitor) StubCoalesce(string, int) {}

// pendingSub is one request frame queued behind the flush leader: the
// caller's correlation ID and waiter (so a failed flush can resolve it),
// the session generation it was issued under (so a flush never seals a
// frame onto a session its caller was already broadcast off of), and the
// pooled frame buffer holding the encoded request.
//
// A sub has two stakeholders — the flush leader (until the frame is sealed
// or resolved) and the caller (whose demux loop must not mistake a
// not-yet-sent frame for a lost one). flushed flips once the flush has
// disposed of the frame; refs counts the stakeholders, and the last one to
// disengage (subDone) recycles the struct.
type pendingSub struct {
	gen     uint64
	corr    uint64
	w       *waiter
	buf     *[]byte
	frame   []byte
	flushed atomic.Bool
	refs    atomic.Int32
}

var subPool = sync.Pool{New: func() any { return new(pendingSub) }}

// coalescer is the stub-side flush queue. Exactly one goroutine at a time
// holds flushing; everyone else appends and parks on their waiter. The
// leader loops until it observes an empty queue under the lock, so an
// enqueuer either sees flushing set (the leader's next iteration collects
// its frame) or becomes the leader itself — no frame is ever stranded.
type coalescer struct {
	mu       sync.Mutex
	flushing bool
	queue    []*pendingSub
	// scratch is the leader's drain batch, reused across flushes (only the
	// flush leader touches it).
	scratch []*pendingSub
}

// submit enqueues one sealed-frame-to-be behind the flush leader and
// returns the caller's queue entry, so the demux loop can tell "frame not
// yet on the wire" from "reply lost". Normally nothing is transmitted
// here: the receive-token holder flushes the queue immediately before it
// pays for a wire round (flushQueue), which is what coalesces every frame
// that arrived during the previous round into one sealed record. The one
// exception is a submit landing while a round is already in flight
// (s.pumping): waiting would park this frame a full round behind the
// wire, so the submitter flushes immediately — the record reaches the
// remote in time for the in-flight round's serve, exactly as the
// uncoalesced wire behaved.
func (s *Stub) submit(gen, corr uint64, w *waiter, fp *[]byte, frame []byte) *pendingSub {
	sub := subPool.Get().(*pendingSub)
	sub.gen, sub.corr, sub.w, sub.buf, sub.frame = gen, corr, w, fp, frame
	sub.refs.Store(2) // the flush leader and the caller
	c := &s.coal
	c.mu.Lock()
	c.queue = append(c.queue, sub)
	c.mu.Unlock()
	if s.pumping.Load() {
		s.gatherWave()
		s.flushQueue()
	}
	return sub
}

// gatherWave yields until the flush queue stops growing (bounded), so a
// wave of concurrent submitters — typically the callers a drained round
// just woke, all racing their next request in — lands in one drain and
// shares records instead of each sealing its own. It returns early when a
// flush leader is already active (the leader's drain loop collects late
// arrivals anyway) and gives up after a fixed yield budget, so a lone
// caller pays one scheduler yield, never a stall: at any real RTT the
// gather is noise, and correctness never depends on it.
func (s *Stub) gatherWave() {
	c := &s.coal
	last := -1
	for i := 0; i < 64; i++ {
		c.mu.Lock()
		n, flushing := len(c.queue), c.flushing
		c.mu.Unlock()
		if flushing || n == last {
			return
		}
		last = n
		runtime.Gosched()
	}
}

// flushQueue drains the coalescer until it observes an empty queue,
// sealing at most MaxCoalesce sub-frames per record. Exactly one flusher
// runs at a time; a caller that loses the flushing flag returns
// immediately (its frame is the current flusher's to dispose of). Errors —
// the flusher's own call included — are resolved through the waiters.
func (s *Stub) flushQueue() {
	c := &s.coal
	c.mu.Lock()
	if c.flushing {
		c.mu.Unlock()
		return
	}
	c.flushing = true
	for len(c.queue) > 0 {
		n := min(len(c.queue), MaxCoalesce)
		batch := append(c.scratch[:0], c.queue[:n]...)
		m := copy(c.queue, c.queue[n:])
		for i := m; i < len(c.queue); i++ {
			c.queue[i] = nil
		}
		c.queue = c.queue[:m]
		c.mu.Unlock()
		s.flushBatch(batch)
		c.scratch = batch[:0]
		c.mu.Lock()
	}
	c.flushing = false
	c.mu.Unlock()
}

// flushBatch seals one coalesced record carrying the drained batch and
// transmits it. Only the flush leader runs it, so records reach the wire
// in send sequence order, as the exporter's channel demands, with no lock
// of their own. Stale sub-frames (session replaced since enqueue) are
// dropped: their callers were already resolved by the replacing path's
// broadcast. A seal or send failure resolves every drained caller whose
// registration this flush still owns.
func (s *Stub) flushBatch(batch []*pendingSub) {
	s.mu.Lock()
	sess, gen := s.sess, s.gen
	s.mu.Unlock()

	// Partition in place: live sub-frames (current generation) to the
	// front. Stale ones are simply marked disposed — their waiters already
	// hold (or are about to receive) the replacing path's broadcast.
	live := batch[:0]
	for _, sub := range batch {
		if sub.gen == gen && sess != nil {
			live = append(live, sub)
		} else {
			sub.flushed.Store(true)
			s.subDone(sub)
		}
	}
	if len(live) == 0 {
		return
	}

	// Canonical order: the coalesced header demands strictly increasing
	// correlation IDs. Enqueue order is close to sorted already (IDs are
	// minted monotonically under mu), so an insertion sort is cheap and
	// allocation-free.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j].corr < live[j-1].corr; j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}

	// Header and body in pooled scratch; the sealed record is appended
	// directly after the header so the datagram goes out as one slice.
	hp, bp := getBuf(), getBuf()
	hdr := append((*hp)[:0], CoalMagic, byte(len(live)>>8), byte(len(live)))
	for _, sub := range live {
		hdr = binary.BigEndian.AppendUint64(hdr, sub.corr)
	}
	body := append((*bp)[:0], byte(len(live)>>8), byte(len(live)))
	for _, sub := range live {
		body = binary.BigEndian.AppendUint32(body, uint32(len(sub.frame)))
		body = append(body, sub.frame...)
	}
	rec, err := sess.SealToAD(hdr, body, hdr)
	if err == nil {
		err = s.cfg.Endpoint.Send(s.cfg.RemoteEndpoint, rec)
	}
	putBuf(bp, body)
	if rec == nil {
		rec = hdr
	}
	putBuf(hp, rec)

	if err != nil {
		for _, sub := range live {
			if s.unregister(gen, sub.corr) {
				sub.w.ch <- result{err: err}
			}
			sub.flushed.Store(true)
			s.subDone(sub)
		}
		return
	}
	s.records.Add(1)
	if n := len(live); n > 1 {
		s.coalRecords.Add(1)
		s.coalSubs.Add(uint64(n))
		s.cmon.StubCoalesce(s.name, n)
	}
	for _, sub := range live {
		sub.flushed.Store(true)
		s.subDone(sub)
	}
}

// subDone disengages one of a sub's two stakeholders; the last one out
// recycles the struct and its frame buffer. The waiter is never touched
// here — its completion is owned by whichever path unregistered it.
func (s *Stub) subDone(sub *pendingSub) {
	if sub.refs.Add(-1) != 0 {
		return
	}
	putBuf(sub.buf, sub.frame)
	sub.gen, sub.corr, sub.w, sub.buf, sub.frame = 0, 0, nil, nil, nil
	sub.flushed.Store(false)
	subPool.Put(sub)
}

// demux opens one reply record and routes every sub-reply it carries: each
// sub-frame is a complete reply frame whose correlation prefix must match
// the AD-bound header entry at its position. mine reports that a sub-reply
// resolved the receiver's own call (res is its verdict). A non-nil error is
// a session-level failure the caller must escalate: a datagram that is not
// a record or does not open, or an authenticated record whose body
// disagrees with its header or is malformed (the peer's sealer is broken).
// Sub-replies naming no parked caller — duplicates, unknown IDs, or late
// replies whose caller already unwound on its deadline — are counted and
// dropped, never misdelivered.
func (s *Stub) demux(sess *securechan.Session, gen, ownCorr uint64, dg netsim.Datagram) (res result, mine bool, err error) {
	hdr, sealed, n, herr := cutCoalHeader(dg.Payload)
	if herr != nil {
		dg.Release()
		return result{}, false, herr
	}
	ob := getBuf()
	plain, oerr := sess.OpenToAD((*ob)[:0], sealed, hdr)
	if oerr != nil {
		dg.Release()
		putBuf(ob, nil)
		return result{}, false, oerr
	}
	bn, rest, berr := cutCoalBodyCount(plain)
	if berr == nil && bn != n {
		berr = fmt.Errorf("coalesced body count %d for header of %d: %w", bn, n, ErrTransport)
	}
	for i := 0; berr == nil && i < n; i++ {
		var sub []byte
		sub, rest, berr = cutCoalSub(rest)
		if berr != nil {
			break
		}
		if len(sub) < 9 {
			berr = fmt.Errorf("short coalesced reply frame: %w", ErrTransport)
			break
		}
		corr := binary.BigEndian.Uint64(sub)
		if corr != coalCorr(hdr, i) {
			berr = fmt.Errorf("coalesced reply correlation mismatch: %w", ErrTransport)
			break
		}
		r := s.decodeReply(sub[8:])

		s.mu.Lock()
		var w *waiter
		if s.gen == gen {
			if ww, ok := s.waiters[corr]; ok {
				delete(s.waiters, corr)
				w = ww
			}
		}
		s.mu.Unlock()
		switch {
		case w == nil:
			s.orphans.Add(1)
			s.mon.StubOrphan(s.name)
		case corr == ownCorr:
			res, mine = r, true
		default:
			w.ch <- r
		}
	}
	if berr == nil && len(rest) != 0 {
		berr = fmt.Errorf("%d trailing bytes after coalesced reply: %w", len(rest), ErrTransport)
	}
	dg.Release()
	putBuf(ob, plain)
	return res, mine, berr
}

// coalFault, when armed, perturbs the next record the exporter opens,
// whatever its sub-frame count: "drop" removes one sub-frame entirely (its
// caller never gets a sub-reply and resolves with a typed transport error
// on its next dry round; a record of one sub-frame then gets no reply at
// all), "tamper" corrupts one sub-frame's flags byte before decode (its
// caller sees a typed remote error). The simulation harness arms this to
// prove sibling sub-frames are unaffected — the AEAD makes sub-frame
// surgery at the network layer impossible, so the fault lives behind it.
// armed lets every record opened while the hook is disarmed skip the lock.
type coalFault struct {
	armed atomic.Bool
	mu    sync.Mutex
	mode  string
	idx   int
}

// FaultNextCoalesced arms the exporter's coalesce fault for the next
// record it opens, of one sub-frame or more: mode is "drop" or "tamper",
// idx selects the sub-frame (wrapped into range). Test/simulation hook
// only.
func (e *Exporter) FaultNextCoalesced(mode string, idx int) {
	e.fault.mu.Lock()
	e.fault.mode, e.fault.idx = mode, idx
	e.fault.armed.Store(true)
	e.fault.mu.Unlock()
}

// takeFault disarms and returns the pending coalesce fault, if any.
func (e *Exporter) takeFault() (mode string, idx int) {
	if !e.fault.armed.Load() {
		return "", 0
	}
	e.fault.mu.Lock()
	mode, idx = e.fault.mode, e.fault.idx
	e.fault.mode = ""
	e.fault.armed.Store(false)
	e.fault.mu.Unlock()
	return mode, idx
}

// openRecord opens one request record into j, for the caller to run. The
// header is the record's extra AD, so a tampered count or correlation
// table fails the open. The body's framing is checked here too — a count
// equal to the header's, a valid length for every sub-frame, no trailing
// bytes — so a malformed record is dropped before any of its sub-frames
// runs; the same walk notes whether any sub-frame carries a budget. The
// header is copied in front of the plaintext because the datagram holding
// it is released before the record runs. It runs inside a Serve pass, so
// records open in arrival order.
func (e *Exporter) openRecord(ss *sessState, dg netsim.Datagram, j *job) error {
	hdr, sealed, n, err := cutCoalHeader(dg.Payload)
	if err != nil {
		dg.Release()
		return err
	}
	ob := getBuf()
	raw, err := ss.sess.OpenToAD(append((*ob)[:0], hdr...), sealed, hdr)
	dg.Release()
	if err != nil {
		putBuf(ob, nil)
		return fmt.Errorf("distributed: undecryptable record from %s: %w", dg.From, err)
	}
	bn, rest, err := cutCoalBodyCount(raw[len(hdr):])
	if err == nil && bn != n {
		err = fmt.Errorf("coalesced body count %d for header of %d: %w", bn, n, ErrTransport)
	}
	fmode, fidx := "", 0
	if err == nil {
		fmode, fidx = e.takeFault()
		fidx = ((fidx % n) + n) % n
	}
	budgeted := false
	for i := 0; err == nil && i < n; i++ {
		var sub []byte
		sub, rest, err = cutCoalSub(rest)
		if err != nil {
			break
		}
		budgeted = budgeted || sub[0]&frameBudget != 0
		if fmode == "tamper" && i == fidx {
			sub[0] |= 0x80 // an unknown frame-version bit: decode must reject
		}
	}
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes after coalesced body: %w", len(rest), ErrTransport)
	}
	if err != nil {
		putBuf(ob, raw)
		return err
	}
	*j = job{ss: ss, from: dg.From, buf: ob, raw: raw, drop: -1, budgeted: budgeted}
	if fmode == "drop" {
		j.drop = fidx
	}
	return nil
}

// executeRecord runs an opened record's sub-frames in header order on
// Serve's goroutine and seals their replies as one coalesced reply record,
// under the request header minus any sub-frame the fault hook dropped (a
// record that lost every sub-frame sends nothing), and sends it before the
// pass reads its next datagram, so replies reach the wire in seal order.
// The request's pooled buffer is released only after the reply is sealed,
// because a reply may alias the request data (an echo). Every budget is
// anchored on one clock read taken as the record starts — taken only when
// a sub-frame carries a budget — so time a sub-frame spends behind its
// siblings is spent from its own budget, as it would be in the caller's
// pipeline; a record queued behind an earlier record of the same pass
// anchors when it starts, not when it arrived. A ping is answered inline
// without reaching the component; a sub-frame that fails to decode, or
// whose correlation ID disagrees with the AD-bound header, gets a
// statusErr reply and its siblings are unaffected.
func (e *Exporter) executeRecord(j *job) error {
	var now time.Time
	if j.budgeted {
		now = e.clock()
	}
	n := int(j.raw[1])<<8 | int(j.raw[2])
	hdr := j.raw[:3+8*n]
	rest := j.raw[len(hdr)+2:] // past the body count, checked at open
	hp, bp := getBuf(), getBuf()
	rh := append((*hp)[:0], CoalMagic, 0, 0)
	body := append((*bp)[:0], 0, 0)
	for i := 0; i < n; i++ {
		var sub []byte
		sub, rest, _ = cutCoalSub(rest) // framing checked at open
		if i == j.drop {
			continue
		}
		corr := coalCorr(hdr, i)
		rh = binary.BigEndian.AppendUint64(rh, corr)
		var req Request
		var msg core.Message
		var bb *[]byte
		herr := decodeRequestInto(sub, &req, &e.ops)
		switch {
		case herr != nil:
		case req.Corr != corr:
			herr = fmt.Errorf("sub-frame correlation disagrees with header: %w", ErrTransport)
		case req.Op == PingOp:
			msg = core.Message{Op: PongOp}
		default:
			msg, bb, herr = e.invoke(&req, now)
		}
		body = binary.BigEndian.AppendUint32(body, 0) // length, patched below
		mark := len(body)
		body = binary.BigEndian.AppendUint64(body, corr)
		body = appendReplyBody(body, msg, herr)
		binary.BigEndian.PutUint32(body[mark-4:], uint32(len(body)-mark))
		if bb != nil {
			putBuf(bb, msg.Data)
		}
	}
	var err error
	if kept := (len(rh) - 3) / 8; kept > 0 {
		rh[1], rh[2] = byte(kept>>8), byte(kept)
		body[0], body[1] = byte(kept>>8), byte(kept)
		var rec []byte
		rec, err = j.ss.sess.SealToAD(rh, body, rh)
		if err == nil {
			err = e.ep.Send(j.from, rec)
		}
		if rec != nil {
			rh = rec
		}
	}
	putBuf(bp, body)
	putBuf(hp, rh)
	putBuf(j.buf, j.raw)
	return err
}
