// Batched ingestion: one sealed datagram carries many meter readings
// through a single AEAD pass. A batch request is an ordinary v3 request
// frame whose op is the reserved BatchOp and whose data is the batch
// payload — so it rides every existing mechanism unchanged: correlation
// IDs (a batch pipelines like any other call), the budget field (one
// deadline governs the whole batch), and the taint field (the chain's
// labels apply to every reading it carries). The exporter parses the whole
// payload first, so a malformed frame runs no reading at all, then hands
// the readings to core as one delivery (core.System.DeliverBatch): one
// target lookup, one hook snapshot and one admission per frame, every
// handler run under one hold of the component's execution slot. It seals
// a single reply carrying per-reading status — N invocations, two AEAD
// passes total instead of 2N.
//
// The batch payload is a coalesced body (see coalesce.go) whose sub-frames
// are call frames, so the record body's walkers, cutCoalBodyCount and
// cutCoalSub, parse it one level down (all integers big-endian):
//
//	count   uint16                 1..MaxCoalesce
//	repeat count times:
//	  subLen uint32; sub [subLen]byte    a call frame (appendCall):
//	    opLen uint16; op [opLen]byte     must not start with NUL
//	    data  [subLen-2-opLen]byte
//
// No trailing bytes are allowed and the count must match exactly, so a
// batch payload has exactly one encoding — ReencodeBatch is the identity
// on every valid input, which is what the fuzz oracle checks.
//
// The reply payload (inside a statusOK reply whose op is BatchOp) is a
// coalesced body too, its count echoing the request's, whose sub-frames
// are reply bodies (appendReplyBody): a single call's reply frame without
// its 8-byte correlation prefix — the status byte, then the reply's call
// frame or the error text. Per-reading statuses reuse the reply status
// codes, so errors.Is(err, core.ErrDeadline/ErrOverloaded/ErrPolicy) keeps
// working per reading across the wire.
//
// A batch carries at most MaxCoalesce readings, the bound of every
// coalesced body, so an unbudgeted frame holds the component's execution
// slot for at most that many handler runs; ValidateBatch refuses a larger
// batch before it is sent. Nothing else bounds a reading: its data, its
// reply body and its error text travel whole, as a single call's do.
package distributed

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"lateral/internal/core"
)

// BatchOp is the reserved batched-ingestion operation. Like PingOp, the
// leading NUL keeps it out of any legitimate component op namespace: the
// exporter unpacks it at the channel layer's dispatch point, the exported
// component only ever sees the individual readings.
const BatchOp = "\x00batch"

// Reading is one (op, data) invocation inside a batch: a core.Message, so
// a decoded frame goes to core as it is.
type Reading = core.Message

// BatchResult is one reading's outcome from a HandleBatch call. Msg.Data,
// when non-empty, aliases the batch reply buffer — owned by the caller of
// HandleBatch, valid until the results slice is reused.
type BatchResult struct {
	Msg core.Message
	Err error
}

// AppendBatch appends the batch payload for readings onto dst
// (allocation-free when dst has spare capacity) and returns the extended
// slice. The caller must respect the codec bounds (reading count, op
// length); EncodeBatch validates them.
func AppendBatch(dst []byte, readings []Reading) []byte {
	dst = append(dst, byte(len(readings)>>8), byte(len(readings)))
	for _, r := range readings {
		dst = binary.BigEndian.AppendUint32(dst, uint32(2+len(r.Op)+len(r.Data)))
		dst = appendCall(dst, r.Op, r.Data)
	}
	return dst
}

// EncodeBatch validates the readings against the codec bounds and builds
// the batch payload.
func EncodeBatch(readings []Reading) ([]byte, error) {
	if err := ValidateBatch(readings); err != nil {
		return nil, err
	}
	size := 2
	for _, r := range readings {
		size += 6 + len(r.Op) + len(r.Data)
	}
	return AppendBatch(make([]byte, 0, size), readings), nil
}

// ValidateBatch checks readings against the codec bounds: 1 to
// MaxCoalesce readings (a larger batch is the caller's to split), each op
// at most 0xffff bytes (the call frame's op length field), and no op
// starting with NUL (reserved for the wire's own ops, PingOp and BatchOp).
// Data is unbounded, as a single call's is. The error wraps ErrTransport,
// as every codec refusal does, so a caller that reads ErrTransport as a
// channel failure must run this first: a malformed batch says nothing
// about the channel.
func ValidateBatch(readings []Reading) error {
	if len(readings) == 0 {
		return fmt.Errorf("empty batch: %w", ErrTransport)
	}
	if len(readings) > MaxCoalesce {
		return fmt.Errorf("batch of %d exceeds %d readings: %w", len(readings), MaxCoalesce, ErrTransport)
	}
	for _, r := range readings {
		if len(r.Op) > 0xffff {
			return fmt.Errorf("reading op exceeds its length field: %w", ErrTransport)
		}
		if len(r.Op) > 0 && r.Op[0] == 0 {
			return fmt.Errorf("reading op %q is reserved: %w", r.Op, ErrTransport)
		}
	}
	return nil
}

// opCache turns one frame's op bytes into strings. A reading whose op
// bytes match the previous reading's reuses that string, so a frame of one
// op converts it, and takes the interner's lock, once.
type opCache struct {
	ops  *interner // nil: a fresh string per run of equal ops
	last string
}

func (c *opCache) op(b []byte) string {
	if string(b) != c.last {
		c.last = c.ops.intern(b)
	}
	return c.last
}

// decodeBatch appends the readings of one batch payload (see AppendBatch)
// to dst. It is the one decode loop: DecodeBatch, and so the fuzz oracle,
// runs it, and so does the exporter, with its interner and a pooled dst.
// It walks the payload as a coalesced body, each sub-frame a call frame.
// The readings' data aliases b. Truncated payloads, out-of-range counts,
// empty sub-frames, reserved ops, and trailing bytes are all rejected with
// ErrTransport.
func decodeBatch(b []byte, dst []Reading, ops *interner) ([]Reading, error) {
	n, rest, err := cutCoalBodyCount(b)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	cache := opCache{ops: ops}
	for i := 0; i < n; i++ {
		var sub, op, data []byte
		if sub, rest, err = cutCoalSub(rest); err != nil {
			return dst, err
		}
		if op, data, err = splitCall(sub); err != nil {
			return dst, err
		}
		if len(op) > 0 && op[0] == 0 {
			return dst, fmt.Errorf("reserved op in batch: %w", ErrTransport)
		}
		dst = append(dst, Reading{Op: cache.op(op), Data: data})
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("%d trailing bytes after batch: %w", len(rest), ErrTransport)
	}
	return dst, nil
}

// DecodeBatch parses one batch payload (see AppendBatch). The readings'
// data aliases b. Truncated payloads, out-of-range counts, reserved ops,
// and trailing bytes are all rejected with ErrTransport.
func DecodeBatch(b []byte) ([]Reading, error) {
	readings, err := decodeBatch(b, nil, nil)
	if err != nil {
		return nil, err
	}
	return readings, nil
}

// ReencodeBatch decodes a batch payload and re-emits it in canonical form.
// Because the codec admits exactly one encoding per batch, the output is
// byte-identical to every valid input — the fuzz harness asserts exactly
// that.
func ReencodeBatch(b []byte) ([]byte, error) {
	readings, err := DecodeBatch(b)
	if err != nil {
		return nil, err
	}
	return AppendBatch(make([]byte, 0, len(b)), readings), nil
}

// readingsPool recycles the exporter's decoded readings, one slice per
// batch in flight.
var readingsPool = sync.Pool{New: func() any { return new([]Reading) }}

// runBatch runs one batch request: it parses the whole payload first, so
// a malformed batch fails the frame before any reading runs, then delivers
// the readings to the exported component as one core delivery
// (core.System.DeliverBatch) and builds the reply payload carrying
// per-reading status into a pooled buffer, returned for the caller to
// release after the reply is sealed. Once the payload parses, each reading
// succeeds or fails on its own.
func (e *Exporter) runBatch(req *Request, now time.Time) (core.Message, *[]byte, error) {
	rp := readingsPool.Get().(*[]Reading)
	readings, err := decodeBatch(req.Data, (*rp)[:0], &e.ops)
	defer func() {
		clear(readings) // drop the payloads a pooled slice would keep alive
		*rp = readings[:0]
		readingsPool.Put(rp)
	}()
	if err != nil {
		return core.Message{}, nil, err
	}
	frame := core.Envelope{Span: req.Span, Taint: req.Taint}
	if req.Budget > 0 {
		// One budget governs the whole batch: every reading is delivered
		// against the same re-anchored deadline, so a batch cannot buy
		// more server time than the single call it replaces. Guarded
		// delivery clones each payload, same as invoke: the watchdog may
		// abandon a handler mid-read of a pooled buffer.
		frame.Deadline = now.Add(req.Budget)
		for i := range readings {
			readings[i].Data = readings[i].CloneData()
		}
	}
	fp := getBuf()
	out := append((*fp)[:0], byte(len(readings)>>8), byte(len(readings)))
	e.sys.DeliverBatch(e.target, frame, readings, func(reply core.Message, herr error) {
		out = binary.BigEndian.AppendUint32(out, 0) // length, patched below
		mark := len(out)
		out = appendReplyBody(out, reply, herr)
		binary.BigEndian.PutUint32(out[mark-4:], uint32(len(out)-mark))
	})
	return core.Message{Op: BatchOp, Data: out}, fp, nil
}

// HandleBatch proxies many readings across the channel in one sealed
// round trip: the whole batch costs one AEAD pass in each direction
// instead of one per reading. The envelope's span, taint, and deadline
// apply batch-wide (env.Msg is ignored); results are appended to the
// caller's slice — pass results[:0] to reuse its backing array across
// batches, the zero-allocation shape. A frame-level failure (transport,
// session, whole-batch deadline) returns an error with no results;
// otherwise results carries exactly one entry per reading, in order, with
// per-reading errors rehydrated to their typed forms.
func (s *Stub) HandleBatch(env core.Envelope, readings []Reading, results []BatchResult) ([]BatchResult, error) {
	if err := ValidateBatch(readings); err != nil {
		return results, err
	}
	bp := getBuf()
	payload := AppendBatch((*bp)[:0], readings)
	env.Msg = core.Message{Op: BatchOp, Data: payload}
	msg, err := s.Handle(env)
	putBuf(bp, payload)
	if err != nil {
		return results, err
	}
	if msg.Op != BatchOp {
		return results, fmt.Errorf("batch answered with %q: %w", msg.Op, ErrTransport)
	}
	return s.decodeBatchReply(msg.Data, len(readings), results)
}

// decodeBatchReply parses the batch reply payload, a coalesced body of
// reply bodies, into per-reading results. OK payload data aliases b (the
// owned reply copy Handle made). Ops go through one opCache, so a frame
// of one reply op interns it once.
func (s *Stub) decodeBatchReply(b []byte, want int, results []BatchResult) ([]BatchResult, error) {
	n, rest, err := cutCoalBodyCount(b)
	if err != nil {
		return results, err
	}
	if n != want {
		return results, fmt.Errorf("batch reply carries %d entries for %d readings: %w", n, want, ErrTransport)
	}
	ops := opCache{ops: &s.ops}
	for i := 0; i < n; i++ {
		var sub []byte
		if sub, rest, err = cutCoalSub(rest); err != nil {
			return results, err
		}
		op, data, rerr := splitReply(sub)
		if rerr != nil {
			results = append(results, BatchResult{Err: rerr})
			continue
		}
		m := core.Message{Op: ops.op(op)}
		if len(data) > 0 {
			m.Data = data
		}
		results = append(results, BatchResult{Msg: m})
	}
	if len(rest) != 0 {
		return results, fmt.Errorf("%d trailing bytes after batch reply: %w", len(rest), ErrTransport)
	}
	return results, nil
}
