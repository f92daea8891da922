// Package distributed extends the component model across machine
// boundaries, realizing §III-D: "Applications are no longer monolithic
// blobs of co-located functionality, but aggregates of individually
// reusable components that can even form distributed confidence domains
// across machine boundaries."
//
// The mechanism: an Exporter publishes a local component's service on the
// untrusted network behind an attested secure channel; a Stub is a local
// core.Component that proxies invocations to the remote side. To the
// caller, Ctx.Call("store", …) looks identical whether the store is a
// neighbouring domain or an SGX enclave in someone else's data center —
// the manifest changes, the component code does not.
//
// Trust is established exactly as the paper prescribes: the importer pins
// the expected code measurement of the remote component and the vendor key
// of its substrate's trust anchor; connection setup fails closed when the
// remote evidence does not match.
//
// Calls are pipelined: a Stub supports many concurrent in-flight
// invocations over one attested session. Each request carries an 8-byte
// correlation ID (wire frame v3) that the exporter echoes on the reply, so
// replies may return in any order and a single receive loop matches each
// one to the caller parked on it. See DESIGN.md "Wire format v3 and
// pipelining" for the demux state machine.
package distributed

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/netsim"
	"lateral/internal/securechan"
)

// Errors.
var (
	// ErrNotConnected is returned when invoking a stub before Connect.
	ErrNotConnected = errors.New("distributed: not connected")

	// ErrRemote wraps failures reported by the remote component.
	ErrRemote = errors.New("distributed: remote error")

	// ErrTransport is returned when the network loses or mangles a flight.
	ErrTransport = errors.New("distributed: transport failure")
)

// WireVersion is the request-frame version this package emits. Version 3
// added the frameCorr correlation field, which every request frame must
// carry: a frame without it is rejected.
const WireVersion = 3

// bufPool recycles the working buffers of the record hot path — request
// frames, sealed records, and opened plaintexts — so a steady-state call
// allocates nothing on either side of the wire. Buffers that grew beyond
// maxPooledBuf are dropped rather than pinned in the pool.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledBuf = 1 << 16

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// putBuf returns a buffer to the pool. b, when non-nil, is the (possibly
// reallocated) slice that grew out of *p; its backing array is the one
// worth keeping.
func putBuf(p *[]byte, b []byte) {
	if b != nil {
		*p = b[:0]
	} else {
		*p = (*p)[:0]
	}
	if cap(*p) > maxPooledBuf {
		return
	}
	bufPool.Put(p)
}

// interner canonicalizes op strings decoded off the wire so the hot path
// does not allocate a fresh string per request. The map is capped: an
// adversary minting unbounded distinct ops degrades to per-call allocation,
// never unbounded memory.
type interner struct {
	mu sync.Mutex
	m  map[string]string
}

const maxInternedOps = 256

func (i *interner) intern(b []byte) string {
	i.mu.Lock()
	s, ok := i.m[string(b)] // compiler-recognized no-alloc lookup
	if !ok {
		s = string(b)
		if i.m == nil {
			i.m = make(map[string]string)
		}
		if len(i.m) < maxInternedOps {
			i.m[s] = s
		}
	}
	i.mu.Unlock()
	return s
}

// appendCall serializes (op, data) onto dst; decodeCall parses it.
func appendCall(dst []byte, op string, data []byte) []byte {
	dst = append(dst, byte(len(op)>>8), byte(len(op)))
	dst = append(dst, op...)
	return append(dst, data...)
}

func encodeCall(op string, data []byte) []byte {
	return appendCall(make([]byte, 0, 2+len(op)+len(data)), op, data)
}

func decodeCall(b []byte) (string, []byte, error) {
	return decodeCallInto(b, nil)
}

// decodeCallInto is decodeCall with an optional interner for the op
// string. The returned data slice aliases b.
func decodeCallInto(b []byte, ops *interner) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("short call frame: %w", ErrTransport)
	}
	n := int(b[0])<<8 | int(b[1])
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("truncated op: %w", ErrTransport)
	}
	var op string
	if ops != nil {
		op = ops.intern(b[2 : 2+n])
	} else {
		op = string(b[2 : 2+n])
	}
	return op, b[2+n:], nil
}

// PingOp is the reserved liveness-probe operation. The Exporter answers
// it from the channel layer without ever invoking the exported component,
// so a health check costs one sealed round trip and cannot perturb
// component state. The leading NUL keeps it out of any legitimate
// component op namespace.
const PingOp = "\x00ping"

// PongOp is the reply operation to a PingOp probe.
const PongOp = "\x00pong"

// Request frames wrap the call payload with a flags byte. The flags byte is
// the frame version: each bit gates one optional field, fields appear in
// bit order, and unknown bits are rejected (a frame from a future version
// is an error, never a misparse). Current fields:
//
//   - frameTraced: 16 bytes of telemetry span context (trace ID, span ID,
//     both big-endian) so a trace crossing the wire reassembles into one
//     causal tree on a shared recorder. Metadata only — it rides inside
//     the sealed channel and carries no payload information.
//   - frameBudget: 8 bytes of remaining call budget (big-endian
//     nanoseconds), gRPC-style: the sender transmits how much of its
//     deadline is left, the receiver re-anchors it against its own clock.
//     A relative duration crosses machines safely; absolute deadlines
//     would need synchronized clocks.
//   - frameCorr (v3, mandatory): 8 bytes of caller-chosen correlation ID.
//     The exporter echoes it as the reply frame's prefix, which is what
//     lets replies complete out of order under pipelining.
//   - frameTaint (v3): the invocation chain's accumulated policy taint —
//     a count byte followed by length-prefixed labels, strictly
//     increasing (sorted, deduplicated: the canonical form core's
//     MergeTaint maintains; anything else is rejected, so a frame has
//     exactly one encoding). The receiving system judges the imported
//     taint at its deliver boundary, which is what keeps a chain's
//     history enforceable across machines — a hop through the wire must
//     not launder it.
//
// The span, budget, and taint fields are optional: a frame without those
// bits decodes with the field zero.
const (
	frameTraced = 1 << 0
	frameBudget = 1 << 1
	frameCorr   = 1 << 2
	frameTaint  = 1 << 3

	frameKnown = frameTraced | frameBudget | frameCorr | frameTaint
)

// Taint field bounds, matching internal/policy's rule-set bounds: a label
// a rule can confer is a label the frame can carry.
const (
	maxTaintLabels   = 16
	maxTaintLabelLen = 64
)

// Request is one decoded invocation frame.
type Request struct {
	// Span is the caller's span context; zero when the call is untraced.
	Span core.Span

	// Budget is the remaining call budget the caller granted; 0 means
	// unbounded. The receiving side anchors it to its own clock
	// (time.Now().Add(Budget)) and enforces it server-side.
	Budget time.Duration

	// Corr is the caller-chosen correlation ID echoed on the reply; any
	// value, zero included, is a valid ID.
	Corr uint64

	// Taint is the chain's accumulated policy label set, sorted and
	// deduplicated; nil on an untainted chain (the field is then elided
	// from the frame entirely).
	Taint []string

	// Op and Data are the invocation payload.
	Op   string
	Data []byte
}

// AppendRequest appends one request frame to dst (allocation-free when dst
// has spare capacity) and returns the extended slice. Fields are emitted
// in flag-bit order; see the frame documentation above. A zero span, a
// non-positive budget, and an empty taint set each elide their field.
func AppendRequest(dst []byte, req Request) []byte {
	flags := byte(frameCorr)
	if req.Span != (core.Span{}) {
		flags |= frameTraced
	}
	if req.Budget > 0 {
		flags |= frameBudget
	}
	if len(req.Taint) > 0 {
		flags |= frameTaint
	}
	dst = append(dst, flags)
	if flags&frameTraced != 0 {
		dst = binary.BigEndian.AppendUint64(dst, req.Span.Trace)
		dst = binary.BigEndian.AppendUint64(dst, req.Span.ID)
	}
	if flags&frameBudget != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(req.Budget))
	}
	dst = binary.BigEndian.AppendUint64(dst, req.Corr)
	if flags&frameTaint != 0 {
		dst = append(dst, byte(len(req.Taint)))
		for _, l := range req.Taint {
			dst = append(dst, byte(len(l)))
			dst = append(dst, l...)
		}
	}
	return appendCall(dst, req.Op, req.Data)
}

// DecodeRequest parses one request frame (see AppendRequest). Frames with
// unknown flag bits, without a correlation ID, or with a truncated span
// context, budget, or correlation ID are rejected with ErrTransport.
func DecodeRequest(b []byte) (Request, error) {
	var req Request
	err := decodeRequestInto(b, &req, nil)
	return req, err
}

// decodeRequestInto is DecodeRequest into caller storage with an optional
// op interner. req.Data aliases b.
func decodeRequestInto(b []byte, req *Request, ops *interner) error {
	if len(b) < 1 {
		return fmt.Errorf("empty request frame: %w", ErrTransport)
	}
	flags, b := b[0], b[1:]
	if flags&^byte(frameKnown) != 0 {
		return fmt.Errorf("unknown frame version %#x: %w", flags, ErrTransport)
	}
	if flags&frameTraced != 0 {
		if len(b) < 16 {
			return fmt.Errorf("truncated span context: %w", ErrTransport)
		}
		req.Span.Trace = binary.BigEndian.Uint64(b)
		req.Span.ID = binary.BigEndian.Uint64(b[8:])
		b = b[16:]
	}
	if flags&frameBudget != 0 {
		if len(b) < 8 {
			return fmt.Errorf("truncated budget: %w", ErrTransport)
		}
		ns := binary.BigEndian.Uint64(b)
		if ns > uint64(1<<62) {
			return fmt.Errorf("budget overflow %d: %w", ns, ErrTransport)
		}
		req.Budget = time.Duration(ns)
		b = b[8:]
	}
	if flags&frameCorr == 0 {
		return fmt.Errorf("request frame without correlation id: %w", ErrTransport)
	}
	if len(b) < 8 {
		return fmt.Errorf("truncated correlation id: %w", ErrTransport)
	}
	req.Corr = binary.BigEndian.Uint64(b)
	b = b[8:]
	if flags&frameTaint != 0 {
		var err error
		req.Taint, b, err = decodeTaint(b)
		if err != nil {
			return err
		}
	}
	var err error
	req.Op, req.Data, err = decodeCallInto(b, ops)
	return err
}

// decodeTaint parses the frame's taint field. The field is canonical or
// rejected: one to maxTaintLabels labels, each one to maxTaintLabelLen
// bytes, in strictly increasing order — exactly what core.MergeTaint
// maintains, so a frame has a single valid encoding and a forged
// duplicate-or-shuffled taint set never parses.
func decodeTaint(b []byte) ([]string, []byte, error) {
	if len(b) < 1 {
		return nil, nil, fmt.Errorf("truncated taint count: %w", ErrTransport)
	}
	n := int(b[0])
	b = b[1:]
	if n == 0 || n > maxTaintLabels {
		return nil, nil, fmt.Errorf("taint count %d out of range: %w", n, ErrTransport)
	}
	taint := make([]string, 0, n)
	prev := ""
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, nil, fmt.Errorf("truncated taint label length: %w", ErrTransport)
		}
		ln := int(b[0])
		b = b[1:]
		if ln == 0 || ln > maxTaintLabelLen {
			return nil, nil, fmt.Errorf("taint label length %d out of range: %w", ln, ErrTransport)
		}
		if len(b) < ln {
			return nil, nil, fmt.Errorf("truncated taint label: %w", ErrTransport)
		}
		l := string(b[:ln])
		b = b[ln:]
		if i > 0 && l <= prev {
			return nil, nil, fmt.Errorf("taint labels not strictly sorted: %w", ErrTransport)
		}
		prev = l
		taint = append(taint, l)
	}
	return taint, b, nil
}

// reply frames: the request's 8-byte correlation ID, then a status byte +
// payload (op or error text). Deadline and overload failures get their own
// status codes so errors.Is(err, core.ErrDeadline) / core.ErrOverloaded
// keep working across the wire — the cluster layer routes on exactly that
// distinction. Policy refusals likewise: a remote deny rehydrates as
// core.ErrPolicy, a verdict about the request that the cluster layer must
// not fail over.
const (
	statusOK       = 0
	statusErr      = 1
	statusDeadline = 2
	statusOverload = 3
	statusPolicy   = 4
)

// Monitor receives stub pipelining telemetry. telemetry.Metrics implements
// it structurally (the same pattern as cluster.Monitor); a nil Monitor is
// silently replaced by a no-op.
type Monitor interface {
	// StubCall records one call at issue time together with the pipeline
	// depth observed then (in-flight calls, this one included).
	StubCall(stub string, depth int)
	// StubInflight tracks the in-flight gauge (+1 at issue, -1 at
	// completion).
	StubInflight(stub string, delta int)
	// StubOrphan records a reply whose correlation ID matched no parked
	// caller — a duplicate, an unknown ID, or a reply that arrived after
	// its caller unwound on a deadline.
	StubOrphan(stub string)
}

type nopStubMonitor struct{}

func (nopStubMonitor) StubCall(string, int)     {}
func (nopStubMonitor) StubInflight(string, int) {}
func (nopStubMonitor) StubOrphan(string)        {}

// StubStats is a snapshot of one stub's pipelining counters. Every issued
// call resolves exactly once: Issued == Completed + Failed once the stub is
// quiescent, and Inflight is the difference while it is not. The
// simulation harness checks exactly that invariant after every step.
type StubStats struct {
	// Issued counts calls that registered for a reply (refusals before
	// transmit — spent budget, not connected — are not issued).
	Issued uint64
	// Completed counts calls resolved by their matched reply.
	Completed uint64
	// Failed counts calls resolved with an error: transport loss, session
	// failure, deadline while awaiting, or a remote error status.
	Failed uint64
	// Orphans counts replies dropped because no caller was parked on their
	// correlation ID (duplicates, unknown IDs, late replies).
	Orphans uint64
	// Inflight is the current number of calls awaiting replies.
	Inflight int64
	// MaxInflight is the high-water mark of Inflight — the deepest
	// pipeline this stub has actually sustained.
	MaxInflight int64

	// Records counts sealed request records actually transmitted — the
	// AEAD passes paid on the send path. Without coalescing this equals
	// Issued; with it, concurrent calls share records and the gap is the
	// savings.
	Records uint64
	// CoalescedRecords and CoalescedSubs count coalesced records (≥ 2
	// sub-frames each) and the sub-frames they carried; the AEAD passes
	// coalescing saved is CoalescedSubs - CoalescedRecords.
	CoalescedRecords uint64
	CoalescedSubs    uint64
}

// Exporter publishes one component of a local system on the network.
type Exporter struct {
	sys      *core.System
	target   string
	ep       *netsim.Endpoint
	identity *cryptoutil.Signer
	rand     *cryptoutil.PRNG
	clock    func() time.Time

	// epoch is the fleet config epoch the exporter currently serves.
	// Zero (the default) leaves admission ungated — any hello is
	// accepted, as before dynamic membership. Non-zero demands hellos
	// stamped with exactly this epoch and evicts sessions keyed at
	// older ones.
	epoch atomic.Uint64

	mu       sync.Mutex
	sessions map[string]*sessState // peer endpoint -> session
	pendings map[string]*pendState

	// hsMu serializes hellos (which draw from rand) and handshake
	// finishes (Pending.Complete) across Serve passes, which pumps may
	// run concurrently. Record traffic never takes it.
	hsMu sync.Mutex

	ops interner

	// fault is the simulation harness's coalesce fault injector (see
	// coalesce.go); disarmed in production.
	fault coalFault
}

// pendState is a handshake in flight plus the config epoch it was gated
// at, so the session it completes into remembers its epoch.
type pendState struct {
	p     *securechan.Pending
	epoch uint64
}

// sessState is one peer's established session plus the locks that keep the
// secure channel's sequence discipline under concurrent dispatch: openMu
// serializes decryption (arrival order fixes the receive sequence), sendMu
// serializes seal+transmit so reply records hit the wire in seal (= send
// sequence) order — the peer's channel rejects reordered sequences.
type sessState struct {
	openMu sync.Mutex
	sendMu sync.Mutex
	sess   *securechan.Session
	epoch  uint64 // config epoch the session was keyed at
}

// job is one unit of exporter work: a decrypted invocation, or a whole
// coalesced record. buf is the pooled buffer behind raw, which req.Data
// (or every sub-frame of a record) aliases, so the buffer is released only
// after the reply has been sealed. A record's job has rec set: raw then
// holds the record's cleartext header followed by its decrypted body, and
// drop is the index of the sub-frame the fault hook removed, or -1.
type job struct {
	ss   *sessState
	from string
	req  Request
	buf  *[]byte
	raw  []byte
	rec  bool
	drop int
}

// jobPool recycles job structs across serveBatch passes. A pipelining
// client lands one job per in-flight call per wire round; without the
// pool each of those was a fresh heap allocation, which is exactly the
// allocs/op regression BENCH_e22.json showed growing with pipeline depth.
var jobPool = sync.Pool{New: func() any { return new(job) }}

// batchPool recycles the per-batch job slice (capacity included), so a
// steady pipelining load reuses one backing array per concurrent batch
// instead of regrowing it every wire round.
var batchPool = sync.Pool{New: func() any { s := make([]*job, 0, 16); return &s }}

// ExportConfig configures an Exporter.
type ExportConfig struct {
	// System hosts the exported component.
	System *core.System

	// Component is the exported component's name.
	Component string

	// Endpoint is this machine's network attachment.
	Endpoint *netsim.Endpoint

	// Identity signs handshakes (the service's TLS identity).
	Identity *cryptoutil.Signer

	// Rand seeds handshake randomness.
	Rand *cryptoutil.PRNG

	// Clock is the time source the wire budget is re-anchored against
	// (default time.Now). Simulation harnesses inject a virtual clock so
	// remote deadlines stay on the same timeline as the hosting system's.
	Clock func() time.Time
}

// DefaultWorkers bounds concurrent dispatch when one Serve pass finds more
// than smallBatch jobs queued. The exported component itself stays
// serialized by core's per-component handler lock; workers buy concurrency
// across seal and across colocated targets, and keep one slow record from
// convoying the replies behind it.
const DefaultWorkers = 4

// smallBatch is the backlog size at or below which serveBatch dispatches
// inline rather than fanning out worker goroutines.
const smallBatch = 4

// NewExporter validates the config and builds the exporter. Evidence for
// remote verifiers is produced from the hosting substrate's trust anchor,
// quoting the exported component's domain bound to each handshake.
func NewExporter(cfg ExportConfig) (*Exporter, error) {
	if cfg.System == nil || cfg.Endpoint == nil || cfg.Identity == nil || cfg.Rand == nil {
		return nil, fmt.Errorf("distributed: exporter config incomplete")
	}
	if _, err := cfg.System.HandleOf(cfg.Component); err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Exporter{
		sys:      cfg.System,
		target:   cfg.Component,
		ep:       cfg.Endpoint,
		identity: cfg.Identity,
		rand:     cfg.Rand,
		clock:    cfg.Clock,
		sessions: make(map[string]*sessState),
		pendings: make(map[string]*pendState),
	}, nil
}

// SetEpoch moves the exporter to a new fleet config epoch: hellos must
// now stamp exactly this epoch, and every session or pending handshake
// keyed at an older epoch is evicted — a client holding pre-rekey keys
// cannot authenticate another record, it must re-handshake (and an
// epoch-gating pool will only hand it the new epoch after re-attesting
// it). SetEpoch(0) removes the gate without evicting anyone.
func (e *Exporter) SetEpoch(n uint64) {
	e.epoch.Store(n)
	if n == 0 {
		return
	}
	e.mu.Lock()
	for from, ss := range e.sessions {
		if ss.epoch < n {
			delete(e.sessions, from)
		}
	}
	for from, p := range e.pendings {
		if p.epoch < n {
			delete(e.pendings, from)
		}
	}
	e.mu.Unlock()
}

// Epoch returns the config epoch the exporter currently serves.
func (e *Exporter) Epoch() uint64 { return e.epoch.Load() }

// evidence quotes the exported component's domain, bound to the handshake
// transcript.
func (e *Exporter) evidence(transcript [32]byte) ([]byte, error) {
	anchor := e.sys.Substrate().Anchor()
	if anchor == nil {
		return nil, nil // substrate cannot attest; importers may still pin the identity key
	}
	h, err := e.sys.HandleOf(e.target)
	if err != nil {
		return nil, err
	}
	q, err := anchor.Quote(h, transcript[:])
	if err != nil {
		return nil, err
	}
	return q.Encode(), nil
}

// Serve processes every pending datagram on the endpoint once: handshake
// flights establish sessions, record flights carry invocations. The
// backlog is decrypted in arrival order and its jobs — one per plain
// record, one per coalesced record — run inline when there are at most
// smallBatch of them and across DefaultWorkers goroutines otherwise, with
// all replies on the wire before Serve returns. A hostile or garbled
// datagram is dropped without failing the service (fail closed per
// connection), so Serve always returns nil. Tests and the examples call it
// after each client step; a real deployment would loop it.
func (e *Exporter) Serve() error {
	for {
		dg, ok := e.ep.Recv()
		if !ok {
			return nil
		}
		e.serveBatch(dg)
	}
}

// serveBatch drains the backlog behind first and dispatches it. The
// channel layer — handshakes, decrypt, ping — runs sequentially in arrival
// order (the secure channel's receive sequence demands it); the jobs it
// collects then run on the worker pool.
func (e *Exporter) serveBatch(first netsim.Datagram) {
	// The batch slice travels by pointer so the accumulating collect calls
	// do not box a fresh slice header per wire round.
	jobsp := batchPool.Get().(*[]*job)
	_ = e.collect(first, jobsp)
	for {
		dg, ok := e.ep.Recv()
		if !ok {
			break
		}
		_ = e.collect(dg, jobsp)
	}
	e.dispatch(jobsp)
	batchPool.Put(jobsp)
}

// collect runs one datagram through the channel layer: handshake flights
// complete inline, record flights decrypt and append their job to jobs.
func (e *Exporter) collect(dg netsim.Datagram, jobs *[]*job) error {
	e.mu.Lock()
	ss := e.sessions[dg.From]
	e.mu.Unlock()
	if ss == nil {
		var err error
		if ss, err = e.handshake(dg); ss == nil {
			return err
		}
	}
	if IsCoalesced(dg.Payload) {
		return e.openCoalesced(ss, dg, jobs)
	}
	j := jobPool.Get().(*job)
	ok, err := e.openRequest(ss, dg, j)
	if err == nil && ok {
		*jobs = append(*jobs, j)
	} else {
		jobPool.Put(j)
	}
	return err
}

// handshake runs one handshake flight under hsMu: a client finish when a
// handshake is pending for the peer, a client hello otherwise. When an
// overlapping Serve pass established the peer's session first, the
// datagram is a record on it, and handshake returns the session instead.
func (e *Exporter) handshake(dg netsim.Datagram) (*sessState, error) {
	e.hsMu.Lock()
	defer e.hsMu.Unlock()
	e.mu.Lock()
	ss, pending := e.sessions[dg.From], e.pendings[dg.From]
	e.mu.Unlock()
	switch {
	case ss != nil:
		return ss, nil
	case pending != nil:
		return nil, e.complete(dg, pending)
	default:
		// New connection: client hello.
		return nil, e.hello(dg)
	}
}

// dispatch executes the collected jobs and recycles them, leaving the
// slice empty. Every reply is on the wire before it returns — Serve's
// contract with lockstep pumps.
func (e *Exporter) dispatch(jobsp *[]*job) {
	jobs := *jobsp
	switch {
	case len(jobs) == 0:
	case len(jobs) <= smallBatch:
		// A shallow batch executes inline: spawning one goroutine per job
		// costs more than it overlaps (the component handler is serialized
		// by core regardless), and it was the allocs/op bump pipelined
		// benchmarks showed at modest depths.
		for _, j := range jobs {
			_ = e.execute(j)
			*j = job{}
			jobPool.Put(j)
		}
	default:
		n := DefaultWorkers
		if n > len(jobs) {
			n = len(jobs)
		}
		// Strided partition instead of a feed channel: each worker owns
		// jobs[w], jobs[w+n], … so the fan-out allocates nothing beyond
		// the goroutines themselves.
		var wg sync.WaitGroup
		wg.Add(n)
		for w := 0; w < n; w++ {
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(jobs); i += n {
					j := jobs[i]
					_ = e.execute(j)
					*j = job{}
					jobPool.Put(j)
				}
			}(w)
		}
		wg.Wait()
	}
	*jobsp = jobs[:0]
}

// openRequest decrypts and decodes one record on an established session.
// It returns (false, nil) when the datagram was fully consumed at the
// channel layer (a ping, or a hello that reset the session) and
// (true, nil) with j filled when a component invocation awaits execution.
func (e *Exporter) openRequest(ss *sessState, dg netsim.Datagram, j *job) (bool, error) {
	ob := getBuf()
	ss.openMu.Lock()
	plain, err := ss.sess.OpenTo((*ob)[:0], dg.Payload)
	ss.openMu.Unlock()
	if err != nil {
		putBuf(ob, nil)
		// Not a record for this session. A peer that crashed and
		// restarted (or was failed over away and healed) reconnects
		// from the same endpoint with a fresh hello; accept that — and
		// only that — as a session reset. Garbage or corrupted records
		// are dropped with the decrypt failure preserved, so they cost
		// no handshake attempt and cannot reset a live session; a
		// replayed captured hello can at worst force a reset — a denial
		// of service the attacker already has by dropping traffic —
		// never decrypt or forge records.
		if !securechan.HelloShaped(dg.Payload) {
			return false, fmt.Errorf("distributed: undecryptable record from %s: %w", dg.From, err)
		}
		e.hsMu.Lock()
		herr := e.hello(dg)
		e.hsMu.Unlock()
		if herr != nil {
			return false, fmt.Errorf("distributed: session reset from %s failed: %v (record open: %w)", dg.From, herr, err)
		}
		return false, nil
	}
	dg.Release()
	var req Request
	if derr := decodeRequestInto(plain, &req, &e.ops); derr != nil {
		putBuf(ob, plain)
		return false, derr
	}
	if req.Op == PingOp {
		// Liveness probe: answered by the channel layer itself, the
		// component never runs.
		err := e.reply(ss, dg.From, req.Corr, core.Message{Op: PongOp}, nil)
		putBuf(ob, plain)
		return false, err
	}
	j.ss, j.from, j.req, j.buf, j.raw = ss, dg.From, req, ob, plain
	return true, nil
}

// execute runs one job and sends its sealed reply: a coalesced record
// through executeRecord (see coalesce.go), a plain record's invocation
// here. The request's pooled buffer is released only after the reply is
// sealed, because the reply may alias the request data (an echo) or the
// decrypted frame.
func (e *Exporter) execute(j *job) error {
	if j.rec {
		return e.executeRecord(j)
	}
	var now time.Time
	if j.req.Budget > 0 {
		now = e.clock() // only a budget needs the anchor
	}
	msg, bb, herr := e.invoke(&j.req, now)
	err := e.reply(j.ss, j.from, j.req.Corr, msg, herr)
	if bb != nil {
		putBuf(bb, msg.Data)
	}
	putBuf(j.buf, j.raw)
	return err
}

// invoke runs one decoded request against the exported component, its
// budget re-anchored at now. A batch unpacks its readings into the
// component one by one (see batch.go), and bb is then the pooled buffer
// behind msg.Data, which the caller releases once the reply is sealed.
func (e *Exporter) invoke(req *Request, now time.Time) (msg core.Message, bb *[]byte, err error) {
	if req.Op == BatchOp {
		return e.runBatch(req, now)
	}
	env := core.Envelope{
		Msg:   core.Message{Op: req.Op, Data: req.Data},
		Span:  req.Span,
		Taint: req.Taint,
	}
	if req.Budget > 0 {
		// Enforce the caller's remaining budget server-side: re-anchor
		// the relative budget against the local clock and let the core
		// watchdog bound the handler. A malicious or broken client
		// cannot buy unbounded server work by omitting the field — the
		// server's own admission queue still bounds convoys. Guarded
		// delivery clones the payload: the watchdog may abandon the
		// handler, which would otherwise keep reading a pooled buffer
		// about to be reused.
		env.Deadline = now.Add(req.Budget)
		env.Msg.Data = env.Msg.CloneData()
	}
	// An unguarded delivery borrows the decrypted buffer for the
	// synchronous duration of the handler (the DeliverEnvelope /
	// DeliverShared borrow contract) — the zero-allocation path. Either
	// way the frame's taint rides in, so the hosting system's policy
	// judges the imported chain at its deliver boundary.
	msg, err = e.sys.DeliverEnvelope(e.target, env)
	return msg, nil, err
}

// reply seals and transmits one reply frame echoing the request's
// correlation ID.
func (e *Exporter) reply(ss *sessState, to string, corr uint64, msg core.Message, herr error) error {
	fp := getBuf()
	frame := appendReplyFrame((*fp)[:0], corr, msg, herr)
	rp := getBuf()
	ss.sendMu.Lock()
	rec, err := ss.sess.SealTo((*rp)[:0], frame)
	if err == nil {
		err = e.ep.Send(to, rec)
	}
	ss.sendMu.Unlock()
	putBuf(fp, frame)
	putBuf(rp, rec)
	return err
}

// complete finishes a pending handshake with the client's finish flight.
// The caller holds hsMu.
func (e *Exporter) complete(dg netsim.Datagram, pending *pendState) error {
	s, err := pending.p.Complete(dg.Payload)
	if err != nil {
		// The peer may have abandoned the old handshake and started
		// over: a well-formed hello replaces the pending handshake.
		// Anything else is dropped — with the original failure kept —
		// without burning the handshake in progress.
		if !securechan.HelloShaped(dg.Payload) {
			return fmt.Errorf("distributed: handshake finish from %s: %w", dg.From, err)
		}
		e.mu.Lock()
		delete(e.pendings, dg.From)
		e.mu.Unlock()
		if herr := e.hello(dg); herr != nil {
			return fmt.Errorf("distributed: handshake restart from %s failed: %v (finish: %w)", dg.From, herr, err)
		}
		return nil
	}
	e.mu.Lock()
	e.sessions[dg.From] = &sessState{sess: s, epoch: pending.epoch}
	delete(e.pendings, dg.From)
	e.mu.Unlock()
	return nil
}

// hello treats the datagram as a client hello: on success the peer's old
// session and pending handshake (if any) are discarded and a new pending
// handshake replaces them. The caller holds hsMu.
func (e *Exporter) hello(dg netsim.Datagram) error {
	cur := e.epoch.Load()
	server, err := securechan.NewServer(securechan.ServerConfig{
		Rand:        e.rand,
		Identity:    e.identity,
		Evidence:    e.evidence,
		ConfigEpoch: cur,
	})
	if err != nil {
		return err
	}
	resp, p, err := server.Respond(dg.Payload)
	if err != nil {
		return err
	}
	e.mu.Lock()
	delete(e.sessions, dg.From)
	// The pending remembers the epoch the keys were derived at — the
	// hello's stamp, not the gate: an ungated (epoch-0) exporter accepts a
	// hello keyed ahead of it, and that session must survive the gate
	// catching up to the same epoch.
	e.pendings[dg.From] = &pendState{p: p, epoch: p.Epoch()}
	e.mu.Unlock()
	return e.ep.Send(dg.From, resp)
}

// result is one resolved call.
type result struct {
	msg core.Message
	err error
}

// waiter parks one caller until its reply (or a failure verdict) arrives.
// The channel has capacity 1 and receives exactly one send per
// registration — whoever deletes the registry entry owns the completion —
// so waiters recycle through a pool without drains or resets.
type waiter struct {
	ch chan result
}

var waiterPool = sync.Pool{New: func() any {
	return &waiter{ch: make(chan result, 1)}
}}

// Stub is the local proxy component. Load it into the importing system
// under the remote component's name; calls flow across the attested
// channel.
//
// A stub is safe for concurrent use and pipelines: any number of callers
// may be in flight over the one session at once. Senders seal and transmit
// under a short send lock; exactly one caller at a time holds the receive
// token and pumps the wire, completing whichever parked caller each reply's
// correlation ID names, until its own reply arrives and it hands the token
// on. See DESIGN.md "Wire format v3 and pipelining".
type Stub struct {
	name string
	cfg  StubConfig
	pump func() error
	mon  Monitor

	// mu guards the session identity and the waiter registry. gen
	// increments whenever the session changes (Close, Connect, failure),
	// invalidating completions aimed at a previous session's calls.
	mu        sync.Mutex
	sess      *securechan.Session
	sessEpoch uint64 // config epoch the live session was keyed at
	gen       uint64
	nextCorr  uint64
	waiters   map[uint64]*waiter

	// sendMu serializes seal+transmit so records hit the wire in send
	// sequence order (the exporter's channel rejects reordered sequences).
	sendMu sync.Mutex

	// recvTok is the receive token: capacity 1, full when no caller is
	// pumping. The holder is the demux loop.
	recvTok chan struct{}

	// coal is the flush queue concurrent senders coalesce through (see
	// coalesce.go).
	coal coalescer
	cmon CoalesceMonitor

	// pumping is set while the token holder is inside a wire round
	// (s.step in the demux loop). A caller that submits during that
	// window self-flushes instead of waiting out the round: its record
	// still reaches the remote before the round's serve, so late
	// arrivals ride the in-flight round instead of doubling the round
	// count — coalescing must never cost wire rounds.
	pumping atomic.Bool

	ops interner

	issued      atomic.Uint64
	completed   atomic.Uint64
	failed      atomic.Uint64
	orphans     atomic.Uint64
	inflight    atomic.Int64
	maxDepth    atomic.Int64
	records     atomic.Uint64
	coalRecords atomic.Uint64
	coalSubs    atomic.Uint64
}

// StubConfig configures a Stub.
type StubConfig struct {
	// RemoteName is the exported component's name (also the stub's local
	// component name so manifests read naturally).
	RemoteName string

	// RemoteEndpoint is the server machine's endpoint name.
	RemoteEndpoint string

	// Endpoint is this machine's network attachment.
	Endpoint *netsim.Endpoint

	// Rand seeds handshake randomness.
	Rand *cryptoutil.PRNG

	// VerifyServer authenticates the remote side: identity key,
	// transcript, attestation evidence. Required — distributed trust is
	// explicit, never assumed.
	VerifyServer func(idPub ed25519.PublicKey, transcript [32]byte, evidence []byte) error

	// Pump, when set, is called whenever the stub expects the remote side
	// to make progress (deliver + serve). The in-process tests wire it to
	// the exporter's Serve; a real deployment has independent processes.
	// It must tolerate concurrent invocation once callers pipeline.
	Pump func() error

	// Clock is the time source remaining budgets are measured against
	// (default time.Now). Simulation harnesses inject a virtual clock.
	Clock func() time.Time

	// Monitor receives pipelining telemetry (default: discard).
	Monitor Monitor

	// Journal, when set, receives secure-channel session lifecycle events
	// ("session-up" on an attested handshake, "session-fail" on handshake
	// or channel failure). Actor labels the events; it defaults to
	// RemoteEndpoint, and a pool admitting the stub sets it to the
	// replica's fleet/name.
	Journal EventRecorder
	Actor   string

	// Epoch, when set, supplies the fleet config epoch each handshake is
	// keyed at: Connect reads it once, stamps it into the hello, and folds
	// it into the session key schedule. A pool wires this to its handshake
	// epoch so reconnects always bind the epoch in force at that moment.
	// Nil (or a 0 return) keeps the pre-epoch wire format.
	Epoch func() uint64
}

// EventRecorder is the structural journal hook (see internal/journal),
// declared here rather than imported — the same pattern as Monitor.
// Implementations must be safe for concurrent use.
type EventRecorder interface {
	RecordEvent(kind, actor, detail string, trace, span uint64)
}

// NewStub validates the config.
func NewStub(cfg StubConfig) (*Stub, error) {
	if cfg.RemoteName == "" || cfg.Endpoint == nil || cfg.Rand == nil || cfg.VerifyServer == nil {
		return nil, fmt.Errorf("distributed: stub config incomplete")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Monitor == nil {
		cfg.Monitor = nopStubMonitor{}
	}
	if cfg.Actor == "" {
		cfg.Actor = cfg.RemoteEndpoint
	}
	s := &Stub{
		name:    cfg.RemoteName,
		cfg:     cfg,
		pump:    cfg.Pump,
		mon:     cfg.Monitor,
		waiters: make(map[uint64]*waiter),
		recvTok: make(chan struct{}, 1),
		cmon:    nopCoalesceMonitor{},
	}
	if cm, ok := cfg.Monitor.(CoalesceMonitor); ok {
		s.cmon = cm
	}
	s.recvTok <- struct{}{}
	return s, nil
}

var _ core.Component = (*Stub)(nil)

// CompName returns the remote component's name.
func (s *Stub) CompName() string { return s.name }

// CompVersion marks the stub as a proxy and names the wire frame version
// it speaks, so a fleet operator can spot a mixed-version rollout from
// `lateralctl cluster` output (the version is part of the stub's measured
// code identity, exactly like shipping a different proxy binary).
func (s *Stub) CompVersion() string { return "stub-1.2+wire" + strconv.Itoa(WireVersion) }

// Init is a no-op; Connect establishes the channel.
func (s *Stub) Init(*core.Ctx) error { return nil }

// Stats returns a snapshot of the pipelining counters.
func (s *Stub) Stats() StubStats {
	return StubStats{
		Issued:           s.issued.Load(),
		Completed:        s.completed.Load(),
		Failed:           s.failed.Load(),
		Orphans:          s.orphans.Load(),
		Inflight:         s.inflight.Load(),
		MaxInflight:      s.maxDepth.Load(),
		Records:          s.records.Load(),
		CoalescedRecords: s.coalRecords.Load(),
		CoalescedSubs:    s.coalSubs.Load(),
	}
}

// step lets the remote side run, if a pump is wired.
func (s *Stub) step() error {
	if s.pump == nil {
		return nil
	}
	return s.pump()
}

// recvOne fetches the next datagram from the configured remote, pumping as
// needed (handshake flights only; record flights go through the demux
// loop).
func (s *Stub) recvOne() (netsim.Datagram, error) {
	if err := s.step(); err != nil {
		return netsim.Datagram{}, err
	}
	dg, ok := s.cfg.Endpoint.Recv()
	if !ok {
		return netsim.Datagram{}, fmt.Errorf("no response from %s: %w", s.cfg.RemoteEndpoint, ErrTransport)
	}
	return dg, nil
}

// Connect runs the attested handshake with the remote exporter. It may be
// called again after Close (or after the transport failed) to establish a
// fresh session; stale datagrams from the previous session are discarded
// before the handshake (so they cannot be mistaken for handshake flights)
// and again before the session is installed (so they cannot be mistaken
// for replies on it). The outcome is journaled as a session lifecycle
// event when a Journal is wired.
func (s *Stub) Connect() error {
	err := s.connect()
	s.recordSession(err)
	return err
}

// recordSession journals a session lifecycle outcome.
func (s *Stub) recordSession(err error) {
	if s.cfg.Journal == nil {
		return
	}
	if err != nil {
		s.cfg.Journal.RecordEvent("session-fail", s.cfg.Actor, err.Error(), 0, 0)
		return
	}
	s.cfg.Journal.RecordEvent("session-up", s.cfg.Actor, "", 0, 0)
}

func (s *Stub) connect() error {
	s.cfg.Endpoint.Drain()
	var epoch uint64
	if s.cfg.Epoch != nil {
		epoch = s.cfg.Epoch()
	}
	client, err := securechan.NewClient(securechan.ClientConfig{
		Rand:         s.cfg.Rand,
		VerifyServer: s.cfg.VerifyServer,
		ConfigEpoch:  epoch,
	})
	if err != nil {
		return err
	}
	if err := s.cfg.Endpoint.Send(s.cfg.RemoteEndpoint, client.Hello()); err != nil {
		return err
	}
	dg, err := s.recvOne()
	if err != nil {
		return err
	}
	sess, finish, err := client.Finish(dg.Payload)
	if err != nil {
		return err
	}
	if err := s.cfg.Endpoint.Send(s.cfg.RemoteEndpoint, finish); err != nil {
		return err
	}
	if err := s.step(); err != nil {
		return err
	}
	// No request has been issued on the new session yet, so anything queued
	// now is leftover traffic from before it existed — e.g. a reply to a
	// request that died with the previous session, flushed by the remote
	// while the handshake was in flight. Discard it here; drained after
	// install it would be undecryptable and fail the fresh session.
	s.cfg.Endpoint.Drain()
	s.install(sess, epoch)
	return nil
}

// SessionEpoch returns the fleet config epoch the live session was keyed
// at, or 0 when disconnected (or keyed pre-epoch).
func (s *Stub) SessionEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sess == nil {
		return 0
	}
	return s.sessEpoch
}

// install swaps in a fresh session, bumping the generation and failing any
// caller still parked on the previous one.
func (s *Stub) install(sess *securechan.Session, epoch uint64) {
	s.mu.Lock()
	s.sess = sess
	s.sessEpoch = epoch
	s.gen++
	// Detach the waiter map before iterating outside the lock; when it is
	// empty, leave it in place and iterate nothing — an aliased empty map
	// would race with Handle's registration.
	var old map[uint64]*waiter
	if len(s.waiters) > 0 {
		old = s.waiters
		s.waiters = make(map[uint64]*waiter)
	}
	s.mu.Unlock()
	for _, w := range old {
		w.ch <- result{err: fmt.Errorf("stub %s: session replaced: %w", s.name, ErrNotConnected)}
	}
}

// Close drops the session; subsequent calls fail with ErrNotConnected
// until Connect succeeds again, and callers already parked for replies are
// released with the same error. The remote exporter notices on the next
// hello (session reset); no goodbye flight crosses the wire, mirroring a
// crash.
func (s *Stub) Close() {
	s.mu.Lock()
	s.sess = nil
	s.gen++
	var old map[uint64]*waiter
	if len(s.waiters) > 0 {
		old = s.waiters
		s.waiters = make(map[uint64]*waiter)
	}
	s.mu.Unlock()
	for _, w := range old {
		w.ch <- result{err: fmt.Errorf("stub %s: session closed: %w", s.name, ErrNotConnected)}
	}
}

// failSession reacts to an unrecoverable receive failure on sess — an
// undecryptable or garbled record means the channel's sequence state is
// lost for good. The session is dropped and every parked caller fails with
// the failure; the receiver's own call (ownCorr) is excluded and reported
// back so the receiver returns it directly. Returns whether the receiver's
// call was still registered (this session failure resolves it).
func (s *Stub) failSession(sess *securechan.Session, gen, ownCorr uint64, err error) bool {
	s.mu.Lock()
	if s.gen != gen {
		s.mu.Unlock()
		return false
	}
	if s.sess == sess {
		s.sess = nil
	}
	s.gen++
	var old map[uint64]*waiter
	if len(s.waiters) > 0 {
		old = s.waiters
		s.waiters = make(map[uint64]*waiter)
	}
	s.mu.Unlock()
	own := false
	for corr, w := range old {
		if corr == ownCorr {
			own = true
			continue
		}
		w.ch <- result{err: fmt.Errorf("stub %s: session failed: %w", s.name, err)}
	}
	s.recordSession(fmt.Errorf("session failed: %w", err))
	return own
}

// unregister removes a waiter registration, claiming ownership of its
// completion. False means another path (a demuxed reply, a broadcast)
// already owns it and its verdict is in — or headed to — the channel.
func (s *Stub) unregister(gen, corr uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != gen {
		return false
	}
	if _, ok := s.waiters[corr]; !ok {
		return false
	}
	delete(s.waiters, corr)
	return true
}

// Connected reports whether a session is established. A true result does
// not promise the remote side is still alive — only Ping can.
func (s *Stub) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sess != nil
}

// Ping runs one liveness probe over the established session. The exporter
// answers from its channel layer, so a healthy reply proves the remote
// process and the session keys, not just the network.
func (s *Stub) Ping() error {
	reply, err := s.Handle(core.Envelope{Msg: core.Message{Op: PingOp}})
	if err != nil {
		return err
	}
	if reply.Op != PongOp {
		return fmt.Errorf("ping answered with %q: %w", reply.Op, ErrTransport)
	}
	return nil
}

// Handle proxies one invocation across the channel. A deadline riding on
// the envelope becomes the frame's remaining-budget field; a call whose
// budget is already spent is refused here, before any bytes are sealed or
// transmitted — the wire is never burned on doomed work.
//
// Handle is safe for concurrent use: each call registers a correlation ID,
// transmits under the send lock, and parks until the demux loop completes
// it. The returned message's Data (when non-empty) is an owned copy the
// caller may retain.
func (s *Stub) Handle(env core.Envelope) (core.Message, error) {
	var budget time.Duration
	if !env.Deadline.IsZero() {
		budget = env.Deadline.Sub(s.cfg.Clock())
		if budget <= 0 {
			return core.Message{}, fmt.Errorf("stub %s: budget spent before transmit: %w", s.name, core.ErrDeadline)
		}
	}

	s.mu.Lock()
	sess := s.sess
	if sess == nil {
		s.mu.Unlock()
		return core.Message{}, fmt.Errorf("stub %s: %w", s.name, ErrNotConnected)
	}
	gen := s.gen
	s.nextCorr++
	corr := s.nextCorr
	w := waiterPool.Get().(*waiter)
	s.waiters[corr] = w
	s.mu.Unlock()

	depth := s.inflight.Add(1)
	for {
		max := s.maxDepth.Load()
		if depth <= max || s.maxDepth.CompareAndSwap(max, depth) {
			break
		}
	}
	s.issued.Add(1)
	s.mon.StubInflight(s.name, 1)
	s.mon.StubCall(s.name, int(depth))

	// Build the request frame into a pooled buffer and hand it to the
	// coalescer: concurrent callers behind the flush leader share one
	// sealed record (one AEAD pass for the lot), a lone caller seals a
	// plain record. Seal and send errors — including this call's own —
	// resolve through the waiters, so every outcome arrives on w.ch or is
	// demuxed like any reply.
	fp := getBuf()
	frame := AppendRequest((*fp)[:0], Request{
		Span:   env.Span,
		Budget: budget,
		Corr:   corr,
		Taint:  env.Taint,
		Op:     env.Msg.Op,
		Data:   env.Msg.Data,
	})
	sub := s.submit(gen, corr, w, fp, frame)
	msg, err := s.awaitReply(sess, gen, corr, w, env.Deadline, sub)
	s.subDone(sub)
	return msg, err
}

// finish books one resolved call and recycles its waiter.
func (s *Stub) finish(w *waiter, res result) (core.Message, error) {
	if res.err == nil {
		s.completed.Add(1)
	} else {
		s.failed.Add(1)
	}
	s.inflight.Add(-1)
	s.mon.StubInflight(s.name, -1)
	waiterPool.Put(w)
	return res.msg, res.err
}

// awaitReply parks until the call resolves: either another caller's demux
// loop completes it through the waiter channel, or this caller wins the
// receive token and runs the demux loop itself.
func (s *Stub) awaitReply(sess *securechan.Session, gen, corr uint64, w *waiter, deadline time.Time, sub *pendingSub) (core.Message, error) {
	for {
		select {
		case res := <-w.ch:
			return s.finish(w, res)
		case <-s.recvTok:
			res, done := s.receive(sess, gen, corr, deadline, sub)
			s.recvTok <- struct{}{}
			if done {
				return s.finish(w, res)
			}
			// Someone else owns this call's completion; loop back to
			// collect it from the channel.
		}
	}
}

// receive is the demux loop. The caller holds the receive token. Each
// round first drains replies already queued at the endpoint — a previous
// round's pump batches replies for every request that had been sent, and
// the receiver that ran it returns as soon as its own lands, leaving the
// rest for the next token holder to collect for free. Only when the inbox
// is dry does the receiver pay for a pump round. It returns the owning
// call's verdict (done=true) or defers to a completion another path owns
// (done=false):
//
//   - this call's reply arrives → its result;
//   - a dry round (pump ran, nothing arrived) → transport loss, because a
//     lockstep pump owes each request its reply within a round;
//   - the call's deadline passes while other traffic keeps arriving → the
//     caller unwinds with ErrDeadline and its late reply, if it ever
//     lands, is dropped as an orphan;
//   - an undecryptable record → the session's sequence state is lost:
//     fail the session and broadcast to every parked caller;
//   - replies naming no parked caller (duplicates, unknown or stale IDs)
//     are counted and dropped, never misdelivered.
func (s *Stub) receive(sess *securechan.Session, gen, ownCorr uint64, deadline time.Time, sub *pendingSub) (result, bool) {
	for {
		s.mu.Lock()
		stale := s.gen != gen
		_, registered := s.waiters[ownCorr]
		s.mu.Unlock()
		if stale || !registered {
			return result{}, false
		}
		if !deadline.IsZero() && !s.cfg.Clock().Before(deadline) {
			if s.unregister(gen, ownCorr) {
				return result{err: fmt.Errorf("stub %s: budget spent awaiting reply: %w", s.name, core.ErrDeadline)}, true
			}
			return result{}, false
		}
		if sub != nil && !sub.flushed.Load() {
			// This call's frame is still queued behind the flush leader.
			// The token holder is the leader: flushing here — immediately
			// before paying for a wire round — is what coalesces every
			// frame that arrived during the previous round into one sealed
			// record. If another flusher beat us to the flag, yield until
			// it disposes of our frame: a dry round before then would be a
			// false transport verdict (the remote side owes nothing yet).
			s.flushQueue()
			if !sub.flushed.Load() {
				runtime.Gosched()
				continue
			}
		}
		// Collect already-delivered traffic before paying for a round.
		res, done, deferred, drained := s.drain(sess, gen, ownCorr)
		if done {
			return res, true
		}
		if deferred {
			return result{}, false
		}
		if drained > 0 {
			continue
		}
		// About to pay for a wire round: gather the in-flight wave, then
		// put every frame queued at the coalescer on the wire first, so
		// the round carries their replies too instead of leaving them for
		// the next token holder. pumping stays set across the round so
		// frames submitted mid-round self-flush onto the in-flight round
		// (see submit).
		s.gatherWave()
		s.flushQueue()
		s.pumping.Store(true)
		err := s.step()
		s.pumping.Store(false)
		if err != nil {
			if s.unregister(gen, ownCorr) {
				return result{err: err}, true
			}
			return result{}, false
		}
		res, done, deferred, drained = s.drain(sess, gen, ownCorr)
		if done {
			return res, true
		}
		if deferred {
			return result{}, false
		}
		if drained == 0 {
			if s.unregister(gen, ownCorr) {
				return result{err: fmt.Errorf("no response from %s: %w", s.cfg.RemoteEndpoint, ErrTransport)}, true
			}
			return result{}, false
		}
	}
}

// drain demuxes every datagram queued at the endpoint. done reports that
// the receiver's own call resolved (res is its verdict); deferred reports
// a session failure whose broadcast already resolved it elsewhere. The
// count of drained datagrams lets the caller distinguish a dry round from
// a round that made progress for other callers.
func (s *Stub) drain(sess *securechan.Session, gen, ownCorr uint64) (res result, done, deferred bool, drained int) {
	for {
		dg, ok := s.cfg.Endpoint.Recv()
		if !ok {
			return result{}, false, false, drained
		}
		drained++
		r, mine, err := s.demux(sess, gen, ownCorr, dg)
		if err != nil {
			if s.failSession(sess, gen, ownCorr, err) {
				return result{err: err}, true, false, drained
			}
			return result{}, false, true, drained
		}
		if mine {
			return r, true, false, drained
		}
	}
}

// demux opens one record and routes the reply it carries. mine reports
// that the reply resolved the receiver's own call (res is its verdict); a
// non-nil error is a session-level failure the caller must escalate.
func (s *Stub) demux(sess *securechan.Session, gen, ownCorr uint64, dg netsim.Datagram) (res result, mine bool, err error) {
	if IsCoalesced(dg.Payload) {
		return s.demuxCoalesced(sess, gen, ownCorr, dg)
	}
	ob := getBuf()
	plain, oerr := sess.OpenTo((*ob)[:0], dg.Payload)
	dg.Release()
	if oerr != nil {
		putBuf(ob, nil)
		return result{}, false, oerr
	}
	if len(plain) < 9 {
		putBuf(ob, plain)
		return result{}, false, fmt.Errorf("short reply frame: %w", ErrTransport)
	}
	corr := binary.BigEndian.Uint64(plain)
	res = s.decodeReply(plain[8:])
	putBuf(ob, plain)

	s.mu.Lock()
	var w *waiter
	if s.gen == gen {
		if ww, ok := s.waiters[corr]; ok {
			delete(s.waiters, corr)
			w = ww
		}
	}
	s.mu.Unlock()
	if w == nil {
		// Duplicate, unknown, or late (the caller already unwound on
		// its deadline): drop and count, never misdeliver.
		s.orphans.Add(1)
		s.mon.StubOrphan(s.name)
		return result{}, false, nil
	}
	if corr == ownCorr {
		return res, true, nil
	}
	w.ch <- res
	return result{}, false, nil
}

// decodeReply parses a reply frame body (after the correlation prefix).
// Everything it keeps is owned: error texts are copied by formatting and a
// non-empty payload is copied out of the pooled buffer.
func (s *Stub) decodeReply(b []byte) result {
	switch b[0] {
	case statusDeadline:
		// Rehydrate the typed error so errors.Is works across the wire.
		return result{err: fmt.Errorf("remote: %s: %w", b[1:], core.ErrDeadline)}
	case statusOverload:
		return result{err: fmt.Errorf("remote: %s: %w", b[1:], core.ErrOverloaded)}
	case statusPolicy:
		return result{err: fmt.Errorf("remote: %s: %w", b[1:], core.ErrPolicy)}
	case statusErr:
		return result{err: fmt.Errorf("%w: %s", ErrRemote, b[1:])}
	}
	op, data, err := decodeCallInto(b[1:], &s.ops)
	if err != nil {
		return result{err: err}
	}
	msg := core.Message{Op: op}
	if len(data) > 0 {
		msg.Data = append([]byte(nil), data...)
	}
	return result{msg: msg}
}
