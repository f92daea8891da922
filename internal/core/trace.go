package core

import (
	"sync/atomic"
	"time"
)

// SpanKind classifies what a span measures on the substrate-crossing path.
type SpanKind uint8

const (
	// SpanDeliver is an external stimulus entering the system (network
	// input, user action) — the root of a causal trace.
	SpanDeliver SpanKind = iota

	// SpanCall is one cross-domain invocation over a granted channel,
	// measured from the sender's side: message clone, substrate crossing,
	// target execution, and reply.
	SpanCall

	// SpanHandle is the target component executing its handler, including
	// the wait for the component's serialization lock. The gap between a
	// SpanCall and its child SpanHandle is pure crossing overhead.
	SpanHandle

	// SpanAssetStore and SpanAssetLoad are domain-memory asset accesses —
	// the "reuse" edge of the paper's Fig. 2 cost model.
	SpanAssetStore
	SpanAssetLoad
)

// String returns the kind's stable lowercase name.
func (k SpanKind) String() string {
	switch k {
	case SpanDeliver:
		return "deliver"
	case SpanCall:
		return "call"
	case SpanHandle:
		return "handle"
	case SpanAssetStore:
		return "asset-store"
	case SpanAssetLoad:
		return "asset-load"
	default:
		return "unknown"
	}
}

// Span identifies one timed operation within a causal trace. IDs are
// allocated from a per-System sequence salted with a process-wide system
// index, so spans from different systems (e.g. the two machines of a
// distributed deployment) never collide in a shared tracer.
type Span struct {
	Trace  uint64 // the request this span belongs to
	ID     uint64 // this span
	Parent uint64 // enclosing span; 0 for trace roots
}

// SpanInfo carries the static attributes of a span. All fields are values
// the system already holds, so building one costs no allocation.
type SpanInfo struct {
	Kind    SpanKind
	Channel string // granted channel name (SpanCall only)
	From    string // invoking component; "" for external stimuli
	To      string // target (or owning, for assets) component
	Domain  string // target component's domain
	Trusted bool   // whether that domain is trusted
	Op      string // message op, or asset name for asset spans
	Bytes   int    // payload size
}

// Tracer observes the substrate-crossing hot path: invocations, handler
// executions, and asset accesses, each as a start/end span pair carrying
// causal parent links.
//
// Tracer is deliberately distinct from Observer: an Observer models what an
// ADVERSARY inside a compromised domain can see (payload bytes included),
// while a Tracer models what the infrastructure operator measures — timing,
// topology, and sizes, never payload contents. The telemetry package
// provides metrics and trace-recording implementations.
//
// Implementations must be safe for concurrent use and should be cheap:
// both methods run on the invocation hot path.
type Tracer interface {
	// SpanStart fires when the operation begins, before any work is done.
	SpanStart(sp Span, info SpanInfo, start time.Time)

	// SpanEnd fires when the operation completes. elapsed is measured by
	// the system; err is the operation's outcome.
	SpanEnd(sp Span, info SpanInfo, start time.Time, elapsed time.Duration, err error)
}

// systemSeq hands each System a distinct span-ID namespace (top bits), so
// traces recorded from several systems into one tracer stay unambiguous.
var systemSeq atomic.Uint64

// spanBase returns the ID-sequence base for the next system.
func spanBase() uint64 {
	return systemSeq.Add(1) << 40
}

// SetTracer installs (or, with nil, removes) the telemetry hook. The
// uninstrumented path is the fast path: with a nil tracer no span IDs are
// allocated, no clocks are read, and no extra allocations happen.
func (s *System) SetTracer(t Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

// SetTraceSampling makes the system trace only one in every n externally
// delivered requests (head sampling). The decision is made once, at the
// trace root: a sampled request is traced end to end — every call, handler,
// and asset span it causes — while an unsampled request runs the untraced
// fast path throughout. Continuations of a remote trace (a delivery with a
// non-zero parent span) always honor the upstream machine's decision, so
// distributed traces never arrive half-stitched. n <= 1 restores the
// default of tracing every request.
func (s *System) SetTraceSampling(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		n = 1
	}
	s.sampleEvery = uint64(n)
	s.sampleCtr = 0
}

// newSpan allocates the next span beneath parent; a zero parent starts a
// fresh trace. Caller holds s.mu.
func (s *System) newSpan(parent Span) Span {
	s.spanSeq++
	if parent.Trace == 0 {
		s.traceSeq++
		return Span{Trace: s.traceSeq, ID: s.spanSeq}
	}
	return Span{Trace: parent.Trace, ID: s.spanSeq, Parent: parent.ID}
}

// beginAssetSpan starts an asset-access span for n, parented to whatever
// invocation n is currently executing. It returns a nil Tracer when
// tracing is off.
func (s *System) beginAssetSpan(n *node, kind SpanKind, asset string, size int) (Tracer, Span, SpanInfo, time.Time) {
	s.mu.Lock()
	tr := s.tracer
	if tr == nil || n.span == (Span{}) {
		// No tracer, or the access happens outside a traced request
		// (sampled out, or at Init time): fast path.
		s.mu.Unlock()
		return nil, Span{}, SpanInfo{}, time.Time{}
	}
	sp := s.newSpan(n.span)
	info := SpanInfo{
		Kind:    kind,
		To:      n.comp.CompName(),
		Domain:  n.domainName,
		Trusted: n.dom.handle.Trusted(),
		Op:      asset,
		Bytes:   size,
	}
	s.mu.Unlock()
	start := s.now()
	tr.SpanStart(sp, info, start)
	return tr, sp, info, start
}
