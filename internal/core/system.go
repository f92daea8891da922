package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ChannelSpec declares one communication channel between components, as a
// manifest grants it. Channels are unidirectional request/reply paths: the
// From component may invoke the To component; replies flow back on the
// same invocation. Anything not granted is blocked by the substrate.
type ChannelSpec struct {
	// Name is how the sender addresses the channel (unique per sender).
	Name string

	// From and To are component names.
	From string
	To   string

	// Badge, when nonzero, makes this a capability-style channel: the
	// receiver sees the substrate-established sender identity and badge.
	// A zero badge models ambient authority: the receiver learns nothing
	// about who invoked it beyond what the payload claims.
	Badge uint64

	// Declassify marks data flowing here as deliberately released to a
	// less-trusted receiver; the manifest analyzer will not flag it.
	Declassify bool
}

type channel struct {
	spec ChannelSpec
	to   *node
	uses int64
}

// ChannelUse reports how often one granted channel was actually invoked —
// the raw material for POLA pruning (§IV: tooling to tighten manifests).
type ChannelUse struct {
	Name  string
	From  string
	To    string
	Badge uint64
	Uses  int64
}

type assetRef struct {
	off int
	n   int
}

// domainState tracks one substrate domain and the components living in it.
type domainState struct {
	handle      DomainHandle
	comps       []*node
	compromised bool
	allocOff    int
}

// node is one loaded component.
type node struct {
	comp       Component
	domainName string
	dom        *domainState
	out        map[string]*channel
	assets     map[string]assetRef

	// handleMu is the component's single execution slot, upholding the
	// Component contract ("Handle is never invoked concurrently for the
	// same component"). Like synchronous IPC on a real microkernel, a
	// CYCLE of calls (A→B→A) therefore deadlocks; manifests must keep the
	// call graph acyclic. Entry to the slot is bounded by the admission
	// queue below: callers beyond the limit are shed with ErrOverloaded
	// instead of convoying here forever.
	handleMu sync.Mutex

	// admitted counts callers currently waiting for or holding the
	// execution slot — the admission queue depth. Bounded by
	// System.admitLimit; see invoke.
	admitted atomic.Int32

	// deadline is the budget of the invocation the component is currently
	// executing, guarded by handleMu: run installs it while holding the
	// slot, and the only readers are the handler's own outbound calls,
	// made while it still holds the slot. Outbound calls inherit it, so a
	// budget set at the edge bounds the whole transitive call tree. A
	// handler abandoned by the watchdog keeps its (expired) deadline, so
	// its residual outbound calls fail fast instead of doing unbounded
	// downstream work.
	deadline time.Time

	// span is the handler span the component is currently executing,
	// guarded by handleMu like deadline. Outbound calls parent to it.
	span Span

	// taint is the accumulated chain taint of the invocation the component
	// is currently executing, guarded by handleMu like deadline and span.
	// run installs the envelope's taint; outbound calls inherit it and
	// grow it with labels the policy hook says the touched channel or
	// asset confers. Sorted; treated as immutable once installed (merges
	// allocate a new slice), so envelopes on other goroutines may alias it.
	taint []string
}

// Stats are the system's virtual cost counters, used by the experiment
// harness to compare substrates.
type Stats struct {
	// Invocations counts cross-domain calls (including external Deliver).
	Invocations int64

	// TrustedInvocations counts calls whose target domain is trusted.
	TrustedInvocations int64

	// VirtualNs is the accumulated modeled time: one InvokeCostNs per
	// invocation.
	VirtualNs int64

	// Timeouts counts calls whose budget was spent: refused pre-dispatch
	// because the deadline had already passed, or abandoned mid-handler by
	// the watchdog.
	Timeouts int64

	// Cancels counts calls released because the caller's context was
	// canceled.
	Cancels int64

	// Overloads counts calls shed by a full per-component admission queue.
	Overloads int64

	// PolicyDenies counts invocations refused by the installed Policy.
	PolicyDenies int64
}

// System loads components onto one substrate and runs the horizontal
// component model over it.
type System struct {
	mu       sync.Mutex
	sub      Substrate
	props    Properties
	nodes    map[string]*node
	domains  map[string]*domainState
	order    []*node // init order
	observer Observer
	stats    Stats

	// tracer is the telemetry hook (see trace.go); nil means the
	// uninstrumented fast path. spanSeq and traceSeq allocate IDs under
	// mu, starting from a per-system base so several systems can share
	// one tracer.
	tracer   Tracer
	spanSeq  uint64
	traceSeq uint64

	// events is the journal hook (see events.go); nil means budget sheds
	// go unjournaled. Only error branches read it, never the steady path.
	events EventRecorder

	// policy is the chain-aware enforcement hook (see policy.go); nil is
	// the fast path — no taint computed, no check made. Snapshotted under
	// mu in call/deliver alongside observer and tracer.
	policy Policy

	// sampleEvery enables head sampling: only one in every sampleEvery
	// externally delivered requests is traced (0 or 1 = trace all).
	// sampleCtr counts root delivers under mu.
	sampleEvery uint64
	sampleCtr   uint64

	// admitLimit bounds each component's admission queue (waiters plus the
	// executing handler); 0 disables the bound. Read lock-free on the
	// invocation hot path.
	admitLimit atomic.Int32

	// clock is the time source for budget checks and span timing.
	// Defaults to the wall clock; SetClock swaps in a virtual one. Read
	// lock-free on the hot path, so it must be set before traffic.
	clock Clock

	// deadlines is the watchdog: every budgeted call in flight is queued
	// there until its verdict (see deadline.go).
	deadlines *deadlineQueue
}

// DefaultAdmissionLimit is the per-component admission-queue bound a new
// System starts with. It is deliberately generous — normal workloads never
// come near it — while still guaranteeing that a hung handler convoys a
// bounded number of callers instead of every goroutine in the process.
const DefaultAdmissionLimit = 256

// NewSystem creates an empty system on the given substrate.
func NewSystem(sub Substrate) *System {
	base := spanBase()
	s := &System{
		sub:       sub,
		props:     sub.Properties(),
		nodes:     make(map[string]*node),
		domains:   make(map[string]*domainState),
		spanSeq:   base,
		traceSeq:  base,
		clock:     realClock{},
		deadlines: newDeadlineQueue(realClock{}),
	}
	s.admitLimit.Store(DefaultAdmissionLimit)
	return s
}

// SetAdmissionLimit bounds every component's admission queue to n callers
// (waiters plus the executing handler); callers beyond it are shed with
// ErrOverloaded. n <= 0 removes the bound entirely — the pre-backpressure
// queue-forever behavior, useful only in tests.
func (s *System) SetAdmissionLimit(n int) {
	if n < 0 {
		n = 0
	}
	s.admitLimit.Store(int32(n))
}

// Substrate returns the substrate the system runs on.
func (s *System) Substrate() Substrate { return s.sub }

// Properties returns the substrate properties.
func (s *System) Properties() Properties { return s.props }

// SetObserver installs the adversary's observation sink. Passing nil
// removes it.
func (s *System) SetObserver(o Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = o
}

// Stats returns a snapshot of the cost counters.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the cost counters (used between benchmark phases).
func (s *System) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// Launch loads a component into its own fresh domain (the horizontal
// design: one component, one protection domain).
func (s *System) Launch(c Component, trusted bool, memPages int) error {
	return s.Colocate(c.CompName(), trusted, memPages, c)
}

// Colocate loads several components into ONE shared domain — the vertical
// design of Fig. 1. The domain's code image is the concatenation of all
// component images (a single monolithic binary). A compromise of any
// colocated component compromises them all; that consequence is enforced
// by System, not assumed.
func (s *System) Colocate(domainName string, trusted bool, memPages int, comps ...Component) error {
	if len(comps) == 0 {
		return fmt.Errorf("colocate %s: no components", domainName)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.domains[domainName]; ok {
		return fmt.Errorf("colocate %s: %w", domainName, ErrDomainExists)
	}
	for _, c := range comps {
		if _, ok := s.nodes[c.CompName()]; ok {
			return fmt.Errorf("component %s: %w", c.CompName(), ErrDomainExists)
		}
	}
	code := DomainImage(comps...)
	if memPages <= 0 {
		memPages = 1
	}
	h, err := s.sub.CreateDomain(DomainSpec{
		Name:     domainName,
		Code:     code,
		Trusted:  trusted,
		MemPages: memPages,
	})
	if err != nil {
		return fmt.Errorf("create domain %s: %w", domainName, err)
	}
	dom := &domainState{handle: h}
	s.domains[domainName] = dom
	for _, c := range comps {
		n := &node{
			comp:       c,
			domainName: domainName,
			dom:        dom,
			out:        make(map[string]*channel),
			assets:     make(map[string]assetRef),
		}
		dom.comps = append(dom.comps, n)
		s.nodes[c.CompName()] = n
		s.order = append(s.order, n)
	}
	return nil
}

// Grant wires one channel. Both endpoints must already be loaded.
func (s *System) Grant(spec ChannelSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	from, ok := s.nodes[spec.From]
	if !ok {
		return fmt.Errorf("grant %s: from %s: %w", spec.Name, spec.From, ErrNoDomain)
	}
	to, ok := s.nodes[spec.To]
	if !ok {
		return fmt.Errorf("grant %s: to %s: %w", spec.Name, spec.To, ErrNoDomain)
	}
	if _, dup := from.out[spec.Name]; dup {
		return fmt.Errorf("grant %s from %s: channel name already granted", spec.Name, spec.From)
	}
	from.out[spec.Name] = &channel{spec: spec, to: to}
	return nil
}

// InitAll initializes every component in load order.
func (s *System) InitAll() error {
	s.mu.Lock()
	order := make([]*node, len(s.order))
	copy(order, s.order)
	s.mu.Unlock()
	for _, n := range order {
		if err := n.comp.Init(&Ctx{sys: s, node: n}); err != nil {
			return fmt.Errorf("init %s: %w", n.comp.CompName(), err)
		}
	}
	return nil
}

// Deliver injects an external stimulus (network input, user action) into a
// component, as if from the outside world. External input has no channel
// identity.
func (s *System) Deliver(target string, msg Message) (Message, error) {
	return s.deliver(nil, target, msg, Span{}, time.Time{})
}

// DeliverDeadline injects an external stimulus under a call budget,
// continuing a causal trace started elsewhere: the call returns
// ErrDeadline once the deadline passes, whether it was still queued or
// mid-handler (the watchdog abandons the handler). The budget propagates
// to every transitive call the handler makes. A zero deadline means
// unbounded, and a zero parent starts a fresh trace (Deliver's behavior).
func (s *System) DeliverDeadline(target string, msg Message, parent Span, deadline time.Time) (Message, error) {
	return s.deliver(nil, target, msg, parent, deadline)
}

// DeliverCtx injects an external stimulus bound to ctx: cancellation
// releases the caller with ErrCanceled, and a ctx deadline is enforced
// like DeliverDeadline's.
func (s *System) DeliverCtx(ctx context.Context, target string, msg Message) (Message, error) {
	var deadline time.Time
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}
	return s.deliver(ctx, target, msg, Span{}, deadline)
}

// DeliverEnvelope injects an external stimulus described by a prebuilt
// envelope: span, deadline, and imported chain taint all travel together.
// Unlike DeliverDeadline it does not clone the payload: the envelope
// borrows env.Msg.Data for the duration of the call. The caller must keep
// the backing buffer untouched until the call returns, and the target
// component must not retain Data beyond its Handle invocation (replies
// that alias the request data are fine — the caller consumes the reply
// before reusing the buffer). The distributed exporter uses it to dispatch
// a decoded wire frame straight from a pooled record buffer, its taint
// field continuing a chain started on another machine; the installed
// Policy judges that taint at this deliver boundary before the target
// runs.
func (s *System) DeliverEnvelope(target string, env Envelope) (Message, error) {
	env.From, env.Badge = "", 0 // external input has no channel identity
	return s.deliverEnv(nil, target, &env)
}

// DeliverBatch delivers msgs to target as one frame, handing each
// message's reply to each, in order. frame carries the span, deadline and
// taint the messages share; frame.Msg is ignored. Each message is booked,
// policy-checked, traced and observed as its own DeliverEnvelope would
// be, but the frame resolves the target and reads the hooks once, so a
// SetPolicy, SetTracer or Compromise that lands mid-frame applies from the
// next frame. An unbudgeted frame is admitted once, the way one unguarded
// call is, and runs every handler under that one hold of the execution
// slot; shed at the admission limit, every message fails with
// ErrOverloaded. A budgeted frame delivers each message guarded against
// the one frame deadline. Like DeliverEnvelope it borrows the payloads: a
// budgeted frame's caller must clone them, since the watchdog may abandon
// a handler still reading one.
func (s *System) DeliverBatch(target string, frame Envelope, msgs []Message, each func(reply Message, err error)) {
	var d delivery
	if err := s.resolve(&d, target, len(msgs)); err != nil {
		for range msgs {
			each(Message{}, err)
		}
		return
	}
	var slot *frameSlot
	if frame.Deadline.IsZero() {
		slot = &frameSlot{}
		defer slot.release(d.n)
	}
	env := Envelope{Deadline: frame.Deadline}
	for _, m := range msgs {
		// deliverOne rewrites the span and taint it is handed.
		env.Msg, env.Span, env.Taint = m, frame.Span, frame.Taint
		each(s.deliverOne(nil, &d, &env, slot))
	}
}

// deliver is the single entry point behind every Deliver variant. A nil
// ctx is the internal spelling of "no cancellation source": entry points
// without a context pass nil so the steady path never pays the
// context.Context interface calls (Done, Deadline) that even a Background
// context would cost on every hop.
func (s *System) deliver(ctx context.Context, target string, msg Message, parent Span, deadline time.Time) (Message, error) {
	env := Envelope{Msg: Message{Op: msg.Op, Data: msg.CloneData()}, Span: parent, Deadline: deadline}
	return s.deliverEnv(ctx, target, &env)
}

// deliverEnv is deliver after the ownership decision: env.Msg is placed in
// the envelope as-is, and env.Span is the parent span. deliver clones;
// DeliverEnvelope passes the caller's buffer through under the borrow
// contract documented there. It is the one-message case of DeliverBatch:
// the same resolve, then the same per-message step.
func (s *System) deliverEnv(ctx context.Context, target string, env *Envelope) (Message, error) {
	var d delivery
	if err := s.resolve(&d, target, 1); err != nil {
		return Message{}, err
	}
	return s.deliverOne(ctx, &d, env, nil)
}

// delivery is an external delivery's resolved target and the hooks read
// for it, once for however many messages it carries.
type delivery struct {
	target      string
	n           *node
	compromised bool
	obs         Observer
	tr          Tracer
	pol         Policy
}

// resolve looks target up, books count invocations of it, and reads the
// hooks into d, all under one s.mu hold.
func (s *System) resolve(d *delivery, target string, count int) error {
	s.mu.Lock()
	n, ok := s.nodes[target]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("deliver to %s: %w", target, ErrNoDomain)
	}
	s.account(n, int64(count))
	d.target, d.n, d.compromised = target, n, n.dom.compromised
	d.obs, d.tr, d.pol = s.observer, s.tracer, s.policy
	s.mu.Unlock()
	return nil
}

// deliverOne is one message of a resolved delivery: head sampling and the
// deliver span, the policy check at the deliver boundary, then dispatch.
// env.Span holds the parent span on entry and the deliver span (zero when
// untraced) after. slot is an unbudgeted batch frame's admission, nil for
// everything else.
func (s *System) deliverOne(ctx context.Context, d *delivery, env *Envelope, slot *frameSlot) (Message, error) {
	tr := d.tr
	parent := env.Span
	env.Span = Span{}
	var info SpanInfo
	if tr != nil {
		s.mu.Lock()
		if parent == (Span{}) && s.sampleEvery > 1 {
			// Head sampling: decide once at the trace root. An unsampled
			// request runs the untraced fast path end to end; continuations
			// of a remote trace (non-zero parent) always honor the upstream
			// decision instead of rolling their own.
			s.sampleCtr++
			if s.sampleCtr%s.sampleEvery != 0 {
				tr = nil
			}
		}
		if tr != nil {
			env.Span = s.newSpan(parent)
		}
		s.mu.Unlock()
		info = SpanInfo{
			Kind:    SpanDeliver,
			To:      d.target,
			Domain:  d.n.domainName,
			Trusted: d.n.dom.handle.Trusted(),
			Op:      env.Msg.Op,
			Bytes:   len(env.Msg.Data),
		}
	}
	sp := env.Span
	if d.pol != nil {
		// The deliver boundary is where wire-imported taint is judged:
		// the chain continuing here already touched whatever the taint
		// names, possibly on another machine.
		acquire, perr := d.pol.CheckInvoke(PolicyRequest{
			Taint: env.Taint, Channel: PolicyDeliver, To: d.target, Op: env.Msg.Op,
		})
		if perr != nil {
			perr = fmt.Errorf("deliver to %s: %w", d.target, perr)
			s.notePolicyDeny(perr, d.target, sp)
			if tr != nil {
				s.traceDeny(tr, sp, info, perr)
			}
			return Message{}, perr
		}
		if len(acquire) > 0 {
			env.Taint = MergeTaint(env.Taint, acquire)
		}
	}
	if tr == nil {
		return s.dispatch(ctx, d.n, env, d.compromised, d.obs, nil, slot)
	}
	start := s.now()
	tr.SpanStart(sp, info, start)
	reply, err := s.dispatch(ctx, d.n, env, d.compromised, d.obs, tr, slot)
	tr.SpanEnd(sp, info, start, s.now().Sub(start), err)
	return reply, err
}

// call implements Ctx.Call and Ctx.CallCtx. ctx may be nil (Ctx.Call); see
// System.deliver for the convention.
func (s *System) call(ctx context.Context, from *node, channelName string, msg Message) (Message, error) {
	s.mu.Lock()
	ch, ok := from.out[channelName]
	if !ok {
		s.mu.Unlock()
		return Message{}, fmt.Errorf("%s calling %q: %w", from.comp.CompName(), channelName, ErrNoChannel)
	}
	deadline := from.deadline
	if ctx != nil {
		deadline = effectiveDeadline(from.deadline, ctx)
	}
	taint := from.taint
	ch.uses++
	s.account(ch.to, 1)
	fromCompromised := from.dom.compromised
	toCompromised := ch.to.dom.compromised
	obs := s.observer
	tr := s.tracer
	pol := s.policy
	if tr != nil && from.span == (Span{}) {
		// Caller is executing outside a traced request (sampled out, or
		// running at Init time): keep the whole subtree untraced.
		tr = nil
	}
	var sp Span
	var info SpanInfo
	if tr != nil {
		sp = s.newSpan(from.span)
		info = SpanInfo{
			Kind:    SpanCall,
			Channel: channelName,
			From:    from.comp.CompName(),
			To:      ch.to.comp.CompName(),
			Domain:  ch.to.domainName,
			Trusted: ch.to.dom.handle.Trusted(),
			Op:      msg.Op,
			Bytes:   len(msg.Data),
		}
	}
	s.mu.Unlock()

	env := Envelope{Msg: msg.Clone(), Span: sp, Deadline: deadline, Taint: taint}
	if ch.spec.Badge != 0 {
		env.From = from.comp.CompName()
		env.Badge = ch.spec.Badge
	}
	if pol != nil {
		acquire, perr := pol.CheckInvoke(PolicyRequest{
			Taint: taint, From: from.comp.CompName(), Channel: channelName,
			To: ch.to.comp.CompName(), Op: msg.Op,
		})
		if perr != nil {
			perr = fmt.Errorf("%s calling %q: %w", from.comp.CompName(), channelName, perr)
			s.notePolicyDeny(perr, from.comp.CompName(), sp)
			if tr != nil {
				s.traceDeny(tr, sp, info, perr)
			}
			return Message{}, perr
		}
		if len(acquire) > 0 {
			// Touching this channel taints the whole chain, not just the
			// callee: the caller's residual work carries the labels too.
			// from.taint is guarded by the caller's execution slot, the
			// same discipline as the inherited deadline and span.
			taint = MergeTaint(taint, acquire)
			from.taint = taint
			env.Taint = taint
		}
	}
	if fromCompromised && obs != nil {
		// The adversary inside the sender knows what it sent.
		obs.Observe("send:"+from.comp.CompName()+"->"+ch.to.comp.CompName(), msg.Data)
	}
	var start time.Time
	if tr != nil {
		start = s.now()
		tr.SpanStart(sp, info, start)
	}
	reply, err := s.dispatch(ctx, ch.to, &env, toCompromised, obs, tr, nil)
	if tr != nil {
		tr.SpanEnd(sp, info, start, s.now().Sub(start), err)
	}
	if fromCompromised && obs != nil && err == nil {
		// ... and reads the reply.
		obs.Observe("reply:"+ch.to.comp.CompName()+"->"+from.comp.CompName(), reply.Data)
	}
	return reply, err
}

// account updates cost counters for count invocations into node n.
// Caller holds s.mu.
func (s *System) account(n *node, count int64) {
	s.stats.Invocations += count
	s.stats.VirtualNs += count * s.props.InvokeCostNs
	if n.dom.handle.Trusted() {
		s.stats.TrustedInvocations += count
	}
}

// dispatch routes an envelope to the node's benign or compromised behavior,
// wrapping the execution in a handler span when tracing is on. A call whose
// budget is already spent (or whose context is done) is refused here,
// before any handler runs, so expired work never occupies the target.
// compromised, obs, and tr are the caller's snapshots, read under s.mu in
// call/deliver — dispatch itself takes no lock on the untraced path; the
// node's budget/span bookkeeping happens under its execution slot in run.
// slot is an unbudgeted batch frame's admission (see DeliverBatch), nil
// for every other call.
func (s *System) dispatch(ctx context.Context, n *node, env *Envelope, compromised bool, obs Observer, tr Tracer, slot *frameSlot) (Message, error) {
	// guarded: the call carries a budget or a cancelable context, so it
	// must run under the watchdog. Computed once here; the unguarded path
	// skips every budget check downstream.
	guarded := !env.Deadline.IsZero() || (ctx != nil && ctx.Done() != nil)
	if guarded {
		if err := s.budgetErr(ctx, env.Deadline); err != nil {
			s.noteBudgetErr(err, n.comp.CompName(), env.Span)
			return Message{}, fmt.Errorf("dispatch to %s: %w", n.comp.CompName(), err)
		}
	}
	var sp Span
	var info SpanInfo
	if tr != nil && env.Span == (Span{}) {
		// The enclosing request was sampled out (or predates the tracer):
		// keep the whole subtree untraced.
		tr = nil
	}
	if tr != nil {
		s.mu.Lock()
		sp = s.newSpan(env.Span)
		s.mu.Unlock()
		env.Span = sp // run installs it; proxies forwarding the envelope propagate it
		info = SpanInfo{
			Kind:    SpanHandle,
			From:    env.From,
			To:      n.comp.CompName(),
			Domain:  n.domainName,
			Trusted: n.dom.handle.Trusted(),
			Op:      env.Msg.Op,
			Bytes:   len(env.Msg.Data),
		}
	}
	if tr == nil {
		if slot != nil {
			return s.invokeFramed(n, env, compromised, obs, slot)
		}
		return s.invoke(ctx, n, env, guarded, compromised, obs)
	}
	start := s.now()
	tr.SpanStart(sp, info, start)
	var reply Message
	var err error
	if slot != nil {
		reply, err = s.invokeFramed(n, env, compromised, obs, slot)
	} else {
		reply, err = s.invoke(ctx, n, env, guarded, compromised, obs)
	}
	tr.SpanEnd(sp, info, start, s.now().Sub(start), err)
	return reply, err
}

// invoke admits the call into the component's bounded queue and runs the
// handler. Invocations of one component are serialized (node.handleMu);
// entry is bounded (node.admitted vs System.admitLimit) so a hung handler
// sheds excess callers with ErrOverloaded instead of convoying them
// forever. Unguarded calls (no budget, no cancelable context) whose slot
// is free bypass the admission counter entirely — an uncontended TryLock
// proves the queue is empty, so there is nothing to bound; that keeps the
// steady path at the cost of one mutex, same as before backpressure
// existed. Everyone else is counted while queued or running:
//   - unguarded but contended: count self as a waiter, shed when waiters
//     would exceed limit-1 (the uncounted slot holder is the limit-th);
//   - guarded: count self for the handler's whole lifetime (the watchdog
//     decrements after the handler really finishes, even abandoned), shed
//     when the count would exceed limit.
//
// Both sheds refuse the call at the same total occupancy: limit callers
// inside or waiting on the component. dispatch hands a message of an
// unbudgeted batch frame to invokeFramed instead, which runs it under the
// frame's one admission.
func (s *System) invoke(ctx context.Context, n *node, env *Envelope, guarded, compromised bool, obs Observer) (Message, error) {
	if !guarded {
		if n.handleMu.TryLock() {
			defer n.handleMu.Unlock()
			return s.run(n, env, compromised, obs)
		}
		return s.invokeQueued(n, env, compromised, obs)
	}
	limit := s.admitLimit.Load()
	if w := n.admitted.Add(1); limit > 0 && w > limit {
		n.admitted.Add(-1)
		err := fmt.Errorf("%s: %d callers queued: %w", n.comp.CompName(), w-1, ErrOverloaded)
		s.noteBudgetErr(err, n.comp.CompName(), env.Span)
		return Message{}, err
	}
	return s.invokeGuarded(ctx, n, env, compromised, obs)
}

// invokeQueued is invoke's contended unguarded path: the slot holder is
// running, so count self into the admission queue and wait. Split out of
// invoke so the uncontended path above keeps a single open-coded defer —
// three defer sites across branches push invoke past the compiler's
// open-coding budget and put heap defer records on every call.
func (s *System) invokeQueued(n *node, env *Envelope, compromised bool, obs Observer) (Message, error) {
	if err := s.enqueue(n); err != nil {
		s.noteBudgetErr(err, n.comp.CompName(), env.Span)
		return Message{}, err
	}
	defer n.admitted.Add(-1)
	n.handleMu.Lock()
	defer n.handleMu.Unlock()
	return s.run(n, env, compromised, obs)
}

// enqueue counts an unguarded caller that found n's slot busy into its
// admission queue, or refuses it with ErrOverloaded when waiters would
// exceed limit-1. The caller decrements n.admitted once it is done.
func (s *System) enqueue(n *node) error {
	limit := s.admitLimit.Load()
	if w := n.admitted.Add(1); limit > 0 && w >= limit {
		n.admitted.Add(-1)
		return fmt.Errorf("%s: %d callers queued: %w", n.comp.CompName(), w, ErrOverloaded)
	}
	return nil
}

// frameSlot is an unbudgeted batch frame's one admission into its target's
// execution slot. The first message that reaches the slot admits the
// frame the way invoke admits one unguarded call; every later message
// runs under the same hold, or fails with the same shed; DeliverBatch
// releases the slot when the frame is done.
type frameSlot struct {
	tried   bool  // the frame's first message tried the slot
	counted bool  // the slot was busy: the frame holds an admission count
	shed    error // the frame was refused at the admission limit
}

// invokeFramed runs one message of an unbudgeted batch frame under the
// frame's admission, taking it on the frame's first message.
func (s *System) invokeFramed(n *node, env *Envelope, compromised bool, obs Observer, f *frameSlot) (Message, error) {
	if !f.tried {
		f.tried = true
		if !n.handleMu.TryLock() {
			if f.shed = s.enqueue(n); f.shed == nil {
				f.counted = true
				n.handleMu.Lock()
			}
		}
	}
	if f.shed != nil {
		s.noteBudgetErr(f.shed, n.comp.CompName(), env.Span)
		return Message{}, f.shed
	}
	return s.run(n, env, compromised, obs)
}

// release gives back what the frame's admission took.
func (f *frameSlot) release(n *node) {
	if f.tried && f.shed == nil {
		n.handleMu.Unlock()
	}
	if f.counted {
		n.admitted.Add(-1)
	}
}

// run executes the component's benign or compromised behavior. The caller
// holds the component's execution slot (handleMu), which also guards the
// node's inherited budget and handler span installed here: the handler's
// outbound calls read them back from its own slot, so no system-wide lock
// is needed on this path.
func (s *System) run(n *node, env *Envelope, compromised bool, obs Observer) (Message, error) {
	if !env.Deadline.IsZero() || !n.deadline.IsZero() {
		// Record the handler's budget so its outbound calls inherit the
		// remainder (and clear a stale one left by an earlier budgeted
		// invocation). Conditional store to keep the steady path read-only.
		n.deadline = env.Deadline
	}
	if env.Span != n.span {
		// Same for the handler span: outbound calls parent to it; a zero
		// span (untraced or sampled-out request) clears any stale one so
		// this handler's calls don't attach to an old trace.
		n.span = env.Span
	}
	if len(env.Taint) != 0 || len(n.taint) != 0 {
		// And for the chain taint: the handler's outbound calls inherit the
		// labels this invocation arrived with (an untainted invocation
		// clears a stale set). Conditional store keeps the steady path
		// read-only, like the budget above.
		n.taint = env.Taint
	}
	if compromised {
		// The adversary controls the whole domain: it reads the incoming
		// message no matter which colocated component it addressed.
		if obs != nil {
			obs.Observe("recv:"+n.comp.CompName(), env.Msg.Data)
		}
		if sub, ok := n.comp.(Subvertible); ok {
			reply, err := sub.HandleCompromised(*env)
			if obs != nil && err == nil {
				obs.Observe("emit:"+n.comp.CompName(), reply.Data)
			}
			return reply, err
		}
		// Component has no modeled exploit payload; it limps on, but the
		// adversary already observed the traffic above.
	}
	return n.comp.Handle(*env)
}

// Compromise marks the domain hosting the named component as attacker
// controlled. Everything the domain can read — per the SUBSTRATE's
// compromise view, not the component's — is immediately exposed to the
// observer. All colocated components fall together.
func (s *System) Compromise(component string) error {
	s.mu.Lock()
	n, ok := s.nodes[component]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("compromise %s: %w", component, ErrNoDomain)
	}
	dom := n.dom
	dom.compromised = true
	obs := s.observer
	s.mu.Unlock()
	if obs != nil {
		for i, view := range dom.handle.CompromiseView() {
			obs.Observe(fmt.Sprintf("memdump:%s:%d", n.domainName, i), view)
		}
	}
	return nil
}

// IsCompromised reports whether the named component's domain is attacker
// controlled.
func (s *System) IsCompromised(component string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[component]
	return ok && n.dom.compromised
}

// Components returns all loaded component names in load order.
func (s *System) Components() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, n.comp.CompName())
	}
	return out
}

// DomainOf returns the name of the domain hosting a component.
func (s *System) DomainOf(component string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[component]
	if !ok {
		return "", fmt.Errorf("domain of %s: %w", component, ErrNoDomain)
	}
	return n.domainName, nil
}

// HandleOf returns the substrate handle of a component's domain, for
// packages (attestation, metrics) that need direct substrate access.
func (s *System) HandleOf(component string) (DomainHandle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[component]
	if !ok {
		return nil, fmt.Errorf("handle of %s: %w", component, ErrNoDomain)
	}
	return n.dom.handle, nil
}

// AssetNames returns the names of assets a component has stored.
func (s *System) AssetNames(component string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[component]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(n.assets))
	for name := range n.assets {
		out = append(out, name)
	}
	return out
}

// storeAsset implements Ctx.StoreAsset: the secret is physically written
// into the domain's memory, where compromise views and bus taps can (or
// cannot) reach it.
func (s *System) storeAsset(n *node, name string, secret []byte) error {
	tr, sp, info, start := s.beginAssetSpan(n, SpanAssetStore, name, len(secret))
	err := s.doStoreAsset(n, name, secret)
	if tr != nil {
		tr.SpanEnd(sp, info, start, s.now().Sub(start), err)
	}
	return err
}

func (s *System) doStoreAsset(n *node, name string, secret []byte) error {
	s.mu.Lock()
	dom := n.dom
	if ref, ok := n.assets[name]; ok && ref.n >= len(secret) {
		s.mu.Unlock()
		if err := dom.handle.Write(ref.off, secret); err != nil {
			return fmt.Errorf("asset %s/%s: %w", n.comp.CompName(), name, err)
		}
		s.mu.Lock()
		n.assets[name] = assetRef{off: ref.off, n: len(secret)}
		s.mu.Unlock()
		return nil
	}
	off := dom.allocOff
	if off+len(secret) > dom.handle.MemSize() {
		s.mu.Unlock()
		return fmt.Errorf("asset %s/%s: domain memory exhausted (%d + %d > %d)",
			n.comp.CompName(), name, off, len(secret), dom.handle.MemSize())
	}
	dom.allocOff += len(secret)
	n.assets[name] = assetRef{off: off, n: len(secret)}
	s.mu.Unlock()
	if err := dom.handle.Write(off, secret); err != nil {
		return fmt.Errorf("asset %s/%s: %w", n.comp.CompName(), name, err)
	}
	return nil
}

// loadAsset implements Ctx.LoadAsset. Reading an asset is a chain event:
// the installed policy may refuse it outright, and the labels it confers
// (e.g. reading stored meter identities) taint the executing handler's
// chain from here on. Stores are not policy-gated — writing a secret
// reveals nothing to the writer.
func (s *System) loadAsset(n *node, name string) ([]byte, error) {
	s.mu.Lock()
	pol := s.policy
	s.mu.Unlock()
	if pol != nil {
		comp := n.comp.CompName()
		acquire, perr := pol.CheckInvoke(PolicyRequest{
			Taint: n.taint, From: comp, Channel: PolicyAsset, To: comp, Op: name,
		})
		if perr != nil {
			perr = fmt.Errorf("asset %s/%s: %w", comp, name, perr)
			s.notePolicyDeny(perr, comp, n.span)
			return nil, perr
		}
		if len(acquire) > 0 {
			n.taint = MergeTaint(n.taint, acquire)
		}
	}
	tr, sp, info, start := s.beginAssetSpan(n, SpanAssetLoad, name, 0)
	data, err := s.doLoadAsset(n, name)
	if tr != nil {
		info.Bytes = len(data)
		tr.SpanEnd(sp, info, start, s.now().Sub(start), err)
	}
	return data, err
}

func (s *System) doLoadAsset(n *node, name string) ([]byte, error) {
	s.mu.Lock()
	ref, ok := n.assets[name]
	dom := n.dom
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("asset %s/%s: not stored", n.comp.CompName(), name)
	}
	return dom.handle.Read(ref.off, ref.n)
}

// ChannelUsage returns per-channel invocation counts for every grant in
// the system, including channels that were never used. The result is
// deterministically ordered by (From, Name) so tooling built on it
// (pruning reports, metrics exposition) emits stable output.
func (s *System) ChannelUsage() []ChannelUse {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ChannelUse
	for _, n := range s.order {
		for name, ch := range n.out {
			out = append(out, ChannelUse{
				Name:  name,
				From:  ch.spec.From,
				To:    ch.spec.To,
				Badge: ch.spec.Badge,
				Uses:  ch.uses,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// CtxOf builds a Ctx for a loaded component, for packages that drive
// components directly (the experiment harness).
func (s *System) CtxOf(component string) (*Ctx, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[component]
	if !ok {
		return nil, fmt.Errorf("ctx of %s: %w", component, ErrNoDomain)
	}
	return &Ctx{sys: s, node: n}, nil
}
