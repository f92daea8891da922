package core

// EventRecorder is the structural hook into the fleet's black box
// (internal/journal): the system reports trust- and ops-relevant events
// — here, budget sheds on the invocation path — as structured entries
// carrying the causing request's trace/span IDs. Declared here rather
// than imported so core stays dependency-free and *journal.Journal (or
// any test double) satisfies it structurally, the same discipline as
// Tracer and the cluster/netsim Monitor interfaces. cluster, distributed,
// shard and policy take this same interface for their journal hooks.
//
// Implementations must be safe for concurrent use and must not call back
// into the System. A nil recorder is the fast path: events are only
// emitted from error branches, so the steady invocation path never
// touches it.
type EventRecorder interface {
	// RecordEvent appends one event. kind is a stable lowercase verb
	// ("deadline", "cancel", "overload"); actor names the component or
	// replica the event is about; detail carries free-form context such
	// as the error text; trace/span tie the event to the causing request
	// (0 when it happened outside a traced request).
	RecordEvent(kind, actor, detail string, trace, span uint64)
}

// SetEventRecorder installs (or, with nil, removes) the journal hook.
// Like SetTracer, the uninstrumented path is the fast path: with a nil
// recorder no event is built and no extra lock is taken.
func (s *System) SetEventRecorder(r EventRecorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = r
}
