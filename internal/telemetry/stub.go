package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Stub pipelining metrics: per-stub gauges and counters for the
// distributed layer's concurrent in-flight calls. The collector implements
// distributed.Monitor structurally — distributed declares the interface,
// telemetry never imports it — the same pattern as cluster.Monitor and
// netsim.Monitor.
//
// Inflight tracks live pipeline depth; DepthMax its high-water mark over
// the run; Calls and DepthSum together yield the mean depth a call was
// issued at (how much pipelining the workload actually achieved); Orphans
// counts replies whose correlation ID matched no parked caller —
// duplicates, unknown IDs, or replies landing after their caller unwound
// on a deadline. A non-zero orphan rate with no deadline pressure means
// the wire is replaying or misbehaving.

// StubStats is one stub's live cell.
type StubStats struct {
	Stub string

	Inflight atomic.Int64 // gauge: calls currently awaiting replies
	DepthMax atomic.Int64 // gauge: high-water mark of Inflight
	Calls    atomic.Int64 // counter: calls issued over the session
	DepthSum atomic.Int64 // counter: sum of pipeline depth at issue time
	Orphans  atomic.Int64 // counter: replies dropped for want of a waiter

	// Coalescing (distributed.CoalesceMonitor, also structural): records
	// sealed carrying ≥2 sub-frames and the sub-frames they carried. AEAD
	// passes saved is CoalSubs - CoalRecords.
	CoalRecords atomic.Int64 // counter: coalesced records sealed
	CoalSubs    atomic.Int64 // counter: sub-frames those records carried
}

type stubState struct {
	mu    sync.RWMutex
	cells map[string]*StubStats
}

func (s *stubState) cell(stub string) *StubStats {
	s.mu.RLock()
	ss := s.cells[stub]
	s.mu.RUnlock()
	if ss != nil {
		return ss
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cells == nil {
		s.cells = make(map[string]*StubStats)
	}
	if ss = s.cells[stub]; ss != nil {
		return ss
	}
	ss = &StubStats{Stub: stub}
	s.cells[stub] = ss
	return ss
}

// StubCall records one pipelined call at issue time with the pipeline
// depth observed then.
func (m *Metrics) StubCall(stub string, depth int) {
	ss := m.stub.cell(stub)
	ss.Calls.Add(1)
	ss.DepthSum.Add(int64(depth))
	for {
		max := ss.DepthMax.Load()
		if int64(depth) <= max || ss.DepthMax.CompareAndSwap(max, int64(depth)) {
			return
		}
	}
}

// StubInflight adjusts a stub's awaiting-reply gauge.
func (m *Metrics) StubInflight(stub string, delta int) {
	m.stub.cell(stub).Inflight.Add(int64(delta))
}

// StubOrphan records one reply dropped because no caller was parked on its
// correlation ID.
func (m *Metrics) StubOrphan(stub string) {
	m.stub.cell(stub).Orphans.Add(1)
}

// StubCoalesce records one coalesced record sealed carrying subframes
// sub-frames (distributed.CoalesceMonitor).
func (m *Metrics) StubCoalesce(stub string, subframes int) {
	ss := m.stub.cell(stub)
	ss.CoalRecords.Add(1)
	ss.CoalSubs.Add(int64(subframes))
}

// StubSummary is one stub's aggregate view.
type StubSummary struct {
	Stub     string
	Inflight int64
	DepthMax int64
	Calls    int64
	DepthSum int64
	Orphans  int64

	CoalRecords int64
	CoalSubs    int64
}

// Stubs returns per-stub summaries, sorted by stub name.
func (m *Metrics) Stubs() []StubSummary {
	m.stub.mu.RLock()
	var cells []*StubStats
	for _, ss := range m.stub.cells {
		cells = append(cells, ss)
	}
	m.stub.mu.RUnlock()
	out := make([]StubSummary, 0, len(cells))
	for _, ss := range cells {
		out = append(out, StubSummary{
			Stub:        ss.Stub,
			Inflight:    ss.Inflight.Load(),
			DepthMax:    ss.DepthMax.Load(),
			Calls:       ss.Calls.Load(),
			DepthSum:    ss.DepthSum.Load(),
			Orphans:     ss.Orphans.Load(),
			CoalRecords: ss.CoalRecords.Load(),
			CoalSubs:    ss.CoalSubs.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stub < out[j].Stub })
	return out
}
