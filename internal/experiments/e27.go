package experiments

import (
	"fmt"
	"sort"
	"time"

	"lateral/internal/distributed"
)

// E27: wire-level frame coalescing.
//
// Wire-v3 pipelining (E22) already amortizes ROUND TRIPS: d concurrent
// callers share each simulated RTT. But every caller still seals its own
// record, so the fleet pays one AEAD pass per call per direction no matter
// how deep the pipeline runs. Coalescing moves the amortization one layer
// down: callers racing into a stub during the same wire round share one
// sealed record (the cleartext header binds the sub-frame count and every
// correlation ID as associated data), so AEAD passes scale with wire
// rounds, not calls. A flush seals every frame queued behind it, so the
// record size follows the callers actually waiting, with no knob.
//
// The experiment runs depth 64 across an RTT sweep and checks balanced
// books with coalescing engaged at every point, then verifies the headline
// reduction at 1 ms: >= 8x fewer sealed records than the uncoalesced
// wire, which seals one record per call (TestSequentialCallsStayPlain).

// e27Depth and e27Calls are the pipeline depth and workload size of every
// E27 point.
const e27Depth, e27Calls = 64, 256

// e27RTTs is the simulated round-trip sweep; the headline gate runs at
// 1 ms.
var e27RTTs = []time.Duration{200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond}

// e27Sample is one measured point of the coalescing sweep.
type e27Sample struct {
	res e22Result
	p99 time.Duration
}

// e27Run measures one RTT point at depth 64, capturing per-call latencies
// for the p99 cut.
func e27Run(rtt time.Duration) (e27Sample, error) {
	lat := make([]time.Duration, e27Calls)
	res, err := e22Run(e27Depth, e27Calls, rtt, lat)
	if err != nil {
		return e27Sample{}, err
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return e27Sample{res: res, p99: lat[(99*e27Calls)/100]}, nil
}

// e27Balanced is the per-point verdict: every call resolved exactly once,
// nothing lost, orphaned, or left in flight, and coalescing engaged —
// strictly fewer records than calls, at least one of them coalesced.
func e27Balanced(st distributed.StubStats) bool {
	return st.Issued == e27Calls && st.Completed == e27Calls &&
		st.Failed == 0 && st.Inflight == 0 && st.Orphans == 0 &&
		st.Records < e27Calls && st.CoalescedRecords > 0
}

// e27SubsPerRecord is the mean sub-frames a coalesced record carried (1
// when nothing coalesced).
func e27SubsPerRecord(st distributed.StubStats) float64 {
	if st.CoalescedRecords == 0 {
		return 1
	}
	return float64(st.CoalescedSubs) / float64(st.CoalescedRecords)
}

// E27Coalescing measures what sharing sealed records buys over plain
// wire-v3 pipelining across an RTT sweep.
func E27Coalescing() (Table, error) {
	t := Table{
		ID:     "E27",
		Title:  "wire-level frame coalescing",
		Anchor: "§III-B trustworthy invocation across machines; cost of attested channels at scale",
		Header: []string{"rtt", "depth", "records", "subs/rec", "rounds", "p99", "verdict"},
	}

	var records uint64
	for _, rtt := range e27RTTs {
		s, err := e27Run(rtt)
		if err != nil {
			return t, err
		}
		st := s.res.stats
		if rtt == time.Millisecond {
			records = st.Records
		}
		t.AddRow(rtt.String(), e27Depth, st.Records, fmt.Sprintf("%.2f", e27SubsPerRecord(st)),
			s.res.pumps, s.p99.Round(10*time.Microsecond), passFail(e27Balanced(st)))
	}

	// The headline claim: at 64 concurrent callers and 1 ms, coalescing
	// seals at least 8x fewer records — 8x fewer AEAD passes on the
	// request path — than the uncoalesced wire's one per call.
	reduction := float64(e27Calls) / float64(records)
	t.AddRow("1ms vs 1/call", e27Depth, "-", "-", "-", "-", passFail(reduction >= 8))

	t.Notes = append(t.Notes,
		fmt.Sprintf("AEAD passes on the request path at 1ms: %d uncoalesced vs %d coalesced (%.1fx fewer)",
			e27Calls, records, reduction),
		"records exclude the handshake; the coalesced header binds count + every correlation ID as AD",
	)
	return t, nil
}

// E27Point is one row of the checked-in BENCH_e27.json baseline: one RTT
// point at depth 64 — sealed records (AEAD passes), sub-frames per
// coalesced record, wire rounds, throughput, p99, and allocations.
// Records, rounds, and allocs/op are machine-independent; ops/sec and p99
// are wall-clock.
type E27Point struct {
	RTTMicros     int64   `json:"rtt_us"`
	Depth         int     `json:"depth"`
	Calls         int     `json:"calls"`
	SealedRecords uint64  `json:"sealed_records"`
	SubsPerRecord float64 `json:"subs_per_record"`
	WireRounds    int64   `json:"wire_rounds"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	P99Micros     float64 `json:"p99_us"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
}

// E27Baseline runs the RTT sweep and returns one baseline point per RTT.
// `lateralbench -e27-json` writes BENCH_e27.json.
func E27Baseline() ([]E27Point, error) {
	out := make([]E27Point, 0, len(e27RTTs))
	for _, rtt := range e27RTTs {
		s, err := e27Run(rtt)
		if err != nil {
			return nil, err
		}
		st := s.res.stats
		if !e27Balanced(st) {
			return nil, fmt.Errorf("E27: unbalanced books at rtt %s: %+v", rtt, st)
		}
		out = append(out, E27Point{
			RTTMicros:     rtt.Microseconds(),
			Depth:         e27Depth,
			Calls:         e27Calls,
			SealedRecords: st.Records,
			SubsPerRecord: e27SubsPerRecord(st),
			WireRounds:    s.res.pumps,
			OpsPerSec:     float64(e27Calls) / s.res.elapsed.Seconds(),
			P99Micros:     float64(s.p99.Microseconds()),
			AllocsPerOp:   float64(s.res.mallocs) / float64(e27Calls),
		})
	}
	return out, nil
}
