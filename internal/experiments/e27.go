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
// wire, which seals one record of one sub-frame per call
// (TestSequentialCallsSealOneSubRecords).

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

// e27Balanced is the per-point check: every call resolved exactly once,
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
// wire-v3 pipelining across an RTT sweep. allocs/op (whole-process
// mallocs over the 256 calls) is reported, not gated: the sealed-record
// hot path's allocation gate is TestCoalescedZeroAllocPerSubFrame.
func E27Coalescing() (Table, error) {
	t := Table{
		ID:     "E27",
		Title:  "wire-level frame coalescing",
		Anchor: "§III-B trustworthy invocation across machines; cost of attested channels at scale",
		Header: []string{"rtt", "depth", "records", "subs/rec", "rounds", "p99", "allocs/op"},
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
			s.res.pumps, s.p99.Round(10*time.Microsecond),
			fmt.Sprintf("%.2f", float64(s.res.mallocs)/e27Calls))
		t.Check(rtt.String()+" balanced books, coalescing engaged", e27Balanced(st),
			fmt.Sprintf("issued %d, completed %d, failed %d, in flight %d, orphans %d, %d records, %d coalesced",
				st.Issued, st.Completed, st.Failed, st.Inflight, st.Orphans, st.Records, st.CoalescedRecords))
	}

	// The headline claim: at 64 concurrent callers and 1 ms, coalescing
	// seals at least 8x fewer records — 8x fewer AEAD passes on the
	// request path — than the uncoalesced wire's one per call.
	reduction := float64(e27Calls) / float64(records)
	t.Check("1ms vs 1/call: >= 8x fewer sealed records", reduction >= 8,
		fmt.Sprintf("%d records for %d calls, %.1fx fewer", records, e27Calls, reduction))

	t.Notes = append(t.Notes,
		fmt.Sprintf("AEAD passes on the request path at 1ms: %d uncoalesced vs %d coalesced (%.1fx fewer)",
			e27Calls, records, reduction),
		"records exclude the handshake; the coalesced header binds count + every correlation ID as AD",
	)
	return t, nil
}
