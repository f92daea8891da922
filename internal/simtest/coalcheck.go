package simtest

// ---- coalesce-exactly-once: coalesced-record accounting -------------

// The distributed stub's frame coalescer lets concurrent callers share
// one sealed wire record, so the books it keeps are the proof that
// sharing never loses or duplicates a call: every issued call's request
// frame is sealed exactly once (alone in a record of one sub-frame, or
// beside others in a record the stub counts as coalesced), every record
// counted as coalesced carries at least two sub-frames, and — combined
// with the pipeline checker's Issued == Completed + Failed equation —
// every sub-frame of a record completes exactly once or its caller sees
// a typed error.

import (
	"fmt"

	"lateral/internal/cluster"
)

// CoalesceChecker audits the per-stub coalescing counters across the
// fleet. Let single = Records - CoalescedRecords, the records of one
// sub-frame; then the sub-frames the stub ever sealed is
// subs = single + CoalescedSubs, and at any quiescent observation:
//
//	Completed <= subs <= Issued
//
// subs > Issued means some call's frame was flushed twice (a duplicate
// the remote would execute twice); subs < Completed means a call
// completed whose frame was never sealed (a reply conjured from
// nothing). Records below CoalescedRecords or a coalesced record with
// fewer than two sub-frames are bookkeeping corruption outright. Stubs
// with calls still in flight are skipped — the counters are only
// consistent at a quiesce point, which is when the explorer and the
// coalesce soak run checks.
type CoalesceChecker struct {
	snapshot func() []cluster.ReplicaInfo
}

// NewCoalesceChecker builds the checker over a fleet snapshot function
// (typically pool.Replicas).
func NewCoalesceChecker(snapshot func() []cluster.ReplicaInfo) *CoalesceChecker {
	return &CoalesceChecker{snapshot: snapshot}
}

// Name implements Checker.
func (c *CoalesceChecker) Name() string { return "coalesce-exactly-once" }

// Check implements Checker.
func (c *CoalesceChecker) Check() []Violation {
	var out []Violation
	for _, r := range c.snapshot() {
		st := r.Stub
		if st.Inflight != 0 {
			// Not quiescent: a caller between its issue and its flush makes
			// the counters legitimately unbalanced.
			continue
		}
		if st.CoalescedRecords > st.Records {
			out = append(out, Violation{
				Invariant: c.Name(),
				Detail: fmt.Sprintf("replica %s: %d coalesced records exceed %d records sealed",
					r.Name, st.CoalescedRecords, st.Records),
			})
			continue
		}
		if st.CoalescedSubs < 2*st.CoalescedRecords {
			out = append(out, Violation{
				Invariant: c.Name(),
				Detail: fmt.Sprintf("replica %s: %d coalesced records carried only %d sub-frames (want >= 2 each)",
					r.Name, st.CoalescedRecords, st.CoalescedSubs),
			})
		}
		subs := (st.Records - st.CoalescedRecords) + st.CoalescedSubs
		if subs > st.Issued {
			out = append(out, Violation{
				Invariant: c.Name(),
				Detail: fmt.Sprintf("replica %s: %d sub-frames sealed for %d issued calls (a frame flushed twice)",
					r.Name, subs, st.Issued),
			})
		}
		if subs < st.Completed {
			out = append(out, Violation{
				Invariant: c.Name(),
				Detail: fmt.Sprintf("replica %s: %d calls completed but only %d sub-frames were ever sealed",
					r.Name, st.Completed, subs),
			})
		}
	}
	return out
}
