package simtest

// Pinned unit tests for the tenth invariant and the coalesce fault verb.
// Coalescing only happens when callers race, so TestSoak's racing half is
// where the invariant meets live coalesced records.

import (
	"strings"
	"testing"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/distributed"
)

// TestCoalesceFaultCodecRoundTrips pins the DSL: the coalesce verb
// encodes, decodes, and validates like every other fault, and the decoder
// rejects malformed modes, counts, and arity.
func TestCoalesceFaultCodecRoundTrips(t *testing.T) {
	sched := []Schedule{
		{At: 0, Fault: Fault{Kind: FaultCoalesce, Target: "svc-1", Peer: "drop", N: 0}},
		{At: 9 * time.Millisecond, Fault: Fault{Kind: FaultCoalesce, Target: "svc-2", Peer: "tamper", N: 3}},
	}
	if err := Validate(sched); err != nil {
		t.Fatalf("coalesce schedule does not validate: %v", err)
	}
	text := EncodeSchedule(sched)
	for _, verb := range []string{"coalesce svc-1 drop 0", "coalesce svc-2 tamper 3"} {
		if !strings.Contains(text, verb) {
			t.Fatalf("encoded schedule missing %q:\n%s", verb, text)
		}
	}
	dec, err := DecodeSchedule("@5ms coalesce svc-3 drop 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 1 || dec[0].Fault.Kind != FaultCoalesce ||
		dec[0].Fault.Target != "svc-3" || dec[0].Fault.Peer != "drop" || dec[0].Fault.N != 2 {
		t.Fatalf("decoded %+v", dec)
	}
	for _, bad := range []string{
		"@5ms coalesce svc-1 drop\n",        // missing index
		"@5ms coalesce svc-1 explode 0\n",   // unknown mode
		"@5ms coalesce svc-1 drop 0 9\n",    // too many args
		"@5ms coalesce svc-1 drop -1\n",     // negative index
		"@5ms coalesce sv c-1 drop 0 0 0\n", // mangled name splits into extra args
	} {
		if _, err := DecodeSchedule(bad); err == nil {
			t.Fatalf("decoder accepted %q", bad)
		}
	}
}

// TestCoalesceCheckerCatchesMisaccounting is the mutation smoke test for
// the tenth invariant: cooked stub counters for a double-flushed frame, a
// completion without a sealed sub-frame, a single-sub "coalesced" record,
// and coalesced records exceeding total records must each be flagged,
// while balanced books and mid-flight snapshots must not.
func TestCoalesceCheckerCatchesMisaccounting(t *testing.T) {
	check := func(st distributed.StubStats) []Violation {
		snap := func() []cluster.ReplicaInfo {
			return []cluster.ReplicaInfo{{Name: "svc-1", Stub: st}}
		}
		return NewCoalesceChecker(snap).Check()
	}
	good := distributed.StubStats{Issued: 10, Completed: 10, Records: 4, CoalescedRecords: 2, CoalescedSubs: 8}
	if v := check(good); len(v) != 0 {
		t.Fatalf("balanced books flagged: %v", v)
	}
	inflight := good
	inflight.Inflight = 1
	inflight.Issued = 3 // wildly unbalanced, but mid-flight: must be skipped
	if v := check(inflight); len(v) != 0 {
		t.Fatalf("mid-flight snapshot flagged: %v", v)
	}
	bad := []struct {
		st   distributed.StubStats
		want string
	}{
		{distributed.StubStats{Issued: 5, Completed: 5, Records: 4, CoalescedRecords: 2, CoalescedSubs: 8}, "flushed twice"},
		{distributed.StubStats{Issued: 10, Completed: 9, Records: 2, CoalescedRecords: 1, CoalescedSubs: 2}, "were ever sealed"},
		{distributed.StubStats{Issued: 10, Completed: 5, Records: 4, CoalescedRecords: 2, CoalescedSubs: 3}, "want >= 2 each"},
		{distributed.StubStats{Issued: 4, Completed: 4, Records: 1, CoalescedRecords: 2, CoalescedSubs: 4}, "exceed"},
	}
	for _, tc := range bad {
		v := check(tc.st)
		if len(v) == 0 {
			t.Errorf("misaccounting %+v not flagged", tc.st)
			continue
		}
		if !strings.Contains(v[0].Detail, tc.want) {
			t.Errorf("misaccounting %+v flagged as %q, want detail containing %q", tc.st, v[0].Detail, tc.want)
		}
	}
}
