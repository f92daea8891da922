package simtest

import (
	"strings"
	"testing"

	"lateral/internal/journal"
)

// TestShardTransitions pins what the shard-split and shard-merge verbs do
// on one seed: splits and merges land as shard-map epochs, refused transitions are
// no-ops, traffic flows across every rebalance, and the journal's
// replayed placement history shows each committed transition.
func TestShardTransitions(t *testing.T) {
	h, err := NewHarness(HarnessConfig{Replicas: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Seed fabric: two cells, epochs 1 and 2 from the seed joins.
	if got := h.Router.Epoch(); got != 2 {
		t.Fatalf("fresh fabric at shard epoch %d, want 2", got)
	}
	if err := h.CallShardWork("op-a", "tenant-1", "tenant-1/meter-01", 0); err != nil {
		t.Fatal(err)
	}
	h.Apply(Fault{Kind: FaultShardSplit, Target: CellName(3)})
	if got := h.Router.Epoch(); got != 3 {
		t.Fatalf("after split: shard epoch %d, want 3", got)
	}
	// Refused transitions: duplicate split, unmapped merge — epoch frozen.
	h.Apply(Fault{Kind: FaultShardSplit, Target: CellName(3)})
	h.Apply(Fault{Kind: FaultShardMerge, Target: CellName(9)})
	if got := h.Router.Epoch(); got != 3 {
		t.Fatalf("refused transitions moved shard epoch to %d", got)
	}
	h.Apply(Fault{Kind: FaultShardMerge, Target: CellName(1)})
	if got := h.Router.Epoch(); got != 4 {
		t.Fatalf("after merge: shard epoch %d, want 4", got)
	}
	if members := h.Router.Members(); len(members) != 2 ||
		members[0] != CellName(2) || members[1] != CellName(3) {
		t.Fatalf("fabric members after rebalance = %v", members)
	}
	// Traffic still lands correctly across the rebalanced map, batched and
	// single, and the placement invariant stays clean.
	if err := h.CallShardBatch("op-b", "tenant-2", "tenant-2/meter-05", 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.CallShardWork("op-c", "tenant-3", "tenant-3/meter-09", 0); err != nil {
		t.Fatal(err)
	}
	if v := h.CheckAll(); len(v) != 0 {
		t.Fatalf("invariant violations after rebalance: %v", v)
	}
	// The journal replays the placement history: 2 seed joins, 1 split
	// (join), 1 merge (leave) — refused transitions never journaled.
	if err := h.Journal.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	trusted, _ := h.Counter.Value()
	audit, err := journal.Replay(h.Journal.Export(), h.Audit.pub, trusted)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(audit.Shards) != 4 {
		t.Fatalf("replayed %d shard records, want 4", len(audit.Shards))
	}
	final := audit.Shards[len(audit.Shards)-1]
	if final.Action != "leave" || final.Shard != CellName(1) || final.Epoch != 4 {
		t.Fatalf("final placement record = %+v", final)
	}
	if len(final.Members) != 2 || final.Members[0] != CellName(2) || final.Members[1] != CellName(3) {
		t.Fatalf("replayed members = %v", final.Members)
	}
}

// TestShardCheckerCatchesMisrouting is the mutation smoke test for the
// ninth invariant: a dispatch to the wrong cell and a double-dispatched
// reading must each be flagged.
func TestShardCheckerCatchesMisrouting(t *testing.T) {
	ck := NewShardChecker(0)
	ck.MarkSplit("cell-1")
	ck.MarkSplit("cell-2")
	ck.MarkSplit("cell-3")
	key := "tenant-1/meter-01"
	// Route a reading deliberately to a non-owner cell.
	wrong := "cell-1"
	for _, c := range []string{"cell-1", "cell-2", "cell-3"} {
		if ck.scratch.Owner(key) != c {
			wrong = c
			break
		}
	}
	ck.RecordDispatch("r-1", key, wrong)
	v := ck.Check()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "routed to") {
		t.Fatalf("misrouting not flagged: %v", v)
	}
	// Double-count: the same reading dispatched again, even to the owner.
	ck2 := NewShardChecker(0)
	ck2.MarkSplit("cell-1")
	ck2.RecordDispatch("r-2", key, "cell-1")
	ck2.RecordDispatch("r-2", key, "cell-1")
	v = ck2.Check()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "double-counted") {
		t.Fatalf("double-count not flagged: %v", v)
	}
}

// TestShardFaultCodecRoundTrips pins the DSL: shard-split/shard-merge
// encode, decode, and validate like every other fault verb.
func TestShardFaultCodecRoundTrips(t *testing.T) {
	sched := SoakSchedule(11, 3)
	if err := Validate(sched); err != nil {
		t.Fatalf("SoakSchedule does not validate: %v", err)
	}
	text := EncodeSchedule(sched)
	for _, verb := range []string{"shard-split cell-3", "shard-merge cell-"} {
		if !strings.Contains(text, verb) {
			t.Fatalf("encoded schedule missing %q:\n%s", verb, text)
		}
	}
	dec, err := DecodeSchedule("@5ms shard-split cell-7\n@9ms shard-merge cell-2\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 2 || dec[0].Fault.Kind != FaultShardSplit || dec[1].Fault.Kind != FaultShardMerge {
		t.Fatalf("decoded %+v", dec)
	}
	if dec[0].Fault.Target != "cell-7" || dec[1].Fault.Target != "cell-2" {
		t.Fatalf("decoded targets %+v", dec)
	}
	for _, bad := range []string{
		"@5ms shard-split\n",            // missing target
		"@5ms shard-merge a b\n",        // too many args
		"@5ms shard-split bad name#1\n", // invalid characters
	} {
		if _, err := DecodeSchedule(bad); err == nil {
			t.Fatalf("decoder accepted %q", bad)
		}
	}
}
