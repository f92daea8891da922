package simtest

import (
	"testing"

	"lateral/internal/cluster"
)

// TestEpochTransitions pins what the join and leave verbs do on one seed:
// the fleet actually rotates (the joiner is admitted and keyed at the
// active epoch, a departed original is gone), the pool's epoch advanced,
// and the journal's replayed membership history shows every transition.
func TestEpochTransitions(t *testing.T) {
	h, err := NewHarness(HarnessConfig{Replicas: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Pool.Epoch(); got != 0 {
		t.Fatalf("fresh fleet at epoch %d, want 0", got)
	}
	h.Apply(Fault{Kind: FaultJoin, Target: ReplicaName(4)})
	if got := h.Pool.Epoch(); got != 1 {
		t.Fatalf("after join: epoch %d, want 1", got)
	}
	h.Apply(Fault{Kind: FaultLeave, Target: ReplicaName(1)})
	if got := h.Pool.Epoch(); got != 2 {
		t.Fatalf("after leave: epoch %d, want 2", got)
	}
	var joiner *cluster.ReplicaInfo
	fleet := h.Pool.Replicas()
	for i, r := range fleet {
		if r.Name == ReplicaName(1) {
			t.Fatalf("departed %s still in fleet", r.Name)
		}
		if r.Name == ReplicaName(4) {
			joiner = &fleet[i]
		}
	}
	if joiner == nil {
		t.Fatal("joiner missing from fleet")
	}
	if joiner.State != cluster.StateHealthy || joiner.Epoch != 2 {
		t.Fatalf("joiner %s epoch %d, want healthy at epoch 2", joiner.State, joiner.Epoch)
	}
	if err := h.CallWork("op-1", "key-a", 0); err != nil {
		t.Fatalf("CallWork on rotated fleet: %v", err)
	}
	if v := h.CheckAll(); len(v) != 0 {
		t.Fatalf("invariant violations after rotation: %v", v)
	}
}
