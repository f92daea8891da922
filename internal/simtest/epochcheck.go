package simtest

import (
	"fmt"
	"sync"

	"lateral/internal/cluster"
)

// ---- epoch-membership: epoch membership is enforced -----------------

// EpochChecker verifies the dynamic-membership contract: no call ever
// completes against an evicted replica, and no replica serves while
// stale-keyed. Two observation points:
//
//   - the harness's cluster monitor reports every per-replica call
//     outcome; one recorded against a name that left the fleet means the
//     pool dispatched past an eviction (the drain leaked);
//   - every check snapshots the fleet and demands each healthy replica's
//     session epoch equals the pool's active epoch — a healthy member
//     keyed at an older epoch would accept traffic the epoch rekey was
//     supposed to make unauthenticatable.
//
// Both findings are sticky: a transient breach at any step still fails
// the run at quiesce.
type EpochChecker struct {
	epoch    func() uint64
	snapshot func() []cluster.ReplicaInfo

	mu      sync.Mutex
	evicted map[string]bool
	seen    map[string]bool // dedup: Check is idempotent, breaches sticky
	viols   []Violation
}

// NewEpochChecker builds an unbound checker; Bind wires it to a pool once
// the pool exists (the harness's cluster monitor needs the checker before
// the pool is constructed).
func NewEpochChecker() *EpochChecker {
	return &EpochChecker{evicted: make(map[string]bool), seen: make(map[string]bool)}
}

// Bind wires the checker to the live pool's epoch and fleet snapshot.
func (c *EpochChecker) Bind(epoch func() uint64, snapshot func() []cluster.ReplicaInfo) {
	c.epoch = epoch
	c.snapshot = snapshot
}

// MarkEvicted records that a replica left the fleet; any call the pool
// accounts against it from now on is a violation.
func (c *EpochChecker) MarkEvicted(name string) {
	c.mu.Lock()
	c.evicted[name] = true
	c.mu.Unlock()
}

// RecordCall notes one per-replica call outcome from the pool's monitor.
func (c *EpochChecker) RecordCall(replica string, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.evicted[replica] {
		return
	}
	verb := "completed against"
	if failed {
		verb = "dispatched to"
	}
	c.viols = append(c.viols, Violation{
		Invariant: c.Name(),
		Detail:    fmt.Sprintf("call %s evicted replica %s", verb, replica),
	})
}

// Name implements Checker.
func (c *EpochChecker) Name() string { return "epoch-membership" }

// Check implements Checker.
func (c *EpochChecker) Check() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch == nil {
		return append([]Violation(nil), c.viols...)
	}
	active := c.epoch()
	for _, r := range c.snapshot() {
		if r.State != cluster.StateHealthy || r.Epoch == active {
			continue
		}
		detail := fmt.Sprintf("replica %s healthy with session epoch %d, active epoch %d",
			r.Name, r.Epoch, active)
		if c.seen[detail] {
			continue
		}
		c.seen[detail] = true
		c.viols = append(c.viols, Violation{Invariant: c.Name(), Detail: detail})
	}
	return append([]Violation(nil), c.viols...)
}
