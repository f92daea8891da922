package simtest

import (
	"fmt"
	"sync"

	"lateral/internal/shard"
)

// ---- shard-placement: shard placement is enforced -------------------

// ShardChecker verifies the sharded-routing contract: every reading lands
// on the shard that a map current during its operation assigns its key,
// and no reading is dispatched twice across a rebalance. Independence
// comes from recomputation: the checker keeps its own shadow maps — moved
// only by the fault applications the harness performs — each rebuilt from
// scratch from its member set, while the live router reconciles its ring
// incrementally. A router whose incremental reconcile drifts from the pure
// function of the member set, routes through a stale map, or
// double-dispatches a reading during a split/merge is caught at the next
// record. Findings are sticky: a transient breach still fails the run at
// quiesce.
//
// Each transition is proposed before the router commits it, so the
// checker never lags the router: a reading is legal under any map from its
// operation's start (Begin) to its dispatch. In the synchronous explorer
// that range is exactly the current map.
type ShardChecker struct {
	vnodes int

	mu      sync.Mutex
	maps    []*shard.Map   // every settled map, oldest first
	scratch *shard.Map     // the current map, the last of maps
	next    *shard.Map     // the open proposal, nil when none
	begun   map[string]int // reading id -> index in maps when its operation began
	counts  map[string]int // reading id -> dispatch count
	viols   []Violation
}

// NewShardChecker builds the checker; vnodes must match the live router's
// ring density (<= 0 selects the shared default).
func NewShardChecker(vnodes int) *ShardChecker {
	return &ShardChecker{vnodes: vnodes, begun: make(map[string]int), counts: make(map[string]int)}
}

// Propose opens a proposal: the current map with cell joined (split) or
// removed. Transitions are applied one at a time, so at most one proposal
// is open; Settle closes it.
func (c *ShardChecker) Propose(cell string, split bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var members []string
	if c.scratch != nil {
		for _, m := range c.scratch.Members() {
			if m != cell {
				members = append(members, m)
			}
		}
	}
	if split {
		members = append(members, cell)
	}
	c.next = shard.NewMap(c.vnodes, members...)
}

// Settle closes the open proposal: a committed transition makes it the
// current map, a refused one drops it.
func (c *ShardChecker) Settle(committed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if committed {
		c.scratch = c.next
		c.maps = append(c.maps, c.next)
	}
	c.next = nil
}

// MarkSplit records a shard cell join the router has already committed.
func (c *ShardChecker) MarkSplit(cell string) {
	c.Propose(cell, true)
	c.Settle(true)
}

// Begin notes that the operation carrying reading id starts now; its
// dispatch is judged against every map from here on. A reading dispatched
// without Begin is judged against the current map alone.
func (c *ShardChecker) Begin(id string) {
	c.mu.Lock()
	c.begun[id] = len(c.maps) - 1
	c.mu.Unlock()
}

// RecordDispatch notes one reading arriving at a shard cell's backend.
// id must be unique per reading across the run.
func (c *ShardChecker) RecordDispatch(id, key, cell string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[id]++
	if n := c.counts[id]; n > 1 {
		c.viols = append(c.viols, Violation{
			Invariant: c.Name(),
			Detail:    fmt.Sprintf("reading %s dispatched %d times (double-counted across rebalance)", id, n),
		})
	}
	if c.scratch == nil {
		c.viols = append(c.viols, Violation{
			Invariant: c.Name(),
			Detail:    fmt.Sprintf("reading %s dispatched to %s with no shards mapped", id, cell),
		})
		return
	}
	first, ok := c.begun[id]
	if !ok {
		first = len(c.maps) - 1
	}
	legal := c.next != nil && c.next.Owner(key) == cell
	for _, m := range c.maps[max(first, 0):] {
		legal = legal || m.Owner(key) == cell
	}
	if !legal {
		c.viols = append(c.viols, Violation{
			Invariant: c.Name(),
			Detail: fmt.Sprintf("reading %s (key %s) routed to %s, current shard map assigns %s",
				id, key, cell, c.scratch.Owner(key)),
		})
	}
}

// Name implements Checker.
func (c *ShardChecker) Name() string { return "shard-placement" }

// Check implements Checker.
func (c *ShardChecker) Check() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.viols...)
}
