package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/distributed"
	"lateral/internal/telemetry"
)

// The telemetry collector must satisfy the structural Monitor hook.
var _ Monitor = (*telemetry.Metrics)(nil)

// fakeBackend counts dispatches and can block in-flight calls, standing
// in for a cluster.Pool so quota/placement behavior is tested without a
// fleet. Retries counts simulated retry burns: the quota tests assert it
// never moves when a tenant is refused at admission.
type fakeBackend struct {
	mu       sync.Mutex
	calls    int
	readings int
	retries  int
	block    chan struct{} // non-nil: calls park here until closed
}

func (f *fakeBackend) DoDeadline(key string, msg core.Message, deadline time.Time) (core.Message, error) {
	f.mu.Lock()
	f.calls++
	f.readings++
	block := f.block
	f.mu.Unlock()
	if block != nil {
		<-block
	}
	return core.Message{Op: "ok"}, nil
}

func (f *fakeBackend) DoBatch(key string, readings []distributed.Reading, results []distributed.BatchResult, deadline time.Time) ([]distributed.BatchResult, error) {
	f.mu.Lock()
	f.calls++
	f.readings += len(readings)
	block := f.block
	f.mu.Unlock()
	if block != nil {
		<-block
	}
	for range readings {
		results = append(results, distributed.BatchResult{Msg: core.Message{Op: "ok"}})
	}
	return results, nil
}

func (f *fakeBackend) Healthy() int                    { return 1 }
func (f *fakeBackend) Replicas() []cluster.ReplicaInfo { return nil }

func (f *fakeBackend) stats() (calls, readings, retries int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.readings, f.retries
}

type countingMonitor struct {
	mu         sync.Mutex
	membership int
	routed     int
	batches    int
	denies     int
}

func (c *countingMonitor) ShardMembership(string, uint64, int) {
	c.mu.Lock()
	c.membership++
	c.mu.Unlock()
}

func (c *countingMonitor) ShardRoute(_, _ string, n int) {
	c.mu.Lock()
	c.routed += n
	c.mu.Unlock()
}

func (c *countingMonitor) ShardBatch(string, string, int) {
	c.mu.Lock()
	c.batches++
	c.mu.Unlock()
}

func (c *countingMonitor) ShardQuotaDeny(string, string) {
	c.mu.Lock()
	c.denies++
	c.mu.Unlock()
}

type memJournal struct {
	mu     sync.Mutex
	events []string
}

func (j *memJournal) RecordEvent(kind, actor, detail string, trace, span uint64) {
	j.mu.Lock()
	j.events = append(j.events, fmt.Sprintf("%s %s %s", kind, actor, detail))
	j.mu.Unlock()
}

func buildRouter(t *testing.T, shards int, cfg Config) (*Router, map[string]*fakeBackend) {
	t.Helper()
	rt := NewRouter(cfg)
	backends := make(map[string]*fakeBackend, shards)
	for _, name := range shardNames(shards) {
		b := &fakeBackend{}
		if err := rt.Join(name, b); err != nil {
			t.Fatal(err)
		}
		backends[name] = b
	}
	return rt, backends
}

func TestRouterRoutesByOwner(t *testing.T) {
	jnl := &memJournal{}
	mon := &countingMonitor{}
	rt, backends := buildRouter(t, 4, Config{Monitor: mon, Journal: jnl})
	perShard := make(map[string]int)
	for _, k := range meterKeys(400) {
		owner := rt.Owner(k)
		if _, err := rt.Do("tenant-a", k, core.Message{Op: "reading"}); err != nil {
			t.Fatal(err)
		}
		perShard[owner]++
	}
	for name, b := range backends {
		if calls, _, _ := b.stats(); calls != perShard[name] {
			t.Fatalf("shard %s saw %d calls, owner map assigned %d", name, calls, perShard[name])
		}
	}
	if mon.routed != 400 {
		t.Fatalf("monitor counted %d routed readings, want 400", mon.routed)
	}
	// Every shard of a 4-way fabric should own a visible slice of 400 keys.
	for name := range backends {
		if perShard[name] == 0 {
			t.Fatalf("shard %s owned no keys", name)
		}
	}
	// Join events were journaled with parseable epoch details.
	if len(jnl.events) != 4 {
		t.Fatalf("journaled %d events, want 4 joins", len(jnl.events))
	}
	if want := "shard-assign shards/shard-00 epoch=1 join"; jnl.events[0] != want {
		t.Fatalf("journal[0] = %q, want %q", jnl.events[0], want)
	}
}

// TestRouterQuotaExhaustionBurnsNoRetry is the satellite contract: a
// tenant at its quota is refused with a typed core.ErrOverloaded before
// the router touches any pool — the refused reading consumes no backend
// call, no retry, and other tenants are unaffected.
func TestRouterQuotaExhaustionBurnsNoRetry(t *testing.T) {
	mon := &countingMonitor{}
	rt, backends := buildRouter(t, 2, Config{TenantQuota: 2, Monitor: mon})
	block := make(chan struct{})
	for _, b := range backends {
		b.block = block
	}
	// Fill tenant-a's quota with two parked in-flight readings.
	started := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		key := fmt.Sprintf("tenant-a/meter-%d", i)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			if _, err := rt.Do("tenant-a", key, core.Message{Op: "reading"}); err != nil {
				t.Error(err)
			}
		}()
	}
	<-started
	<-started
	waitInflight(t, rt, "tenant-a", 2)
	// The router books a reading in flight before its backend call
	// starts: snapshot the call count only once both parked readings
	// have reached a backend.
	waitCalls(t, backends, 2)

	calls0 := totalCalls(backends)
	if _, err := rt.Do("tenant-a", "tenant-a/meter-9", core.Message{Op: "reading"}); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("over-quota reading: got %v, want core.ErrOverloaded", err)
	}
	// Batches are charged whole: a 3-reading batch cannot squeeze under a
	// quota of 2 even with zero in flight, and is refused the same way.
	if _, err := rt.DoBatch("tenant-b", "tenant-b/meters",
		[]distributed.Reading{{Op: "r"}, {Op: "r"}, {Op: "r"}}, nil, time.Time{}); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("over-quota batch: got %v, want core.ErrOverloaded", err)
	}
	if got := totalCalls(backends); got != calls0 {
		t.Fatalf("quota refusal reached a backend: %d calls, want %d", got, calls0)
	}
	for _, b := range backends {
		if _, _, retries := b.stats(); retries != 0 {
			t.Fatalf("quota refusal burned %d retries", retries)
		}
	}
	if mon.denies != 2 {
		t.Fatalf("monitor counted %d quota denies, want 2", mon.denies)
	}
	// An under-quota tenant still flows while tenant-a is saturated.
	done := make(chan error, 1)
	go func() {
		_, err := rt.Do("tenant-c", "tenant-c/meter-0", core.Message{Op: "reading"})
		done <- err
	}()
	waitInflight(t, rt, "tenant-c", 1)
	close(block)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("unrelated tenant blocked by tenant-a's quota: %v", err)
	}
	// Quota slots released: tenant-a admits again.
	if _, err := rt.Do("tenant-a", "tenant-a/meter-0", core.Message{Op: "reading"}); err != nil {
		t.Fatalf("quota not released after completion: %v", err)
	}
	stats := rt.Tenants()
	if len(stats) != 3 {
		t.Fatalf("tenant stats tracked %d tenants, want 3", len(stats))
	}
	for _, s := range stats {
		if s.Inflight != 0 {
			t.Fatalf("tenant %s leaked %d in-flight quota", s.Tenant, s.Inflight)
		}
	}
}

func totalCalls(backends map[string]*fakeBackend) int {
	n := 0
	for _, b := range backends {
		calls, _, _ := b.stats()
		n += calls
	}
	return n
}

func waitCalls(t *testing.T, backends map[string]*fakeBackend, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if totalCalls(backends) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("backends never reached %d calls", want)
}

func waitInflight(t *testing.T, rt *Router, tenant string, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range rt.Tenants() {
			if s.Tenant == tenant && s.Inflight == want {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("tenant %s never reached %d in-flight", tenant, want)
}

func TestRouterRebalanceOnLeave(t *testing.T) {
	jnl := &memJournal{}
	rt, backends := buildRouter(t, 4, Config{Journal: jnl})
	keys := meterKeys(400)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = rt.Owner(k)
	}
	departed, err := rt.Leave("shard-02")
	if err != nil {
		t.Fatal(err)
	}
	if departed != backends["shard-02"] {
		t.Fatal("Leave returned the wrong backend")
	}
	if rt.Epoch() != 5 { // 4 joins + 1 leave
		t.Fatalf("epoch = %d, want 5", rt.Epoch())
	}
	moved := 0
	for _, k := range keys {
		now := rt.Owner(k)
		if now != before[k] {
			moved++
			if before[k] != "shard-02" {
				t.Fatalf("key %s moved off a surviving shard", k)
			}
		}
		if _, err := rt.Do("t", k, core.Message{Op: "reading"}); err != nil {
			t.Fatal(err)
		}
	}
	if moved == 0 || moved > 2*len(keys)/4 {
		t.Fatalf("leave moved %d keys, want (0, %d]", moved, 2*len(keys)/4)
	}
	if calls, _, _ := backends["shard-02"].stats(); calls != 0 {
		t.Fatalf("departed shard still received %d calls", calls)
	}
	last := jnl.events[len(jnl.events)-1]
	if want := "shard-assign shards/shard-02 epoch=5 leave"; last != want {
		t.Fatalf("leave journal = %q, want %q", last, want)
	}
	// Edge: a router reduced to one shard refuses the final leave.
	if _, err := rt.Leave("shard-00"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Leave("shard-01"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Leave("shard-03"); !errors.Is(err, ErrLastShard) {
		t.Fatalf("last leave: got %v, want ErrLastShard", err)
	}
	// Edge: an empty router (never joined) refuses routing typed.
	empty := NewRouter(Config{})
	if _, err := empty.Do("t", "k", core.Message{Op: "reading"}); !errors.Is(err, ErrNoShards) {
		t.Fatalf("empty router: got %v, want ErrNoShards", err)
	}
	if _, err := empty.Leave("ghost"); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("empty router leave: got %v, want ErrUnknownShard", err)
	}
}

func TestRouterBatchRouting(t *testing.T) {
	mon := &countingMonitor{}
	rt, backends := buildRouter(t, 4, Config{Monitor: mon})
	readings := make([]distributed.Reading, 8)
	for i := range readings {
		readings[i] = distributed.Reading{Op: "reading", Data: []byte{byte(i)}}
	}
	key := "tenant-a/meters"
	results, err := rt.DoBatch("tenant-a", key, readings, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(readings) {
		t.Fatalf("got %d results, want %d", len(results), len(readings))
	}
	owner := rt.Owner(key)
	if calls, got, _ := backends[owner].stats(); calls != 1 || got != len(readings) {
		t.Fatalf("owner %s saw calls=%d readings=%d, want 1 call with %d readings", owner, calls, got, len(readings))
	}
	if mon.batches != 1 || mon.routed != len(readings) {
		t.Fatalf("monitor batches=%d routed=%d", mon.batches, mon.routed)
	}
	infos := rt.Shards()
	var routed int64
	for _, inf := range infos {
		routed += inf.Routed
	}
	if routed != int64(len(readings)) {
		t.Fatalf("shard infos count %d routed readings, want %d", routed, len(readings))
	}
}
