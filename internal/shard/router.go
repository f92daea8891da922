package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/distributed"
)

// KindShardAssign is the journal event kind for shard-map transitions.
// Actor is fleet/shard; detail is "epoch=N join|leave" so the auditor's
// epoch parser reads placement history straight out of an export.
const KindShardAssign = "shard-assign"

// Monitor is the structural telemetry hook (implemented by
// telemetry.Metrics, declared here rather than imported — the same
// inversion cluster.Monitor uses). Implementations must be safe for
// concurrent use.
type Monitor interface {
	// ShardMembership reports a shard-map transition: the new epoch and
	// the mapped shard count after it.
	ShardMembership(fleet string, epoch uint64, shards int)
	// ShardRoute reports readings routed to a shard: n=1 for a single
	// call, n=len(batch) for a batch.
	ShardRoute(fleet, shard string, readings int)
	// ShardBatch reports one batched dispatch of n readings.
	ShardBatch(fleet, shard string, readings int)
	// ShardQuotaDeny reports a tenant refused at its admission quota.
	ShardQuotaDeny(fleet, tenant string)
}

type nopMonitor struct{}

func (nopMonitor) ShardMembership(string, uint64, int) {}
func (nopMonitor) ShardRoute(string, string, int)      {}
func (nopMonitor) ShardBatch(string, string, int)      {}
func (nopMonitor) ShardQuotaDeny(string, string)       {}

// Backend is the dispatch surface one shard's pool exposes to the
// router; *cluster.Pool satisfies it. Routing against the interface
// keeps quota/placement logic testable without standing up a fleet.
type Backend interface {
	DoDeadline(key string, msg core.Message, deadline time.Time) (core.Message, error)
	DoBatch(key string, readings []distributed.Reading, results []distributed.BatchResult, deadline time.Time) ([]distributed.BatchResult, error)
	Healthy() int
	Replicas() []cluster.ReplicaInfo
}

// Config parameterizes a Router.
type Config struct {
	// Fleet labels this shard fabric in telemetry and journal events.
	// Default "shards".
	Fleet string

	// Vnodes is the ring points per shard; <= 0 selects DefaultVnodes.
	Vnodes int

	// TenantQuota bounds a single tenant's in-flight readings across the
	// whole fabric, layered above each pool's SetAdmissionLimit: the pool
	// limit protects a replica from everyone, the tenant quota protects
	// everyone from one tenant. 0 means unbounded.
	TenantQuota int

	// Monitor receives routing/quota/membership telemetry. Optional.
	Monitor Monitor

	// Journal records shard-assign events. Optional.
	Journal core.EventRecorder
}

// Router owns the shard map and the pools behind it: it routes every
// tenant/meter key to the pool the current epoch assigns, enforces
// per-tenant quotas before any pool work, and rebalances on Join/Leave
// with the map's ~K/N movement guarantee.
type Router struct {
	cfg Config

	mu     sync.RWMutex
	m      *Map
	pools  map[string]Backend
	routed map[string]*atomic.Int64 // per-shard readings routed

	tmu     sync.Mutex
	tenants map[string]*tenantGate
}

type tenantGate struct {
	inflight atomic.Int64
	denied   atomic.Int64
}

// NewRouter builds an empty router; shards join via Join.
func NewRouter(cfg Config) *Router {
	if cfg.Fleet == "" {
		cfg.Fleet = "shards"
	}
	if cfg.Monitor == nil {
		cfg.Monitor = nopMonitor{}
	}
	return &Router{
		cfg:     cfg,
		m:       NewMap(cfg.Vnodes),
		pools:   make(map[string]Backend),
		routed:  make(map[string]*atomic.Int64),
		tenants: make(map[string]*tenantGate),
	}
}

// Epoch returns the shard map's configuration epoch.
func (rt *Router) Epoch() uint64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.m.Epoch()
}

// Size returns the number of shards mapped.
func (rt *Router) Size() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.m.Size()
}

// Members returns the mapped shard names, sorted.
func (rt *Router) Members() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.m.Members()
}

// Owner returns the shard the current epoch assigns key to ("" if none).
func (rt *Router) Owner(key string) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.m.Owner(key)
}

// Join maps a shard backed by pool, bumping the map epoch. ~K/N of the
// keyspace moves onto the joiner; nothing else is reassigned.
func (rt *Router) Join(shard string, pool Backend) error {
	if pool == nil {
		return fmt.Errorf("shard %s: nil pool for %s", rt.cfg.Fleet, shard)
	}
	rt.mu.Lock()
	if err := rt.m.Add(shard); err != nil {
		rt.mu.Unlock()
		return err
	}
	rt.pools[shard] = pool
	rt.routed[shard] = new(atomic.Int64)
	epoch, size := rt.m.Epoch(), rt.m.Size()
	rt.mu.Unlock()
	rt.record(shard, epoch, "join")
	rt.cfg.Monitor.ShardMembership(rt.cfg.Fleet, epoch, size)
	return nil
}

// Leave unmaps a shard, bumping the map epoch. Its keyspace redistributes
// to ring successors; removing the last shard is refused (ErrLastShard).
// The departed pool is returned so the caller can drain or close it.
func (rt *Router) Leave(shard string) (Backend, error) {
	rt.mu.Lock()
	if err := rt.m.Remove(shard); err != nil {
		rt.mu.Unlock()
		return nil, err
	}
	pool := rt.pools[shard]
	delete(rt.pools, shard)
	delete(rt.routed, shard)
	epoch, size := rt.m.Epoch(), rt.m.Size()
	rt.mu.Unlock()
	rt.record(shard, epoch, "leave")
	rt.cfg.Monitor.ShardMembership(rt.cfg.Fleet, epoch, size)
	return pool, nil
}

func (rt *Router) record(shard string, epoch uint64, action string) {
	if rt.cfg.Journal != nil {
		rt.cfg.Journal.RecordEvent(KindShardAssign, rt.cfg.Fleet+"/"+shard,
			fmt.Sprintf("epoch=%d %s", epoch, action), 0, 0)
	}
}

// Do routes one reading with no deadline.
func (rt *Router) Do(tenant, key string, msg core.Message) (core.Message, error) {
	return rt.DoDeadline(tenant, key, msg, time.Time{})
}

// DoDeadline routes one reading for tenant to the shard owning key. The
// tenant quota is checked before any pool work: an exhausted tenant is
// refused with a core.ErrOverloaded-typed error without touching a
// replica — no retry is burned, no failover provoked.
func (rt *Router) DoDeadline(tenant, key string, msg core.Message, deadline time.Time) (core.Message, error) {
	release, err := rt.admitTenant(tenant, 1)
	if err != nil {
		return core.Message{}, err
	}
	defer release()
	shard, pool, err := rt.route(key, 1)
	if err != nil {
		return core.Message{}, err
	}
	rt.cfg.Monitor.ShardRoute(rt.cfg.Fleet, shard, 1)
	return pool.DoDeadline(key, msg, deadline)
}

// DoBatch routes a batch of readings for tenant to the shard owning key
// (one tenant's meters batch together; the key — typically the tenant or
// meter ID — picks the shard for the whole frame, so one sealed datagram
// carries all of them through a single AEAD pass per hop). The tenant
// quota charges the full batch size up front; results follows the
// distributed.BatchResult contract.
func (rt *Router) DoBatch(tenant, key string, readings []distributed.Reading, results []distributed.BatchResult, deadline time.Time) ([]distributed.BatchResult, error) {
	release, err := rt.admitTenant(tenant, len(readings))
	if err != nil {
		return results, err
	}
	defer release()
	shard, pool, err := rt.route(key, len(readings))
	if err != nil {
		return results, err
	}
	rt.cfg.Monitor.ShardRoute(rt.cfg.Fleet, shard, len(readings))
	rt.cfg.Monitor.ShardBatch(rt.cfg.Fleet, shard, len(readings))
	return pool.DoBatch(key, readings, results, deadline)
}

// route resolves key to its owning shard and pool under the current
// epoch, charging the per-shard routed counter.
func (rt *Router) route(key string, readings int) (string, Backend, error) {
	rt.mu.RLock()
	shard := rt.m.Owner(key)
	pool := rt.pools[shard]
	counter := rt.routed[shard]
	rt.mu.RUnlock()
	if shard == "" || pool == nil {
		return "", nil, ErrNoShards
	}
	counter.Add(int64(readings))
	return shard, pool, nil
}

// admitTenant charges n readings against tenant's quota, returning the
// release closure, or a typed overload refusal if the quota is exhausted.
func (rt *Router) admitTenant(tenant string, n int) (func(), error) {
	if rt.cfg.TenantQuota <= 0 {
		return func() {}, nil
	}
	g := rt.gate(tenant)
	if g.inflight.Add(int64(n)) > int64(rt.cfg.TenantQuota) {
		g.inflight.Add(int64(-n))
		g.denied.Add(1)
		rt.cfg.Monitor.ShardQuotaDeny(rt.cfg.Fleet, tenant)
		return nil, fmt.Errorf("shard %s: tenant %s over quota %d: %w",
			rt.cfg.Fleet, tenant, rt.cfg.TenantQuota, core.ErrOverloaded)
	}
	return func() { g.inflight.Add(int64(-n)) }, nil
}

func (rt *Router) gate(tenant string) *tenantGate {
	rt.tmu.Lock()
	defer rt.tmu.Unlock()
	g := rt.tenants[tenant]
	if g == nil {
		g = &tenantGate{}
		rt.tenants[tenant] = g
	}
	return g
}

// Info is one shard's routing snapshot.
type Info struct {
	Name     string
	Healthy  int
	Replicas int
	Routed   int64 // readings routed since join
}

// Shards snapshots the fabric, sorted by shard name.
func (rt *Router) Shards() []Info {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]Info, 0, len(rt.pools))
	for name, pool := range rt.pools {
		out = append(out, Info{
			Name:     name,
			Healthy:  pool.Healthy(),
			Replicas: len(pool.Replicas()),
			Routed:   rt.routed[name].Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TenantStat is one tenant's quota snapshot.
type TenantStat struct {
	Tenant   string
	Inflight int64
	Denied   int64
}

// Tenants snapshots per-tenant quota state, sorted by tenant.
func (rt *Router) Tenants() []TenantStat {
	rt.tmu.Lock()
	defer rt.tmu.Unlock()
	out := make([]TenantStat, 0, len(rt.tenants))
	for name, g := range rt.tenants {
		out = append(out, TenantStat{
			Tenant:   name,
			Inflight: g.inflight.Load(),
			Denied:   g.denied.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
