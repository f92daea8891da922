package cluster

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/journal"
	"lateral/internal/netsim"
	"lateral/internal/sgx"
	"lateral/internal/telemetry"
)

// The telemetry collector must satisfy the fleet monitor hook without
// either package importing the other.
var _ Monitor = (*telemetry.Metrics)(nil)

// fleetStore is the replicated trusted component under test: it counts
// bumps per key so tests can see exactly which replica served which call.
type fleetStore struct {
	mu     sync.Mutex
	perKey map[string]int
	total  int
}

func (s *fleetStore) CompName() string     { return "anon" }
func (s *fleetStore) CompVersion() string  { return "1.0" }
func (s *fleetStore) Init(*core.Ctx) error { return nil }

func (s *fleetStore) Handle(env core.Envelope) (core.Message, error) {
	switch env.Msg.Op {
	case "bump":
		s.mu.Lock()
		if s.perKey == nil {
			s.perKey = make(map[string]int)
		}
		s.perKey[string(env.Msg.Data)]++
		n := s.perKey[string(env.Msg.Data)]
		s.total++
		s.mu.Unlock()
		return core.Message{Op: "ok", Data: []byte(fmt.Sprint(n))}, nil
	case "stall":
		// A hung replica; the server-side watchdog contains it.
		time.Sleep(100 * time.Millisecond)
		return core.Message{Op: "ok"}, nil
	default:
		return core.Message{}, core.ErrRefused
	}
}

func (s *fleetStore) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

func (s *fleetStore) Count(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.perKey[key]
}

// tamperedStore is the same component with one modified line — a different
// measurement, which admission must refuse.
type tamperedStore struct{ fleetStore }

func (t *tamperedStore) CompVersion() string { return "1.0-evil" }

type fixture struct {
	t         *testing.T
	net       *netsim.Network
	part      *netsim.Partitioner
	pool      *Pool
	vendor    *cryptoutil.Signer
	stores    map[string]*fleetStore
	systems   map[string]*core.System
	exporters map[string]*distributed.Exporter
}

func replicaName(i int) string { return fmt.Sprintf("anon-%d", i) }

// newFleet builds an n-replica attested fleet. Replica indices in tampered
// are deployed as the modified build, and their admission is asserted to
// fail with ErrAttestation.
func newFleet(t *testing.T, n int, tampered map[int]bool, mutate func(*Config)) *fixture {
	t.Helper()
	net := netsim.New()
	part := netsim.NewPartitioner()
	net.SetAdversary(part)
	vendor := cryptoutil.NewSigner("intel")
	cfg := Config{
		Fleet:       "anon",
		RemoteName:  "anon",
		VendorKey:   vendor.Public(),
		Measurement: cryptoutil.Hash(core.DomainImage(&fleetStore{})),
		Sleep:       func(time.Duration) {},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{t: t, net: net, part: part, pool: pool, vendor: vendor,
		stores: make(map[string]*fleetStore), systems: make(map[string]*core.System),
		exporters: make(map[string]*distributed.Exporter)}
	for i := 1; i <= n; i++ {
		name := replicaName(i)
		err := pool.Admit(f.buildReplica(name, tampered[i]))
		if tampered[i] {
			if !errors.Is(err, ErrAttestation) {
				t.Fatalf("tampered %s admitted: %v", name, err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// buildReplica stands up one replica machine — enclave, system, exporter —
// and returns its admission spec with the exporter's epoch gate wired, so
// tests can Admit (static) or Join (epoch transition) it. Tampered deploys
// run the modified build, whose measurement admission must refuse.
func (f *fixture) buildReplica(name string, tampered bool) ReplicaSpec {
	f.t.Helper()
	cpu, err := sgx.New(sgx.Config{DeviceSeed: "fleet-" + name, Vendor: f.vendor})
	if err != nil {
		f.t.Fatal(err)
	}
	sys := core.NewSystem(cpu)
	store := &fleetStore{}
	var comp core.Component = store
	if tampered {
		comp = &tamperedStore{}
	}
	if err := sys.Launch(comp, true, 1); err != nil {
		f.t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		f.t.Fatal(err)
	}
	exp, err := distributed.NewExporter(distributed.ExportConfig{
		System:    sys,
		Component: "anon",
		Endpoint:  f.net.Attach(name),
		Identity:  cryptoutil.NewSigner(name + "-tls"),
		Rand:      cryptoutil.NewPRNG(name + "-srv"),
	})
	if err != nil {
		f.t.Fatal(err)
	}
	if !tampered {
		f.stores[name] = store
		f.systems[name] = sys
	}
	f.exporters[name] = exp
	return ReplicaSpec{
		Name:           name,
		RemoteEndpoint: name,
		Endpoint:       f.net.Attach("lb-" + name),
		Rand:           cryptoutil.NewPRNG(name + "-cli"),
		Pump:           exp.Serve,
		SetEpoch:       exp.SetEpoch,
	}
}

// scriptedBalancer picks replicas by name in a fixed order (repeating the
// last name once the script runs out), making multi-replica failover
// sequences deterministic in tests.
type scriptedBalancer struct {
	names []string
	i     int
}

func (s *scriptedBalancer) Name() string { return "scripted" }

func (s *scriptedBalancer) Pick(_ string, candidates []*Replica) *Replica {
	name := s.names[s.i]
	if s.i < len(s.names)-1 {
		s.i++
	}
	for _, r := range candidates {
		if r.name == name {
			return r
		}
	}
	return candidates[0]
}

func (f *fixture) bump(key string) error {
	_, err := f.pool.Do(key, core.Message{Op: "bump", Data: []byte(key)})
	return err
}

func (f *fixture) mustBump(key string) {
	f.t.Helper()
	if err := f.bump(key); err != nil {
		f.t.Fatalf("bump %q: %v", key, err)
	}
}

func (f *fixture) info(name string) ReplicaInfo {
	f.t.Helper()
	for _, ri := range f.pool.Replicas() {
		if ri.Name == name {
			return ri
		}
	}
	f.t.Fatalf("replica %s not in pool", name)
	return ReplicaInfo{}
}

func (f *fixture) fleetTotal() int {
	n := 0
	for _, s := range f.stores {
		n += s.Total()
	}
	return n
}

func TestAdmissionAndRoundRobin(t *testing.T) {
	f := newFleet(t, 3, nil, nil)
	if got := f.pool.Healthy(); got != 3 {
		t.Fatalf("healthy = %d, want 3", got)
	}
	for i := 0; i < 9; i++ {
		f.mustBump(fmt.Sprintf("meter-%d", i))
	}
	// Round-robin spreads exactly evenly.
	for name, s := range f.stores {
		if s.Total() != 3 {
			t.Errorf("%s served %d calls, want 3", name, s.Total())
		}
	}
}

func TestTamperedReplicaQuarantinedAtAdmission(t *testing.T) {
	f := newFleet(t, 3, map[int]bool{2: true}, nil)
	if got := f.pool.Quarantined(); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	if got := f.pool.Healthy(); got != 2 {
		t.Fatalf("healthy = %d, want 2", got)
	}
	for i := 0; i < 6; i++ {
		f.mustBump(fmt.Sprintf("meter-%d", i))
	}
	// Quarantine is permanent: health rounds never re-dial the replica.
	f.pool.CheckNow()
	f.pool.CheckNow()
	ri := f.info("anon-2")
	if ri.State != StateQuarantined {
		t.Errorf("anon-2 state = %v after health rounds, want quarantined", ri.State)
	}
	if ri.Calls != 0 {
		t.Errorf("quarantined replica served %d calls, want 0", ri.Calls)
	}
	if f.fleetTotal() != 6 {
		t.Errorf("fleet served %d, want 6", f.fleetTotal())
	}
}

func TestRemoteErrorsDoNotFailOver(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	_, err := f.pool.Do("m", core.Message{Op: "no-such-op"})
	if !errors.Is(err, distributed.ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	// The call reached an attested replica and was refused: retrying on a
	// sibling would duplicate work, so the fleet stays intact.
	if got := f.pool.Healthy(); got != 2 {
		t.Errorf("healthy = %d after remote refusal, want 2", got)
	}
	for _, ri := range f.pool.Replicas() {
		if ri.Failovers != 0 || ri.Retries != 0 {
			t.Errorf("%s failovers=%d retries=%d, want 0/0", ri.Name, ri.Failovers, ri.Retries)
		}
	}
}

func TestFailoverOnCrashAndRecovery(t *testing.T) {
	f := newFleet(t, 3, nil, nil)
	for i := 0; i < 3; i++ {
		f.mustBump(fmt.Sprintf("warm-%d", i))
	}
	// Crash anon-2: every datagram to or from it vanishes.
	f.part.Isolate("anon-2")
	for i := 0; i < 9; i++ {
		f.mustBump(fmt.Sprintf("meter-%d", i)) // caller sees zero failures
	}
	ri := f.info("anon-2")
	if ri.State != StateDown {
		t.Errorf("anon-2 state = %v, want down", ri.State)
	}
	if ri.Failovers == 0 {
		t.Error("crash produced no failovers")
	}
	served := f.stores["anon-1"].Total() + f.stores["anon-3"].Total()
	if served < 9 {
		t.Errorf("survivors served %d, want >= 9", served)
	}
	// The replica restarts: a health round re-attests and re-admits it.
	f.part.Heal("anon-2")
	f.pool.CheckNow()
	if got := f.pool.Healthy(); got != 3 {
		t.Fatalf("healthy = %d after heal, want 3", got)
	}
	before := f.stores["anon-2"].Total()
	for i := 0; i < 6; i++ {
		f.mustBump(fmt.Sprintf("post-%d", i))
	}
	if f.stores["anon-2"].Total() <= before {
		t.Error("recovered replica received no traffic")
	}
}

func TestAllReplicasDownThenRecover(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	f.part.Isolate("anon-1")
	f.part.Isolate("anon-2")
	err := f.bump("m1")
	if !errors.Is(err, ErrNoReplicas) && !errors.Is(err, ErrExhausted) {
		t.Fatalf("total outage: err = %v", err)
	}
	if err := f.bump("m2"); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("empty pool: err = %v", err)
	}
	f.part.HealAll()
	f.pool.CheckNow()
	if got := f.pool.Healthy(); got != 2 {
		t.Fatalf("healthy = %d after heal, want 2", got)
	}
	f.mustBump("m3")
}

func TestReplyLossWindowIsAtLeastOnce(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	// Cut only the reply direction: anon-1 receives and processes the
	// request, but the caller never hears back — the in-flight window.
	f.part.BlockLink("anon-1", "lb-anon-1")
	f.mustBump("meter-7")
	// The call failed over and succeeded elsewhere; the reading was never
	// lost, but the partitioned replica also processed it. Delivery inside
	// the window is at-least-once, and the duplicate is observable.
	if got := f.stores["anon-2"].Count("meter-7"); got != 1 {
		t.Errorf("anon-2 bumps = %d, want 1 (failover target)", got)
	}
	if got := f.stores["anon-1"].Count("meter-7"); got != 1 {
		t.Errorf("anon-1 bumps = %d, want 1 (processed, reply lost)", got)
	}
	if ri := f.info("anon-1"); ri.State != StateDown {
		t.Errorf("anon-1 state = %v, want down", ri.State)
	}
}

func TestConsistentHashAffinity(t *testing.T) {
	f := newFleet(t, 4, nil, func(c *Config) { c.Balancer = NewConsistentHash() })
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("meter-%03d", i)
	}
	for round := 0; round < 3; round++ {
		for _, k := range keys {
			f.mustBump(k)
		}
	}
	// Every key sticks to exactly one replica across rounds.
	used := map[string]bool{}
	for _, k := range keys {
		owners := 0
		for name, s := range f.stores {
			switch s.Count(k) {
			case 0:
			case 3:
				owners++
				used[name] = true
			default:
				t.Fatalf("key %s split: %s has %d bumps", k, name, s.Count(k))
			}
		}
		if owners != 1 {
			t.Fatalf("key %s has %d owners, want 1", k, owners)
		}
	}
	if len(used) < 3 {
		t.Errorf("only %d replicas own keys, want a spread", len(used))
	}
}

func TestConsistentHashFailoverMovesOnlyLostKeys(t *testing.T) {
	f := newFleet(t, 4, nil, func(c *Config) { c.Balancer = NewConsistentHash() })
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("meter-%03d", i)
	}
	owner := map[string]string{}
	for _, k := range keys {
		f.mustBump(k)
		for name, s := range f.stores {
			if s.Count(k) == 1 {
				owner[k] = name
			}
		}
	}
	victim := owner[keys[0]]
	f.part.Isolate(victim)
	for _, k := range keys {
		f.mustBump(k)
	}
	for _, k := range keys {
		if owner[k] == victim {
			continue
		}
		// Keys owned by surviving replicas never moved.
		if got := f.stores[owner[k]].Count(k); got != 2 {
			t.Errorf("key %s left its live owner %s (count %d)", k, owner[k], got)
		}
	}
}

func TestLeastInflightPrefersIdleAndRotatesTies(t *testing.T) {
	a := &Replica{name: "a"}
	b := &Replica{name: "b"}
	c := &Replica{name: "c"}
	a.inflight.Add(2)
	lb := NewLeastInflight()
	if got := lb.Pick("", []*Replica{a, b, c}); got == a {
		t.Error("picked the busiest replica")
	}
	// b and c are tied at zero: successive picks alternate.
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		seen[lb.Pick("", []*Replica{a, b, c}).Name()]++
	}
	if seen["a"] != 0 || seen["b"] != 2 || seen["c"] != 2 {
		t.Errorf("tie rotation = %v, want b:2 c:2", seen)
	}
}

func TestFailoverIsImmediateAndOutageBackoffIsExponential(t *testing.T) {
	base := 200 * time.Microsecond
	run := func(record *[]time.Duration) {
		f := newFleet(t, 3, nil, func(c *Config) {
			c.MaxAttempts = 6
			c.Sleep = func(d time.Duration) { *record = append(*record, d) }
		})
		// One crashed replica among healthy siblings: the failover retries
		// immediately, without taxing the call with a backoff sleep.
		f.part.Isolate("anon-1")
		f.mustBump("m0")
		if len(*record) != 0 {
			t.Fatalf("failover with healthy siblings slept %v, want none", *record)
		}
		// Total outage: the remaining attempts back off exponentially.
		f.part.Isolate("anon-2")
		f.part.Isolate("anon-3")
		if err := f.bump("m"); !errors.Is(err, ErrExhausted) {
			t.Fatalf("total outage: err = %v", err)
		}
	}
	var sleeps []time.Duration
	run(&sleeps)
	// Two healthy replicas burn attempts 0-1 (no sleep); MaxAttempts=6
	// leaves three empty-pool rounds: base, 2*base, 4*base, each + jitter.
	if len(sleeps) != 3 {
		t.Fatalf("sleeps = %v, want 3 entries", sleeps)
	}
	for i, lo := range []time.Duration{base, 2 * base, 4 * base} {
		if sleeps[i] < lo || sleeps[i] >= lo+base {
			t.Errorf("backoff %d = %v outside [%v, %v)", i, sleeps[i], lo, lo+base)
		}
	}
	// Same jitter seed → identical backoff schedule (deterministic runs).
	var sleeps2 []time.Duration
	run(&sleeps2)
	if fmt.Sprint(sleeps) != fmt.Sprint(sleeps2) {
		t.Errorf("same seed, different schedules: %v vs %v", sleeps, sleeps2)
	}
}

func TestHealthIntervalPiggybacksOnCalls(t *testing.T) {
	now := time.Unix(1000, 0)
	f := newFleet(t, 2, nil, func(c *Config) {
		c.HealthInterval = time.Minute
		c.Clock = func() time.Time { return now }
	})
	f.part.Isolate("anon-2")
	for i := 0; i < 4; i++ {
		f.mustBump(fmt.Sprintf("m-%d", i))
	}
	if got := f.pool.Healthy(); got != 1 {
		t.Fatalf("healthy = %d after crash, want 1", got)
	}
	f.part.Heal("anon-2")
	// Interval not elapsed: traffic alone does not re-admit.
	f.mustBump("m-x")
	if got := f.pool.Healthy(); got != 1 {
		t.Fatalf("healthy = %d before interval, want 1", got)
	}
	now = now.Add(2 * time.Minute)
	f.mustBump("m-y")
	if got := f.pool.Healthy(); got != 2 {
		t.Fatalf("healthy = %d after interval, want 2", got)
	}
}

func TestPingTimeoutMarksSlowReplicaDown(t *testing.T) {
	now := time.Unix(1000, 0)
	step := time.Duration(0)
	f := newFleet(t, 1, nil, func(c *Config) {
		c.PingTimeout = time.Millisecond
		c.Clock = func() time.Time { now = now.Add(step); return now }
	})
	// Fast pings keep the replica healthy.
	f.pool.CheckNow()
	if got := f.pool.Healthy(); got != 1 {
		t.Fatalf("healthy = %d with fast pings, want 1", got)
	}
	// Every clock read now advances 5ms, so the probe misses its budget.
	step = 5 * time.Millisecond
	f.pool.CheckNow()
	if got := f.pool.Healthy(); got != 0 {
		t.Fatalf("healthy = %d with slow pings, want 0", got)
	}
	// Latency recovers: the next round reconnects and re-admits.
	step = 0
	f.pool.CheckNow()
	if got := f.pool.Healthy(); got != 1 {
		t.Fatalf("healthy = %d after recovery, want 1", got)
	}
}

func TestTelemetryMonitorSeesFleetEvents(t *testing.T) {
	m := telemetry.NewMetrics()
	f := newFleet(t, 3, map[int]bool{3: true}, func(c *Config) { c.Monitor = m })
	f.part.Isolate("anon-2")
	for i := 0; i < 6; i++ {
		f.mustBump(fmt.Sprintf("m-%d", i))
	}
	byName := map[string]telemetry.ReplicaSummary{}
	for _, r := range m.Fleets() {
		byName[r.Replica] = r
	}
	if r := byName["anon-1"]; !r.Healthy || r.Calls == 0 {
		t.Errorf("anon-1 summary = %+v", r)
	}
	if r := byName["anon-2"]; r.Healthy || r.Failovers == 0 {
		t.Errorf("anon-2 summary = %+v", r)
	}
	if r := byName["anon-3"]; !r.Quarantined || r.Calls != 0 {
		t.Errorf("anon-3 summary = %+v", r)
	}
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lateral_cluster_replica_healthy{fleet="anon",replica="anon-1"} 1`,
		`lateral_cluster_replica_healthy{fleet="anon",replica="anon-2"} 0`,
		`lateral_cluster_replica_quarantined{fleet="anon",replica="anon-3"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every call above was sequential, so no stub coalesced, and the
	// coalescing families are emitted only when some stub did.
	if strings.Contains(b.String(), "lateral_stub_coalesce_") {
		t.Error("sequential stubs emitted lateral_stub_coalesce_ families")
	}
}

// TestSoakUnderChaos hammers the pool from several goroutines while a
// chaos goroutine repeatedly crashes and heals one replica. Run with
// -race; the invariants are: callers only ever see success or a total
// outage error, no accepted call is lost (every success was processed at
// least once), and the fleet fully recovers afterwards.
func TestSoakUnderChaos(t *testing.T) {
	f := newFleet(t, 4, nil, nil)
	const workers, calls = 4, 30
	var wg sync.WaitGroup
	var successes, outages atomic64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				err := f.bump(fmt.Sprintf("w%d-m%d", w, i))
				switch {
				case err == nil:
					successes.add(1)
				case errors.Is(err, ErrNoReplicas) || errors.Is(err, ErrExhausted):
					outages.add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			f.part.Isolate("anon-3")
			f.pool.CheckNow()
			f.part.Heal("anon-3")
			f.pool.CheckNow()
		}
	}()
	wg.Wait()
	f.part.HealAll()
	f.pool.CheckNow()
	if got := f.pool.Healthy(); got != 4 {
		t.Errorf("healthy = %d after soak, want 4", got)
	}
	if f.fleetTotal() < int(successes.load()) {
		t.Errorf("fleet processed %d < %d successes: accepted calls lost",
			f.fleetTotal(), successes.load())
	}
	t.Logf("soak: %d ok, %d outages, %d processed", successes.load(), outages.load(), f.fleetTotal())
}

// atomic64 avoids importing sync/atomic under a second name in tests.
type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

func TestConfigValidationAndDefaults(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	vendor := cryptoutil.NewSigner("v")
	p, err := New(Config{RemoteName: "anon", VendorKey: vendor.Public()})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Fleet != "anon" || p.cfg.MaxAttempts != 3 || p.cfg.Balancer == nil {
		t.Errorf("defaults not applied: %+v", p.cfg)
	}
	if err := p.Admit(ReplicaSpec{}); err == nil {
		t.Error("empty replica spec accepted")
	}
	if _, err := p.Do("k", core.Message{Op: "x"}); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("empty pool Do: %v", err)
	}
	var _ ed25519.PublicKey = p.cfg.VendorKey
}

func TestDuplicateReplicaNameRejected(t *testing.T) {
	f := newFleet(t, 1, nil, nil)
	err := f.pool.Admit(ReplicaSpec{
		Name:           "anon-1",
		RemoteEndpoint: "anon-1",
		Endpoint:       f.net.Attach("lb-dup"),
		Rand:           cryptoutil.NewPRNG("dup"),
	})
	if err == nil || !strings.Contains(err.Error(), "already admitted") {
		t.Errorf("duplicate admit: %v", err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateHealthy:     "healthy",
		StateDown:        "down",
		StateQuarantined: "quarantined",
		State(9):         "state(9)",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// TestDoDeadlineExpiredBeforeDispatch: a spent budget never reaches any
// replica, and no failover happens.
func TestDoDeadlineExpiredBeforeDispatch(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	_, err := f.pool.DoDeadline("k", core.Message{Op: "bump", Data: []byte("k")},
		time.Now().Add(-time.Millisecond))
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("expired DoDeadline: got %v, want core.ErrDeadline", err)
	}
	if f.fleetTotal() != 0 {
		t.Errorf("%d bumps served on a spent budget", f.fleetTotal())
	}
	for _, ri := range f.pool.Replicas() {
		if ri.Failovers != 0 || ri.Retries != 0 {
			t.Errorf("replica %s: failovers %d retries %d on a spent budget",
				ri.Name, ri.Failovers, ri.Retries)
		}
	}
}

// TestDoDeadlineTimeoutDoesNotFailOver: a replica that blows the budget
// ends the call with ErrDeadline — no sibling retry (the caller is gone)
// and no down-marking (slow is not dead).
func TestDoDeadlineTimeoutDoesNotFailOver(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	start := time.Now()
	_, err := f.pool.DoDeadline("k", core.Message{Op: "stall"},
		time.Now().Add(15*time.Millisecond))
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("stalled DoDeadline: got %v, want core.ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("caller blocked %v on a 15ms budget", elapsed)
	}
	if got := f.pool.Healthy(); got != 2 {
		t.Errorf("Healthy() = %d after a timeout, want 2 (slow is not dead)", got)
	}
	for _, ri := range f.pool.Replicas() {
		if ri.Failovers != 0 {
			t.Errorf("replica %s failed over on a deadline error", ri.Name)
		}
	}
	time.Sleep(120 * time.Millisecond) // drain the abandoned remote handler
}

// TestOverloadFailsOverWithoutMarkingDown: a replica shedding load with
// ErrOverloaded is retried on a sibling immediately, and stays admitted —
// transient overload must not force a re-attestation round trip.
func TestOverloadFailsOverWithoutMarkingDown(t *testing.T) {
	f := newFleet(t, 2, nil, func(c *Config) {
		// The priming stall consumes the first entry; the bump then hits
		// anon-1 (sheds) and fails over to anon-2.
		c.Balancer = &scriptedBalancer{names: []string{"anon-1", "anon-1", "anon-2"}}
	})
	// Fill anon-1's single admission slot with an abandoned stall.
	f.systems["anon-1"].SetAdmissionLimit(1)
	if _, err := f.pool.DoDeadline("k", core.Message{Op: "stall"},
		time.Now().Add(10*time.Millisecond)); !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("priming stall: %v", err)
	}
	// Scripted balancer sends the next call to anon-1 (sheds) then anon-2.
	reply, err := f.pool.DoDeadline("k", core.Message{Op: "bump", Data: []byte("k")},
		time.Now().Add(500*time.Millisecond))
	if err != nil {
		t.Fatalf("overload failover: %v", err)
	}
	if reply.Op != "ok" {
		t.Errorf("reply = %+v", reply)
	}
	if got := f.pool.Healthy(); got != 2 {
		t.Errorf("Healthy() = %d, want 2 (overload must not mark down)", got)
	}
	if f.stores["anon-2"].Total() != 1 {
		t.Errorf("anon-2 served %d bumps, want 1", f.stores["anon-2"].Total())
	}
	if ri := f.info("anon-1"); ri.Retries != 1 || ri.Failovers != 0 {
		t.Errorf("anon-1 retries %d failovers %d, want 1/0", ri.Retries, ri.Failovers)
	}
	time.Sleep(120 * time.Millisecond) // drain the abandoned remote handler
}

// TestDoDeadlineOutageBackoffCappedByBudget: with every replica down
// mid-call, outage backoff sleeps never extend past the caller's deadline.
func TestDoDeadlineOutageBackoffCappedByBudget(t *testing.T) {
	var slept []time.Duration
	f := newFleet(t, 1, nil, func(c *Config) {
		c.MaxAttempts = 4
		c.BackoffBase = 40 * time.Millisecond
		c.BackoffMax = 400 * time.Millisecond
		c.Sleep = func(d time.Duration) { slept = append(slept, d) }
	})
	// Kill the only replica's link so every attempt is an operational
	// failure and the pool hits the empty-pool backoff path.
	f.part.Isolate("anon-1")
	deadline := time.Now().Add(60 * time.Millisecond)
	_, err := f.pool.DoDeadline("k", core.Message{Op: "bump", Data: []byte("k")}, deadline)
	if err == nil {
		t.Fatal("call succeeded with the only replica isolated")
	}
	for _, d := range slept {
		if d > 70*time.Millisecond {
			t.Errorf("backoff slept %v, past the 60ms caller budget", d)
		}
	}
}

// journalCounter is a test EventRecorder counting events per kind/actor.
type journalCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func (j *journalCounter) RecordEvent(kind, actor, detail string, trace, span uint64) {
	j.mu.Lock()
	if j.counts == nil {
		j.counts = make(map[string]int)
	}
	j.counts[kind+"|"+actor]++
	j.mu.Unlock()
}

func (j *journalCounter) count(kind, actor string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.counts[kind+"|"+actor]
}

// total is the number of events recorded so far, of every kind.
func (j *journalCounter) total() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, c := range j.counts {
		n += c
	}
	return n
}

// TestMalformedBatchRefusedBeforeDispatch: a batch the codec cannot carry
// is the caller's error, not the channel's. DoBatch refuses it before any
// pick, so no healthy replica is charged, failed over, marked down or
// journaled for it.
func TestMalformedBatchRefusedBeforeDispatch(t *testing.T) {
	jc := &journalCounter{}
	f := newFleet(t, 2, nil, func(c *Config) { c.Journal = jc })
	journaled := jc.total()
	for _, tc := range []struct {
		name  string
		batch []distributed.Reading
	}{
		{"nil batch", nil},
		{"reserved op", []distributed.Reading{{Op: distributed.PingOp, Data: []byte("m")}}},
		{"beyond MaxCoalesce", make([]distributed.Reading, distributed.MaxCoalesce+1)},
	} {
		if _, err := f.pool.DoBatch("k", tc.batch, nil, time.Time{}); !errors.Is(err, distributed.ErrTransport) {
			t.Errorf("%s: err = %v, want ErrTransport", tc.name, err)
		}
	}
	if got := f.pool.Healthy(); got != 2 {
		t.Errorf("healthy = %d after malformed batches, want 2", got)
	}
	for _, ri := range f.pool.Replicas() {
		if ri.Calls != 0 || ri.Failovers != 0 {
			t.Errorf("%s calls=%d failovers=%d, want 0/0", ri.Name, ri.Calls, ri.Failovers)
		}
	}
	if n := jc.total() - journaled; n != 0 {
		t.Errorf("%d events journaled for malformed batches, want 0", n)
	}
}

// TestDispatchBooksEveryAttempt pins dispatch's per-attempt bookkeeping,
// the same for a single call and a batch frame: each attempt is discharged
// from the inflight gauge as it returns and counted once as a call, and
// once more as an error when it failed.
func TestDispatchBooksEveryAttempt(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch bool
		op    string
		// isolate crashes anon-1, which the balancer picks first, so the
		// call fails over to anon-2 on a transport failure.
		isolate          bool
		want             error
		attempts, failed int64
	}{
		{"Do success", false, "bump", false, nil, 1, 0},
		{"Do remote refusal", false, "no-such-op", false, distributed.ErrRemote, 1, 1},
		{"Do failover", false, "bump", true, nil, 2, 1},
		{"DoBatch success", true, "bump", false, nil, 1, 0},
		// A refused reading rides a frame that succeeded: the refusal comes
		// back in the results, and the attempt is no error.
		{"DoBatch remote refusal", true, "no-such-op", false, distributed.ErrRemote, 1, 0},
		{"DoBatch failover", true, "bump", true, nil, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t, 2, nil, func(c *Config) {
				c.Balancer = &scriptedBalancer{names: []string{"anon-1", "anon-2"}}
			})
			books := func() (calls, errs int64) {
				for _, ri := range f.pool.Replicas() {
					if ri.Inflight != 0 {
						t.Errorf("%s inflight = %d, want 0", ri.Name, ri.Inflight)
					}
					calls += ri.Calls
					errs += ri.Errors
				}
				return calls, errs
			}
			calls0, errs0 := books()
			if tc.isolate {
				f.part.Isolate("anon-1")
			}
			var err error
			if tc.batch {
				var res []distributed.BatchResult
				res, err = f.pool.DoBatch("k", []distributed.Reading{{Op: tc.op, Data: []byte("k")}}, nil, time.Time{})
				if err == nil {
					err = res[0].Err
				}
			} else {
				_, err = f.pool.Do("k", core.Message{Op: tc.op, Data: []byte("k")})
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			calls, errs := books()
			if calls-calls0 != tc.attempts || errs-errs0 != tc.failed {
				t.Errorf("calls +%d errors +%d, want +%d/+%d", calls-calls0, errs-errs0, tc.attempts, tc.failed)
			}
		})
	}
}

// targetTamperer flips a byte in every payload the target endpoint sends —
// the on-path integrity attack that makes re-attestation refuse a replica.
type targetTamperer struct{ target string }

func (a targetTamperer) Intercept(d netsim.Datagram) []netsim.Datagram {
	if d.From != a.target || len(d.Payload) == 0 {
		return []netsim.Datagram{d}
	}
	c := d.Payload // in-path attacker may mutate in place
	c[len(c)/2] ^= 0x40
	return []netsim.Datagram{d}
}

// TestQuarantineJournaledExactlyOnceUnderConcurrentFailover drives the
// exactly-once property the setState refactor guarantees: a replica that
// fails re-attestation while concurrent health rounds, failovers, and
// callers all race on it produces exactly ONE quarantine journal entry —
// the state commit, the journal append, and the Monitor callback are one
// critical section, and quarantine is absorbing. Run with -race.
func TestQuarantineJournaledExactlyOnceUnderConcurrentFailover(t *testing.T) {
	jc := &journalCounter{}
	f := newFleet(t, 3, nil, func(c *Config) { c.Journal = jc })

	// Take anon-2 down, then bring its network back tampered: every
	// reconnect now presents corrupt evidence and fails attestation.
	f.part.Isolate("anon-2")
	f.pool.CheckNow()
	if got := f.info("anon-2").State; got != StateDown {
		t.Fatalf("anon-2 = %v before tamper, want down", got)
	}
	f.part.Heal("anon-2")
	f.net.SetAdversary(netsim.NewChain(f.part, targetTamperer{target: "anon-2"}))

	// Race health rounds (each re-attests the down replica) against a
	// caller storm; every path that can touch anon-2's state runs at once.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				f.pool.CheckNow()
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = f.bump(fmt.Sprintf("storm-%d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()

	if got := f.info("anon-2").State; got != StateQuarantined {
		t.Fatalf("anon-2 = %v after tampered re-attestation, want quarantined", got)
	}
	if got := jc.count(KindQuarantine, "anon/anon-2"); got != 1 {
		t.Fatalf("quarantine journaled %d times, want exactly 1", got)
	}
	if got := jc.count(KindAdmit, "anon/anon-2"); got != 1 {
		t.Fatalf("admit journaled %d times, want exactly 1", got)
	}
	// Quarantine is absorbing: later health rounds must not resurrect or
	// re-journal the replica.
	f.net.SetAdversary(f.part)
	f.pool.CheckNow()
	if got := jc.count(KindQuarantine, "anon/anon-2"); got != 1 {
		t.Fatalf("quarantine re-journaled after heal: %d entries", got)
	}
	if got := jc.count(KindReplicaUp, "anon/anon-2"); got != 1 {
		t.Fatalf("anon-2 replica-up count = %d, want 1 (initial admission only)", got)
	}
}

// TestAdmitHandshakeExcludesHealthRound pins that Admit holds the
// replica's connection lock across its handshake, as health rounds and
// rekeys do. The replica's pump starts a health round on another goroutine
// while Admit's hello is on the wire; that round sees the replica down and
// must wait for the lock instead of dialing a second handshake through the
// same stub and exporter at once. Admit's first pump holds its round open
// until a second pump joins it or 100 ms pass, so a round that ignores the
// lock is caught on every run. Run with -race: two overlapping handshakes
// also share the exporter's randomness unsynchronized.
func TestAdmitHandshakeExcludesHealthRound(t *testing.T) {
	f := newFleet(t, 0, nil, nil)
	spec := f.buildReplica("anon-1", false)
	serve := spec.Pump
	var active atomic.Int32
	var start, joined sync.Once
	overlap := make(chan struct{})
	round := make(chan struct{})
	spec.Pump = func() error {
		if active.Add(1) > 1 {
			joined.Do(func() { close(overlap) })
		}
		defer active.Add(-1)
		first := false
		start.Do(func() {
			first = true
			go func() {
				defer close(round)
				f.pool.CheckNow()
			}()
		})
		if first {
			select {
			case <-overlap:
			case <-time.After(100 * time.Millisecond):
			}
		}
		return serve()
	}
	if err := f.pool.Admit(spec); err != nil {
		t.Fatal(err)
	}
	<-round
	select {
	case <-overlap:
		t.Fatal("a health round dialed a handshake while Admit's was on the wire")
	default:
	}
	if got := f.info("anon-1").State; got != StateHealthy {
		t.Fatalf("anon-1 = %v after admit and health round, want healthy", got)
	}
	f.mustBump("k")
}

// replica returns the live member under name.
func (f *fixture) replica(name string) *Replica {
	f.pool.mu.Lock()
	defer f.pool.mu.Unlock()
	return f.pool.byName[name]
}

// holdFailedCall parks the first failed call reported against target in
// ReplicaCall — after the call discharged its inflight charge, before its
// failure path runs — until release is closed.
type holdFailedCall struct {
	nopMonitor
	target  string
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func (m *holdFailedCall) ReplicaCall(_, replica string, failed bool) {
	if failed && replica == m.target {
		m.once.Do(func() {
			close(m.held)
			<-m.release
		})
	}
}

// TestLeaveIgnoresStragglingCallFailure pins that a call failing on a
// replica that has left by the time its failure path runs journals
// nothing for it. The failed call's inflight charge is already
// discharged, so Leave drains, evicts and journals the leave while the
// caller is parked; the caller's Down transition then lands on a departed
// member. The journal export must still replay.
func TestLeaveIgnoresStragglingCallFailure(t *testing.T) {
	signer := cryptoutil.NewSigner("anon-journal")
	counter := &journal.MemCounter{}
	jnl, err := journal.New(journal.Config{Name: "anon", Signer: signer, Counter: counter})
	if err != nil {
		t.Fatal(err)
	}
	mon := &holdFailedCall{target: replicaName(1), held: make(chan struct{}), release: make(chan struct{})}
	f := newFleet(t, 2, nil, func(c *Config) {
		c.Journal = jnl
		c.Monitor = mon
		c.Balancer = &scriptedBalancer{names: []string{replicaName(1), replicaName(2)}}
	})
	f.part.Isolate(replicaName(1))
	callErr := make(chan error, 1)
	go func() { callErr <- f.bump("k") }()
	<-mon.held
	if err := f.pool.Leave(replicaName(1)); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	close(mon.release)
	if err := <-callErr; err != nil {
		t.Fatalf("call did not fail over to the survivor: %v", err)
	}
	if err := jnl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	trusted, err := counter.Value()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Replay(jnl.Export(), signer.Public(), trusted); err != nil {
		t.Fatalf("journal replay after a straggling failure: %v", err)
	}
}

// TestHealthRoundCommitsWithItsHandshake pins that a health round commits
// each replica's verdict in the same r.mu section as the handshake it
// reflects. The round reconnects two down replicas in admission order;
// while it dials the second, that replica's pump runs a failed call's
// failure path against the first, which the round has just reconnected.
// The failure closes the first replica's session, so the round must not
// leave it Healthy: every healthy replica must hold an open session.
func TestHealthRoundCommitsWithItsHandshake(t *testing.T) {
	f := newFleet(t, 0, nil, func(c *Config) { c.HealthFanout = 1 })
	if err := f.pool.Admit(f.buildReplica(replicaName(1), false)); err != nil {
		t.Fatal(err)
	}
	second := f.buildReplica(replicaName(2), false)
	serve := second.Pump
	var armed atomic.Bool
	second.Pump = func() error {
		if armed.CompareAndSwap(true, false) {
			f.pool.failover(f.replica(replicaName(1)), errors.New("straggling call failed"))
		}
		return serve()
	}
	if err := f.pool.Admit(second); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		f.part.Isolate(replicaName(i))
	}
	f.pool.CheckNow()
	for i := 1; i <= 2; i++ {
		if got := f.info(replicaName(i)).State; got != StateDown {
			t.Fatalf("%s = %v while isolated, want down", replicaName(i), got)
		}
		f.part.Heal(replicaName(i))
	}
	armed.Store(true)
	f.pool.CheckNow()
	for i := 1; i <= 2; i++ {
		name := replicaName(i)
		if f.info(name).State == StateHealthy && !f.replica(name).stub.Connected() {
			t.Fatalf("%s healthy over a closed session", name)
		}
	}
	f.pool.CheckNow()
	f.mustBump("k")
}
