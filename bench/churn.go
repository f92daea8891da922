package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/netsim"
)

const (
	churnCallers  = 2
	churnReplicas = 2
	churnMeters   = 4096
	churnEvery    = 250 * time.Millisecond
	churnHealth   = 20 * time.Millisecond
	// retryPause is the client's pause before retrying a failed call: the
	// pool's own first outage backoff.
	retryPause = 200 * time.Microsecond
)

// fleetBooks is the fleet's monitor. A departed replica drops out of
// Pool.Replicas, so the stub and retry books of a fleet under churn are
// kept from the pool's monitor callbacks instead of replica snapshots.
type fleetBooks struct {
	issued, resolved, inflight, orphans atomic.Int64
	maxDepth                            atomic.Int64
	retries, failovers                  atomic.Int64
}

func (*fleetBooks) ReplicaState(string, string, bool, bool) {}
func (*fleetBooks) ReplicaInflight(string, string, int)     {}
func (*fleetBooks) ReplicaCall(string, string, bool)        {}
func (b *fleetBooks) ReplicaRetry(string, string)           { b.retries.Add(1) }
func (b *fleetBooks) ReplicaFailover(string, string)        { b.failovers.Add(1) }
func (b *fleetBooks) StubOrphan(string)                     { b.orphans.Add(1) }

func (b *fleetBooks) StubCall(_ string, depth int) {
	b.issued.Add(1)
	for {
		m := b.maxDepth.Load()
		if int64(depth) <= m || b.maxDepth.CompareAndSwap(m, int64(depth)) {
			return
		}
	}
}

func (b *fleetBooks) StubInflight(_ string, delta int) {
	b.inflight.Add(int64(delta))
	if delta < 0 {
		b.resolved.Add(1)
	}
}

var (
	_ cluster.Monitor     = (*fleetBooks)(nil)
	_ distributed.Monitor = (*fleetBooks)(nil)
)

// churn is fleet-churn: two callers send budgeted readings to a two-replica
// anonymizer fleet while an operator replaces a replica every 250 ms, so
// handshakes, quotes and epoch rekeys run beside the data path.
type churn struct {
	p       *probe
	net     *netsim.Network
	vendor  *cryptoutil.Signer
	tag     string
	pool    *cluster.Pool
	books   *fleetBooks
	live    []string      // member names, oldest first; operator-owned
	anons   []*anonymizer // every replica ever started
	next    int
	msgs    []core.Message
	keys    []string
	order   [churnCallers][]uint16
	cursor  [churnCallers]int
	acked   [churnCallers][]uint32
	handshk []time.Duration

	mu          sync.Mutex     // guards the records below
	failures    map[string]int // failed calls by error text
	transitions int
	transErrs   []error
	joins       []time.Duration // of the latest phase
	leaves      []time.Duration

	bad       atomic.Int64
	noHealthy atomic.Int64 // calls refused for want of a healthy replica
	lost      atomic.Int64 // other failed calls, which may have run
}

// failedCall books one failed call of an operation.
func (f *churn) failedCall(err error) {
	if errors.Is(err, cluster.ErrNoReplicas) {
		f.noHealthy.Add(1)
	} else {
		f.lost.Add(1)
	}
	f.mu.Lock()
	f.failures[err.Error()]++
	f.mu.Unlock()
}

func setupChurn(seed int64) (fixture, error) {
	f := &churn{
		p: &probe{}, net: netsim.New(), books: &fleetBooks{}, tag: fmt.Sprintf("churn-%d", seed),
		failures: map[string]int{},
	}
	f.vendor = cryptoutil.NewSigner(f.tag + "-vendor")
	var err error
	f.pool, err = cluster.New(cluster.Config{
		Fleet:       "anonymizer",
		RemoteName:  "anonymizer",
		VendorKey:   f.vendor.Public(),
		Measurement: cryptoutil.Hash(core.DomainImage(&anonymizer{})),
		JitterSeed:  f.tag,
		// HealthInterval stays 0: the operator runs the health rounds (see
		// operate), not the callers' Do.
		Monitor: f.books,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < churnReplicas; i++ {
		spec, err := f.start()
		if err != nil {
			return nil, err
		}
		begin := time.Now()
		if err := f.pool.Admit(spec); err != nil {
			return nil, err
		}
		f.handshk = append(f.handshk, time.Since(begin))
	}
	rng := rand.New(rand.NewSource(seed))
	f.msgs = make([]core.Message, churnMeters)
	f.keys = make([]string, churnMeters)
	for m := range f.msgs {
		f.msgs[m] = core.Message{Op: "reading", Data: meterData(m, byte(1+rng.Intn(9)))}
		f.keys[m] = fmt.Sprintf("meter-%04d", m)
	}
	for c := range f.order {
		f.order[c] = make([]uint16, 1<<14)
		for i := range f.order[c] {
			f.order[c][i] = uint16(rng.Intn(churnMeters))
		}
		f.acked[c] = make([]uint32, churnMeters)
	}
	return f, nil
}

// start boots a fresh replica machine and returns its admission spec.
func (f *churn) start() (cluster.ReplicaSpec, error) {
	name := fmt.Sprintf("anon-%d", f.next)
	f.next++
	a := newAnonymizer(f.p, churnMeters)
	m, err := newMachine(f.net, f.vendor, name, f.tag, a)
	if err != nil {
		return cluster.ReplicaSpec{}, err
	}
	f.anons = append(f.anons, a)
	f.live = append(f.live, name)
	return m.spec(f.net, f.tag, f.p), nil
}

func (f *churn) probe() *probe { return f.p }

// replace is one rolling-replace step: join a fresh replica, then retire
// the oldest.
func (f *churn) replace() {
	var joined, left time.Duration
	var errs []error
	spec, err := f.start()
	if err == nil {
		begin := time.Now()
		err = f.pool.Join(spec)
		joined = time.Since(begin)
	}
	if err != nil {
		errs = append(errs, fmt.Errorf("join: %w", err))
	}
	oldest := f.live[0]
	f.live = f.live[1:]
	begin := time.Now()
	if err := f.pool.Leave(oldest); err != nil {
		errs = append(errs, fmt.Errorf("leave %s: %w", oldest, err))
	}
	left = time.Since(begin)
	f.mu.Lock()
	f.transitions += 2
	f.transErrs = append(f.transErrs, errs...)
	f.joins = append(f.joins, joined)
	f.leaves = append(f.leaves, left)
	f.mu.Unlock()
}

// operate runs a health round every churnHealth and replaces a replica
// every churnEvery until stop closes. A health round piggybacked on a
// caller's Do could run while Join admits a replica, which the pool
// publishes as down before its handshake, and reconnect it at the same
// time on the same stub; on one goroutine the two never overlap.
func (f *churn) operate(stop <-chan struct{}) {
	health := time.NewTicker(churnHealth)
	defer health.Stop()
	replace := time.NewTicker(churnEvery)
	defer replace.Stop()
	for {
		select {
		case <-stop:
			return
		case <-health.C:
			f.pool.CheckNow()
		case <-replace.C:
			f.replace()
		}
	}
}

func (f *churn) drive(ph *phase) {
	f.mu.Lock()
	f.joins, f.leaves = nil, nil
	f.mu.Unlock()
	stop := make(chan struct{})
	var op sync.WaitGroup
	op.Add(1)
	go func() {
		defer op.Done()
		f.operate(stop)
	}()
	ph.run(churnCallers, func(c int, l *lane) {
		order := f.order[c]
		for {
			m := int(order[f.cursor[c]%len(order)])
			f.cursor[c]++
			op := l.begin(spanOp)
			start := time.Now()
			deadline := start.Add(budget)
			reply, err := f.pool.DoDeadline(f.keys[m], f.msgs[m], deadline)
			// Like a meter gateway, the client retries a failed call within
			// the reading's budget, so the operation fails only when the
			// budget runs out. Pausing keeps the count of refusals from
			// depending on how fast a refusal returns. Every failed call is
			// booked, and an operation served only on a retry does not count
			// toward first_try_rate.
			retried := false
			for err != nil {
				retried = true
				f.failedCall(err)
				if !time.Now().Add(retryPause).Before(deadline) {
					break
				}
				time.Sleep(retryPause)
				reply, err = f.pool.DoDeadline(f.keys[m], f.msgs[m], deadline)
			}
			if err == nil && reply.Op != "ack" {
				f.bad.Add(1)
				err = errMismatch
			}
			if err == nil {
				f.acked[c][m]++
			}
			end := time.Now()
			op.end()
			l.observe(start, end, err, len(f.msgs[m].Data))
			if err == nil && retried {
				l.retried++
			}
			if l.done(end) {
				return
			}
		}
	})
	close(stop)
	op.Wait()
}

func (f *churn) counters() counters {
	b := f.books
	c := counters{
		"stub.issued":        float64(b.issued.Load()),
		"stub.resolved":      float64(b.resolved.Load()),
		"stub.inflight":      float64(b.inflight.Load()),
		"stub.orphans":       float64(b.orphans.Load()),
		"stub.max_inflight":  float64(b.maxDepth.Load()),
		"cluster.retries":    float64(b.retries.Load()),
		"cluster.failovers":  float64(b.failovers.Load()),
		"cluster.no_healthy": float64(f.noHealthy.Load()),
		"cluster.lost_calls": float64(f.lost.Load()),
	}
	probeCounters(c, f.p)
	var clients, servers []string
	for i := 0; i < f.next; i++ {
		servers = append(servers, fmt.Sprintf("anon-%d", i))
		clients = append(clients, "lb-"+servers[i])
	}
	netCounters(c, f.net, clients, servers)
	return c
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e3
	}
	return out
}

func (f *churn) layers(ph *phase, d counters) map[string]float64 {
	f.mu.Lock()
	joins, leaves := ms(f.joins), ms(f.leaves)
	f.mu.Unlock()
	var processed, acked float64
	for _, a := range f.anons {
		processed += float64(a.total)
	}
	for c := range f.acked {
		for _, n := range f.acked[c] {
			acked += float64(n)
		}
	}
	return map[string]float64{
		"securechan.handshake_ms":       median(ms(f.handshk)),
		"cluster.join_ms":               median(joins),
		"cluster.leave_ms":              median(leaves),
		"cluster.transition_p50_ms":     median(append(joins, leaves...)),
		"cluster.no_healthy_per_op":     d["cluster.no_healthy"] / math.Max(1, float64(ph.attempted())),
		"cluster.lost_calls":            d["cluster.lost_calls"],
		"cluster.processed_minus_acked": processed - acked,
	}
}

func (f *churn) checks() []check {
	f.mu.Lock()
	transitions, errs := f.transitions, f.transErrs
	var failed []string
	for text, n := range f.failures {
		failed = append(failed, fmt.Sprintf("%dx %q", n, text))
	}
	f.mu.Unlock()
	sort.Strings(failed)
	var lost, processed, acked int64
	for m := 0; m < churnMeters; m++ {
		var want, got int64
		for c := range f.acked {
			want += int64(f.acked[c][m])
		}
		for _, a := range f.anons {
			got += int64(a.counts[m])
		}
		acked += want
		processed += got
		if got < want {
			lost += want - got
		}
	}
	epoch := f.pool.Epoch()
	return []check{
		countCheck("ack_replies", f.bad.Load(), "replies were not acks"),
		{
			Name:   "churn_epochs",
			OK:     epoch == uint64(transitions) && len(errs) == 0,
			Detail: fmt.Sprintf("epoch %d after %d transitions, %d failed: %v", epoch, transitions, len(errs), errors.Join(errs...)),
		},
		{
			Name: "churn_processed",
			OK:   lost == 0 && processed >= acked && acked > 0,
			Detail: fmt.Sprintf("%d processed on live and departed replicas, %d acked, %d acked readings missing; failed calls: %v",
				processed, acked, lost, failed),
		},
	}
}
