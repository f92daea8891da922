package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/netsim"
	"lateral/internal/shard"
)

const (
	ingestTenants    = 64
	ingestMeters     = 4096 // per tenant
	ingestBurst      = 64   // consecutive meters per burst
	ingestGenerators = 2
	ingestCells      = 2
	ingestQuota      = 1024 // readings in flight per tenant
	ingestSchedule   = 1 << 16
)

// ingest is ingest-batched: a head-end gateway replays a meter backlog in
// bursts through one adaptive shard.Batcher per tenant, the shard router
// and its tenant quota, into two single-replica anonymizer cells.
type ingest struct {
	p     *probe
	net   *netsim.Network
	rt    *shard.Router
	pools []*cluster.Pool
	anons []*anonymizer
	// A tenant's burst holds its lock from first Add to final Flush, so
	// every frame's results return to the generator that queued them.
	locks     [ingestTenants]sync.Mutex
	batchers  []*shard.Batcher
	readings  []distributed.Reading // by meter index
	keys      [][]string            // routing key per tenant and block
	schedule  []uint16              // tenant<<8 | block
	cursor    [ingestGenerators]int
	acked     [ingestGenerators][]uint32
	flush     hist // flushing Add/Flush calls of the latest phase
	bad       atomic.Int64
	handshake time.Duration
}

func setupIngest(seed int64) (fixture, error) {
	tag := fmt.Sprintf("ingest-%d", seed)
	f := &ingest{p: &probe{}, net: netsim.New()}
	vendor := cryptoutil.NewSigner(tag + "-vendor")
	meters := ingestTenants * ingestMeters
	f.rt = shard.NewRouter(shard.Config{Fleet: "meters", TenantQuota: ingestQuota})
	var handshakes time.Duration
	for i := 0; i < ingestCells; i++ {
		name := fmt.Sprintf("cell-%d", i)
		a := newAnonymizer(f.p, meters)
		m, err := newMachine(f.net, vendor, name, tag, a)
		if err != nil {
			return nil, err
		}
		pool, err := cluster.New(cluster.Config{
			Fleet:       name,
			RemoteName:  "anonymizer",
			VendorKey:   vendor.Public(),
			Measurement: cryptoutil.Hash(core.DomainImage(a)),
			JitterSeed:  tag + name,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := pool.Admit(m.spec(f.net, tag, f.p)); err != nil {
			return nil, err
		}
		handshakes += time.Since(start)
		if err := f.rt.Join(name, timedBackend{Pool: pool, p: f.p}); err != nil {
			return nil, err
		}
		f.pools = append(f.pools, pool)
		f.anons = append(f.anons, a)
	}
	f.handshake = handshakes / ingestCells

	rng := rand.New(rand.NewSource(seed))
	f.readings = make([]distributed.Reading, meters)
	for m := range f.readings {
		f.readings[m] = distributed.Reading{Op: "reading", Data: meterData(m, byte(1+rng.Intn(9)))}
	}
	blocks := ingestMeters / ingestBurst
	f.keys = make([][]string, ingestTenants)
	for t := range f.keys {
		f.batchers = append(f.batchers, shard.NewBatcher(f.rt, fmt.Sprintf("t%02d", t), 0, nil))
		f.keys[t] = make([]string, blocks)
		for b := range f.keys[t] {
			f.keys[t][b] = fmt.Sprintf("t%02d/b%02d", t, b)
		}
	}
	// Tenant popularity is Zipf(1.2): a few tenants own most of the
	// backlog, as on a real head-end.
	zipf := rand.NewZipf(rng, 1.2, 1, ingestTenants-1)
	f.schedule = make([]uint16, ingestSchedule)
	for i := range f.schedule {
		f.schedule[i] = uint16(zipf.Uint64())<<8 | uint16(rng.Intn(blocks))
	}
	for g := range f.acked {
		f.acked[g] = make([]uint32, meters)
		f.cursor[g] = g * ingestSchedule / ingestGenerators
	}
	return f, nil
}

func (f *ingest) probe() *probe { return f.p }

// generator is one gateway goroutine's state for a phase.
type generator struct {
	f     *ingest
	g     int
	l     *lane
	flush hist
	added [ingestBurst]time.Time // Add time of each reading not yet acked
	metas [ingestBurst]int       // meter index of each
	head  int                    // oldest reading not yet acked
}

// complete books one returned frame: the oldest len(res) queued readings.
func (gen *generator) complete(res []distributed.BatchResult, err error, end time.Time, queued int) {
	if err != nil {
		// A failed frame consumed readings the results do not name; fail
		// everything still queued in this burst.
		for ; gen.head < queued; gen.head++ {
			gen.l.observe(gen.added[gen.head], end, err, 0)
		}
		return
	}
	for _, r := range res {
		if gen.head >= queued {
			gen.f.bad.Add(1)
			return
		}
		rerr := r.Err
		if rerr == nil && r.Msg.Op != "ack" {
			gen.f.bad.Add(1)
			rerr = errMismatch
		}
		if rerr == nil {
			gen.f.acked[gen.g][gen.metas[gen.head]]++
		}
		gen.l.observe(gen.added[gen.head], end, rerr, len(gen.f.readings[gen.metas[gen.head]].Data))
		gen.head++
	}
}

func (f *ingest) burst(gen *generator, t, block int) {
	b := f.batchers[t]
	key := f.keys[t][block]
	f.locks[t].Lock()
	defer f.locks[t].Unlock()
	gen.head = 0
	base := t*ingestMeters + block*ingestBurst
	for i := 0; i < ingestBurst; i++ {
		m := base + i
		sp := gen.l.begin(spanFlush)
		start := time.Now()
		gen.added[i], gen.metas[i] = start, m
		res, err := b.Add(key, f.readings[m], time.Time{})
		if res != nil || err != nil {
			end := time.Now()
			sp.end()
			gen.flush.add(int64(end.Sub(start)))
			gen.complete(res, err, end, i+1)
		}
	}
	if gen.head < ingestBurst {
		sp := gen.l.begin(spanFlush)
		start := time.Now()
		res, err := b.Flush(time.Time{})
		end := time.Now()
		sp.end()
		gen.flush.add(int64(end.Sub(start)))
		gen.complete(res, err, end, ingestBurst)
		if gen.head < ingestBurst {
			f.bad.Add(int64(ingestBurst - gen.head))
		}
	}
}

func (f *ingest) drive(ph *phase) {
	var mu sync.Mutex
	var flush hist
	ph.run(ingestGenerators, func(g int, l *lane) {
		gen := &generator{f: f, g: g, l: l}
		for {
			s := f.schedule[f.cursor[g]%ingestSchedule]
			f.cursor[g]++
			f.burst(gen, int(s>>8), int(s&0xff))
			if l.done(time.Now()) {
				break
			}
		}
		mu.Lock()
		flush.merge(&gen.flush)
		mu.Unlock()
	})
	f.flush = flush
}

func (f *ingest) counters() counters {
	c := counters{}
	for _, pool := range f.pools {
		for _, ri := range pool.Replicas() {
			replicaCounters(c, ri)
		}
	}
	for _, b := range f.batchers {
		c["shard.frames"] += float64(b.Frames())
	}
	for _, s := range f.rt.Shards() {
		c["shard.routed."+s.Name] = float64(s.Routed)
	}
	for _, ts := range f.rt.Tenants() {
		c["shard.quota_denies"] += float64(ts.Denied)
	}
	probeCounters(c, f.p)
	var clients, servers []string
	for i := 0; i < ingestCells; i++ {
		clients = append(clients, fmt.Sprintf("lb-cell-%d", i))
		servers = append(servers, fmt.Sprintf("cell-%d", i))
	}
	netCounters(c, f.net, clients, servers)
	return c
}

func (f *ingest) layers(ph *phase, d counters) map[string]float64 {
	out := map[string]float64{
		"securechan.handshake_ms": f.handshake.Seconds() * 1e3,
		"shard.quota_denies":      d["shard.quota_denies"],
	}
	if d["shard.frames"] > 0 {
		out["shard.readings_per_frame"] = float64(ph.attempted()) / d["shard.frames"]
	}
	var max, sum float64
	for i := 0; i < ingestCells; i++ {
		r := d[fmt.Sprintf("shard.routed.cell-%d", i)]
		sum += r
		if r > max {
			max = r
		}
	}
	if sum > 0 {
		out["shard.route_skew"] = max / (sum / ingestCells)
	}
	if v, ok := f.flush.quantile(0.50, 0); ok {
		out["shard.flush_us_p50"] = v / 1e3
	}
	if v, ok := f.flush.quantile(0.99, 0); ok {
		out["shard.flush_us_p99"] = v / 1e3
	}
	return out
}

func (f *ingest) checks() []check {
	var lost, extra, acked int64
	for m := range f.readings {
		var want int64
		for g := range f.acked {
			want += int64(f.acked[g][m])
		}
		var got int64
		for _, a := range f.anons {
			got += int64(a.counts[m])
		}
		acked += want
		if got < want {
			lost += want - got
		} else {
			extra += got - want
		}
	}
	return []check{
		countCheck("ack_replies", f.bad.Load(), "readings without a well-formed ack"),
		{
			Name:   "ingest_counts",
			OK:     lost == 0 && extra == 0 && acked > 0,
			Detail: fmt.Sprintf("%d acked readings: %d lost, %d counted twice or unacked", acked, lost, extra),
		},
	}
}
