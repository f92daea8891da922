package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/journal"
	"lateral/internal/shard"
)

// E23 scales the Fig. 3 anonymizer past what one attested fleet can
// carry: a provider backend sharded into many pools behind a
// consistent-hash shard map keyed by tenant/meter ID. Three mechanisms
// make a million meters tractable without weakening the trust story:
// batched ingestion (one sealed datagram carries a whole frame of
// readings through a single AEAD pass), per-tenant admission quotas
// (layered above each pool's replica admission limit, so one tenant
// cannot starve the rest of the fabric), and epoch-versioned rebalancing
// (a shard joining mid-stream moves ~K/N of the keyspace and nothing
// else, journaled so an auditor replays the placement history).

const (
	e23Shards  = 16
	e23Tenants = 64
	e23Batch   = 256
)

// e23Fabric is a sharded fleet: one single-replica anonymizer demo per
// shard cell, all routed through a shard.Router, with the router's
// placement transitions journaled for the auditor.
type e23Fabric struct {
	Router  *shard.Router
	Demos   map[string]*FleetDemo
	Jnl     *journal.Journal
	Signer  *cryptoutil.Signer
	Counter *journal.MemCounter
}

func e23Cell(i int) string { return fmt.Sprintf("cell-%02d", i) }

// buildE23Fabric stands up a fabric of n shard cells with its placement
// transitions journaled. quota bounds one tenant's in-flight readings
// across the whole fabric.
func buildE23Fabric(n, quota int) (*e23Fabric, error) {
	f := &e23Fabric{
		Demos:   make(map[string]*FleetDemo, n),
		Signer:  cryptoutil.NewSigner("e23-auditor"),
		Counter: &journal.MemCounter{},
	}
	jnl, err := journal.New(journal.Config{
		Name:            "e23",
		Signer:          f.Signer,
		Counter:         f.Counter,
		CheckpointEvery: -1,
	})
	if err != nil {
		return nil, err
	}
	f.Jnl = jnl
	f.Router = shard.NewRouter(shard.Config{Fleet: "e23", TenantQuota: quota, Journal: jnl})
	for i := 0; i < n; i++ {
		if err := f.Grow(e23Cell(i)); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Grow builds one more single-replica anonymizer pool and joins it to
// the shard map (~K/N of the keyspace moves onto it).
func (f *e23Fabric) Grow(cell string) error {
	d, err := BuildFleetDemo(1, 0, nil)
	if err != nil {
		return err
	}
	if err := f.Router.Join(cell, d.Pool); err != nil {
		return err
	}
	f.Demos[cell] = d
	return nil
}

// e23Meter names one simulated client: tenant t's meter m. The tenant
// index is recoverable from the name, which is what makes per-tenant
// loss accounting on the server side possible.
func e23Meter(t, m int) string { return fmt.Sprintf("t%02d/m%06d", t, m) }

// e23Run is the outcome of one driven load: totals, the wall-clock
// latency of every batch frame, and per-tenant acceptance.
type e23Run struct {
	Accepted int
	Refused  int
	Frames   int
	Elapsed  time.Duration
	lats     []time.Duration
}

// P99 returns the 99th-percentile frame latency.
func (r *e23Run) P99() time.Duration {
	if len(r.lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)*99/100]
}

// e23Drive pushes one reading from every one of tenants×metersPerTenant
// simulated clients through the router in batch-sized frames. All
// readings in a frame belong to one tenant and share the frame's routing
// key, so the whole frame crosses the secure channel in a single AEAD
// pass and lands on one shard. chaos runs before each frame — the hook
// the rebalance-mid-stream scenario uses.
func e23Drive(rt *shard.Router, tenants, metersPerTenant, batch int, chaos func(frame int) error) (*e23Run, error) {
	run := &e23Run{}
	readings := make([]distributed.Reading, batch)
	var results []distributed.BatchResult
	start := time.Now()
	frame := 0
	for t := 0; t < tenants; t++ {
		tenant := fmt.Sprintf("t%02d", t)
		for m := 0; m < metersPerTenant; m += batch {
			if err := chaos(frame); err != nil {
				return nil, fmt.Errorf("e23 chaos at frame %d: %w", frame, err)
			}
			n := batch
			if m+n > metersPerTenant {
				n = metersPerTenant - m
			}
			for i := 0; i < n; i++ {
				kwh := byte(1 + (m+i)%9)
				readings[i] = distributed.Reading{
					Op:   "reading",
					Data: append([]byte(e23Meter(t, m+i)), '=', kwh),
				}
			}
			key := fmt.Sprintf("%s/b%04d", tenant, m/batch)
			t0 := time.Now()
			res, err := rt.DoBatch(tenant, key, readings[:n], results[:0], time.Time{})
			run.lats = append(run.lats, time.Since(t0))
			if err != nil {
				return nil, fmt.Errorf("e23 frame %d (%s): %w", frame, key, err)
			}
			results = res
			for _, r := range res {
				if r.Err != nil {
					run.Refused++
				} else {
					run.Accepted++
				}
			}
			run.Frames++
			frame++
		}
	}
	run.Elapsed = time.Since(start)
	return run, nil
}

// lostPerTenant audits acceptance server-side: it scans every shard
// cell's anonymizer state, attributes each processed reading back to its
// tenant by meter name, and returns per-tenant shortfalls against the
// expected metersPerTenant. Duplicates across a rebalance would surface
// as negative loss and are reported as corruption.
func (f *e23Fabric) lostPerTenant(tenants, metersPerTenant int) (map[string]int, error) {
	acc := make([]int, tenants)
	for _, d := range f.Demos {
		for _, a := range d.anons {
			for meter, n := range a.perMeter {
				if len(meter) < 3 || meter[0] != 't' {
					return nil, fmt.Errorf("e23: foreign meter %q on a shard cell", meter)
				}
				t, err := strconv.Atoi(meter[1:3])
				if err != nil || t < 0 || t >= tenants {
					return nil, fmt.Errorf("e23: unattributable meter %q", meter)
				}
				acc[t] += n
			}
		}
	}
	lost := make(map[string]int)
	for t := 0; t < tenants; t++ {
		if d := metersPerTenant - acc[t]; d != 0 {
			if d < 0 {
				return nil, fmt.Errorf("e23: tenant t%02d over-counted by %d readings", t, -d)
			}
			lost[fmt.Sprintf("t%02d", t)] = d
		}
	}
	return lost, nil
}

// E23Sharding drives ≥1M simulated clients (64 tenants × 16384 meters)
// through a 16-shard fabric in 256-reading sealed frames, grows the
// fabric to 17 shards mid-stream, and then audits the run three ways:
// per-tenant loss accounting against the shards' own state, the AEAD
// economics of batching, and a journal replay of the placement history.
func E23Sharding() (Table, error) {
	t := Table{
		ID:     "E23",
		Title:  "million-client sharded fleet",
		Anchor: "§III-D anonymizer at population scale; Fig. 3 provider backend",
		Header: []string{"scenario", "epoch", "detail"},
	}
	const metersPerTenant = 16384
	total := e23Tenants * metersPerTenant // 1,048,576 simulated clients
	totalFrames := total / e23Batch

	// Quota: well above one frame (sequential dispatch keeps a tenant's
	// in-flight at one frame), far below the abusive burst tried later.
	f, err := buildE23Fabric(e23Shards, 2*e23Batch)
	if err != nil {
		return t, err
	}

	// The rebalance lands halfway through the stream: a 17th cell joins
	// a live fabric, ~1/17th of the keyspace moves onto it, and the
	// remaining half-million readings route against the new epoch.
	grown := false
	run, err := e23Drive(f.Router, e23Tenants, metersPerTenant, e23Batch, func(frame int) error {
		if frame == totalFrames/2 && !grown {
			grown = true
			return f.Grow(e23Cell(e23Shards))
		}
		return nil
	})
	if err != nil {
		return t, err
	}
	epoch := f.Router.Epoch()

	// Per-tenant loss accounting: the server-side audit must find every
	// tenant whole — no reading lost, none double-counted.
	lost, err := f.lostPerTenant(e23Tenants, metersPerTenant)
	if err != nil {
		return t, err
	}
	ingestOK := run.Accepted == total && run.Refused == 0 && len(lost) == 0
	ingest := fmt.Sprintf("%d clients, %d tenants, %d shards", total, e23Tenants, len(f.Demos))
	t.AddRow(ingest, epoch,
		fmt.Sprintf("%d/%d accepted, %d refused, %d tenants with loss", run.Accepted, total, run.Refused, len(lost)))
	t.Check(ingest, ingestOK, "want every reading accepted, none refused, no tenant with loss")

	// The mid-stream rebalance: one extra epoch past the 16 seed joins,
	// and the joiner carries real traffic afterwards — its slice of the
	// keyspace, not a token trickle and not everything.
	var joinerRouted, totalRouted int64
	for _, s := range f.Router.Shards() {
		totalRouted += s.Routed
		if s.Name == e23Cell(e23Shards) {
			joinerRouted = s.Routed
		}
	}
	rebalanceOK := grown && epoch == uint64(e23Shards+1) &&
		joinerRouted > 0 && joinerRouted < totalRouted/4 &&
		totalRouted == int64(total)
	t.AddRow("rebalance mid-stream (~K/N keys move)", epoch,
		fmt.Sprintf("%s joined at epoch %d, took %d of %d readings", e23Cell(e23Shards), epoch, joinerRouted, totalRouted))
	t.Check("rebalance mid-stream (~K/N keys move)", rebalanceOK,
		fmt.Sprintf("want epoch %d, the joiner taking more than none and under a quarter of all %d readings", e23Shards+1, total))

	// Batch economics: one sealed frame per e23Batch readings means one
	// AEAD pass per hop where per-reading dispatch would take e23Batch.
	factor := run.Accepted / run.Frames
	t.AddRow("batched ingestion amortizes AEAD", epoch,
		fmt.Sprintf("%d sealed frames for %d readings (%dx fewer AEAD passes)", run.Frames, run.Accepted, factor))
	t.Check("batched ingestion amortizes AEAD", factor == e23Batch && run.Frames == totalFrames,
		fmt.Sprintf("want %d frames, %dx fewer AEAD passes", totalFrames, e23Batch))

	// Tenant quota: an abusive burst is refused at the router with a
	// typed overload before any shard sees it — no retry burned, no
	// failover provoked, nothing processed.
	before := 0
	for _, d := range f.Demos {
		before += d.ProcessedTotal()
	}
	burst := make([]distributed.Reading, 4*e23Batch)
	for i := range burst {
		burst[i] = distributed.Reading{Op: "reading", Data: append([]byte(e23Meter(0, i)), '=', 1)}
	}
	_, qerr := f.Router.DoBatch("t00", "t00/burst", burst, nil, time.Time{})
	after := 0
	for _, d := range f.Demos {
		after += d.ProcessedTotal()
	}
	denied := int64(0)
	for _, ts := range f.Router.Tenants() {
		denied += ts.Denied
	}
	quotaOK := errors.Is(qerr, core.ErrOverloaded) && after == before && denied == 1
	t.AddRow("tenant quota refuses burst untouched", epoch,
		fmt.Sprintf("%d-reading burst vs quota %d: %s, denials %d, %d readings reached a shard",
			len(burst), 2*e23Batch, outcomeCell(qerr), denied, after-before))
	t.Check("tenant quota refuses burst untouched", quotaOK,
		"want a typed overload, nothing processed, one denial")

	// Auditor replay: the exported journal rederives the full placement
	// history — 16 seed joins plus the mid-stream join, epochs strictly
	// increasing, final membership exactly the live fabric.
	if err := f.Jnl.Checkpoint(); err != nil {
		return t, err
	}
	trusted, _ := f.Counter.Value()
	audit, err := journal.Replay(f.Jnl.Export(), f.Signer.Public(), trusted)
	if err != nil {
		return t, fmt.Errorf("e23 placement replay: %w", err)
	}
	auditOK := len(audit.Shards) == e23Shards+1
	if auditOK {
		final := audit.Shards[len(audit.Shards)-1]
		auditOK = final.Action == "join" && final.Shard == e23Cell(e23Shards) &&
			final.Epoch == epoch && len(final.Members) == e23Shards+1
	}
	t.AddRow("placement history replays from export", epoch,
		fmt.Sprintf("%d shard-assign records, final membership %d cells", len(audit.Shards), len(f.Router.Members())))
	t.Check("placement history replays from export", auditOK,
		fmt.Sprintf("want %d shard-assign records ending in %s's join at the live epoch", e23Shards+1, e23Cell(e23Shards)))

	t.Notes = append(t.Notes,
		fmt.Sprintf("%d tenants × %d meters = %d simulated clients, one reading each, %d-reading sealed frames keyed by tenant/block", e23Tenants, metersPerTenant, total, e23Batch),
		fmt.Sprintf("wall-clock: %.1fs end to end, p99 frame latency %.2fms (machine-dependent)", run.Elapsed.Seconds(), float64(run.P99().Microseconds())/1e3),
		"loss accounting is server-side: each shard cell's per-meter counts are attributed back to tenants, so a reading dropped or duplicated during the rebalance cannot hide",
	)
	return t, nil
}
