// lateralctl inspects the trusted-component ecosystem: substrate property
// matrices, manifest analysis, component graphs, and TCB reports.
//
//	go run ./cmd/lateralctl substrates        # §II property matrix
//	go run ./cmd/lateralctl analyze           # static analysis of the mail manifests
//	go run ./cmd/lateralctl dot [vertical]    # Graphviz graph of a mail manifest
//	go run ./cmd/lateralctl tcb               # per-component TCB report
//	go run ./cmd/lateralctl prune             # POLA pruning of the broad mail manifest
//	go run ./cmd/lateralctl partition         # auto-partition an annotated monolith
//	go run ./cmd/lateralctl trace [mail|smartmeter|distributed|cluster] [json|flame]
//	                                          # causal span tree of a scenario workload
//	go run ./cmd/lateralctl metrics [summary] # Prometheus text (or table) for all scenarios,
//	                                          # including per-channel timeout/cancel/overload counters
//	go run ./cmd/lateralctl cluster [-deadline=50ms]
//	                                          # attested replica fleet demo (crash + tampered build),
//	                                          # then the same pattern sharded: a consistent-hash fabric
//	                                          # with batched frames and per-tenant quotas;
//	                                          # -deadline bounds every reading by a call budget
//	go run ./cmd/lateralctl events            # fleet black box: hash-chained journal of a chaos run
//	go run ./cmd/lateralctl audit             # auditor replay of that journal: re-derive trust state,
//	                                          # then prove tamper/rollback detection (exit 1 on failure)
//	go run ./cmd/lateralctl policy            # chain-aware policy demo: mosaic exfiltration denied,
//	                                          # approval grants decaying on TTL, denies journaled
package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/experiments"
	"lateral/internal/journal"
	"lateral/internal/kernel"
	"lateral/internal/mail"
	"lateral/internal/manifest"
	"lateral/internal/meter"
	"lateral/internal/metrics"
	"lateral/internal/netsim"
	"lateral/internal/partition"
	"lateral/internal/policy"
	"lateral/internal/shard"
	"lateral/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: lateralctl substrates|analyze|dot|tcb|prune|partition|trace|metrics|cluster|events|audit|policy")
	}
	switch args[0] {
	case "substrates":
		table, err := experiments.E2Portability()
		if err != nil {
			return err
		}
		fmt.Println(table)
		return nil
	case "analyze":
		for _, m := range []struct {
			name string
			m    *manifest.Manifest
		}{
			{"horizontal (POLA)", mail.HorizontalManifest()},
			{"horizontal (broad mesh)", mail.BroadManifest()},
			{"vertical (colocated)", mail.VerticalManifest()},
		} {
			fmt.Printf("--- %s ---\n", m.name)
			findings := m.m.Analyze()
			if len(findings) == 0 {
				fmt.Println("  no findings")
			}
			for _, f := range findings {
				fmt.Println(" ", f)
			}
			fmt.Println()
		}
		return nil
	case "dot":
		m := mail.HorizontalManifest()
		if len(args) > 1 && args[1] == "vertical" {
			m = mail.VerticalManifest()
		}
		fmt.Print(m.DOT())
		return nil
	case "tcb":
		units := make(map[string]int, len(metrics.DefaultUnits))
		for k, v := range metrics.DefaultUnits {
			units[k] = v
		}
		units["abook"] = metrics.DefaultUnits["addressbook"]
		sys, _, err := mail.Build(kernel.New(kernel.Config{}), mail.HorizontalManifest())
		if err != nil {
			return err
		}
		reports, err := metrics.TCBReport(sys, units)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-12s %10s %8s %10s %8s\n", "component", "domain", "substrate", "own", "colocated", "total")
		for _, r := range reports {
			fmt.Printf("%-12s %-12s %10d %8d %10d %8d\n",
				r.Component, r.Domain, r.SubstrateUnits, r.OwnUnits, r.ColocatedUnits, r.Total())
		}
		s := metrics.Summarize(reports)
		fmt.Printf("\n%d components, TCB min/mean/max = %d / %.0f / %d kLoC units\n",
			s.Components, s.MinTCB, s.MeanTCB, s.MaxTCB)
		return nil
	case "prune":
		// Deploy the sloppy full-mesh manifest, run the representative
		// workload, then let the tool report every grant the workload
		// never needed — the §IV road from "it works" to POLA.
		m := mail.BroadManifest()
		sys, _, err := mail.Build(kernel.New(kernel.Config{}), m)
		if err != nil {
			return err
		}
		if _, err := mail.FetchMail(sys); err != nil {
			return err
		}
		if _, err := mail.Compose(sys, "draft"); err != nil {
			return err
		}
		sugg := m.SuggestPruning(sys.ChannelUsage())
		fmt.Printf("broad manifest: %d grants, workload used %d, pruning %d:\n",
			len(m.Channels), len(m.Channels)-len(sugg), len(sugg))
		for _, s := range sugg {
			fmt.Println(" ", s)
		}
		pruned := m.Pruned(sugg)
		fmt.Printf("\npruned manifest has %d channels (POLA manifest has %d)\n",
			len(pruned.Channels), len(mail.HorizontalManifest().Channels))
		return nil
	case "partition":
		prog := &partition.Program{Functions: []partition.Function{
			{Name: "ui", Calls: []string{"fetch", "suggest", "lookup"}},
			{Name: "fetch", Exposed: true, Calls: []string{"tls_recv", "parse"}},
			{Name: "parse", Exposed: true, Calls: []string{"render_html"}},
			{Name: "render_html", Exposed: true, Calls: []string{"archive_save"}},
			{Name: "tls_recv", Assets: []string{"tls-key"}},
			{Name: "tls_send", Assets: []string{"tls-key", "password"}},
			{Name: "login", Assets: []string{"password"}, Calls: []string{"tls_send"}},
			{Name: "suggest", Assets: []string{"dictionary"}},
			{Name: "lookup", Assets: []string{"contacts"}},
			{Name: "archive_save", Assets: []string{"archive"}},
			{Name: "archive_load", Assets: []string{"archive"}},
		}}
		res, err := partition.Partition(prog)
		if err != nil {
			return err
		}
		st := res.Summarize()
		fmt.Printf("%d functions → %d domains, %d channels (%d exposed functions evicted):\n\n",
			st.Functions, st.Domains, st.Channels, st.Exposed)
		byDomain := map[string][]string{}
		for fn, dom := range res.DomainOf {
			byDomain[dom] = append(byDomain[dom], fn)
		}
		doms := make([]string, 0, len(byDomain))
		for d := range byDomain {
			doms = append(doms, d)
		}
		sort.Strings(doms)
		for _, d := range doms {
			sort.Strings(byDomain[d])
			fmt.Printf("  domain %-14s %v  assets=%v\n", d, byDomain[d], res.Manifest.AssetsInDomain(byDomain[d][0]))
		}
		fmt.Println("\nderived channels:")
		for _, ch := range res.Manifest.Channels {
			fmt.Printf("  %s → %s (badge %d)\n", ch.From, ch.To, ch.Badge)
		}
		return nil
	case "trace":
		scenario := "mail"
		format := "tree"
		for _, a := range args[1:] {
			switch a {
			case "mail", "smartmeter", "distributed", "cluster":
				scenario = a
			case "json", "flame", "tree":
				format = a
			default:
				return fmt.Errorf("trace: unknown argument %q", a)
			}
		}
		rec := telemetry.NewRecorder(0)
		if err := runScenario(scenario, rec, nil); err != nil {
			return err
		}
		roots := rec.Trees()
		switch format {
		case "json":
			return telemetry.WriteJSON(os.Stdout, roots)
		case "flame":
			telemetry.WriteFlame(os.Stdout, roots)
		default:
			telemetry.WriteTree(os.Stdout, roots)
		}
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d spans dropped (recorder full)\n", n)
		}
		return nil
	case "metrics":
		met := telemetry.NewMetrics()
		for _, sc := range []string{"mail", "smartmeter", "distributed", "cluster"} {
			if err := runScenario(sc, met, met); err != nil {
				return err
			}
		}
		if len(args) > 1 && args[1] == "summary" {
			met.WriteSummary(os.Stdout)
			return nil
		}
		return met.WritePrometheus(os.Stdout)
	case "cluster":
		// The E19 deployment, narrated: an attested anonymizer fleet that
		// loses one replica mid-run (and gets it back after re-attestation)
		// while a tampered build never makes it past admission, then rolls
		// one member (join anon-6, drain and retire anon-1) through two
		// config epochs without dropping a reading. With -deadline, every
		// reading carries a call budget: sends attempted into the partition
		// window fail at the budget instead of hanging.
		var budget time.Duration
		for _, a := range args[1:] {
			v, ok := strings.CutPrefix(a, "-deadline=")
			if !ok {
				return fmt.Errorf("cluster: unknown argument %q", a)
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return fmt.Errorf("cluster: bad -deadline: %v", err)
			}
			budget = d
		}
		send := func(demo *experiments.FleetDemo, meter string, kwh int) error {
			if budget <= 0 {
				return demo.Send(meter, kwh)
			}
			return demo.SendDeadline(meter, kwh, time.Now().Add(budget))
		}
		met := telemetry.NewMetrics()
		demo, err := experiments.BuildFleetDemo(5, 5, met)
		if err != nil {
			return err
		}
		fmt.Printf("deployed 5 anonymizer replicas: %d healthy, %d quarantined (tampered build refused at admission: %v)\n",
			demo.Pool.Healthy(), demo.Pool.Quarantined(), demo.TamperedAdmitErr != nil)
		const meters, rounds = 120, 2
		accepted, i := 0, 0
		for r := 0; r < rounds; r++ {
			for m := 0; m < meters; m++ {
				switch i {
				case 80:
					fmt.Println("... crashing anon-2 mid-run (partition)")
					demo.Part.Isolate("anon-2")
				case 120:
					fmt.Println("... rolling replace begins: anon-6 attests and joins (fleet rekeys into a new epoch)")
					if err := demo.Join("anon-6"); err != nil {
						return fmt.Errorf("cluster: join anon-6: %v", err)
					}
				case 160:
					fmt.Println("... anon-2 restarts: health check re-attests and re-admits it")
					demo.Part.Heal("anon-2")
					demo.Pool.CheckNow()
				case 200:
					fmt.Println("... anon-1 drains and leaves: survivors rekey, its session keys die with the epoch")
					if err := demo.Pool.Leave("anon-1"); err != nil {
						return fmt.Errorf("cluster: leave anon-1: %v", err)
					}
				}
				if err := send(demo, fmt.Sprintf("meter-%03d", m), 1+m%9); err == nil {
					accepted++
				}
				i++
			}
		}
		fmt.Printf("%d/%d readings accepted; fleet processed %d (makespan %.2f ms of modeled enclave time)\n",
			accepted, meters*rounds, demo.ProcessedTotal(), float64(demo.MakespanNs())/1e6)
		fmt.Printf("fleet at config epoch %d after the rolling replace\n\n", demo.Pool.Epoch())
		fmt.Printf("%-8s %-12s %-16s %6s %7s %6s %8s %10s %8s %10s %10s\n",
			"replica", "state", "wire", "epoch", "calls", "errs", "retries", "failovers", "orphans",
			"avg-window", "aead-save")
		for _, ri := range demo.Pool.Replicas() {
			// The coalescing view per stub: how many sub-frames the average
			// shared record carried and the AEAD passes those records saved.
			avgWindow := 1.0
			if ri.Stub.CoalescedRecords > 0 {
				avgWindow = float64(ri.Stub.CoalescedSubs) / float64(ri.Stub.CoalescedRecords)
			}
			fmt.Printf("%-8s %-12s %-16s %6d %7d %6d %8d %10d %8d %10.2f %10d\n",
				ri.Name, ri.State, ri.Version, ri.Epoch, ri.Calls, ri.Errors, ri.Retries, ri.Failovers, ri.Stub.Orphans,
				avgWindow, ri.Stub.CoalescedSubs-ri.Stub.CoalescedRecords)
		}

		// The same fleet pattern at population scale: independent cells
		// behind a consistent-hash shard map, batched sealed frames, and a
		// per-tenant quota that refuses a burst before it reaches any cell.
		fmt.Println("\nsharded fabric (E23 pattern, 4 cells):")
		rt := shard.NewRouter(shard.Config{Fleet: "cells", TenantQuota: 8, Monitor: met})
		for c := 1; c <= 4; c++ {
			cd, err := experiments.BuildFleetDemo(1, 0, nil)
			if err != nil {
				return err
			}
			if err := rt.Join(fmt.Sprintf("cell-%d", c), cd.Pool); err != nil {
				return err
			}
		}
		for m := 0; m < 24; m++ {
			tenant := fmt.Sprintf("tenant-%d", m%3)
			key := fmt.Sprintf("%s/meter-%02d", tenant, m)
			if _, err := rt.Do(tenant, key, core.Message{
				Op: "reading", Data: append([]byte(key), '=', byte(1+m%9)),
			}); err != nil {
				return fmt.Errorf("cluster: shard route %s: %v", key, err)
			}
		}
		frame := make([]distributed.Reading, 6)
		for i := range frame {
			frame[i] = distributed.Reading{
				Op: "reading", Data: append([]byte(fmt.Sprintf("tenant-0/batch-%02d", i)), '=', 3),
			}
		}
		if _, err := rt.DoBatch("tenant-0", "tenant-0/frame", frame, nil, time.Time{}); err != nil {
			return fmt.Errorf("cluster: shard batch: %v", err)
		}
		burst := make([]distributed.Reading, 12)
		for i := range burst {
			burst[i] = distributed.Reading{
				Op: "reading", Data: append([]byte(fmt.Sprintf("tenant-1/burst-%02d", i)), '=', 1),
			}
		}
		if _, err := rt.DoBatch("tenant-1", "tenant-1/burst", burst, nil, time.Time{}); !errors.Is(err, core.ErrOverloaded) {
			return fmt.Errorf("cluster: 12-reading burst vs quota 8 not refused: %v", err)
		}
		fmt.Printf("shard epoch %d; 24 readings routed by key, one 6-reading sealed frame, one 12-reading burst refused at quota 8\n", rt.Epoch())
		fmt.Printf("%-8s %8s %9s %7s\n", "cell", "healthy", "replicas", "routed")
		for _, s := range rt.Shards() {
			fmt.Printf("%-8s %8d %9d %7d\n", s.Name, s.Healthy, s.Replicas, s.Routed)
		}
		fmt.Printf("%-10s %9s %7s\n", "tenant", "inflight", "denied")
		for _, ts := range rt.Tenants() {
			fmt.Printf("%-10s %9d %7d\n", ts.Tenant, ts.Inflight, ts.Denied)
		}
		fmt.Println()
		met.WriteSummary(os.Stdout)
		return nil
	case "events":
		run, err := journaledChaosRun()
		if err != nil {
			return err
		}
		entries := run.jnl.Entries()
		fmt.Printf("fleet black box after chaos run: %d entries, %d checkpoints, %d dropped\n\n",
			len(entries), len(run.jnl.Checkpoints()), run.jnl.Dropped())
		fmt.Printf("%4s  %-12s %-22s %-10s %s\n", "seq", "kind", "actor", "trace", "detail")
		for _, e := range entries {
			trace := "-"
			if e.Trace != 0 || e.Span != 0 {
				trace = fmt.Sprintf("%d/%d", e.Trace, e.Span)
			}
			fmt.Printf("%4d  %-12s %-22s %-10s %s\n", e.Seq, e.Kind, e.Actor, trace, e.Detail)
		}
		fmt.Println()
		for _, ck := range run.jnl.Checkpoints() {
			fmt.Printf("checkpoint seq=%d counter=%d head=%x\n", ck.Seq, ck.Counter, ck.Head[:8])
		}
		for _, dump := range run.flight.Dumps() {
			fmt.Printf("flight dump trigger=%s detail=%q spans=%d\n", dump.Trigger, dump.Detail, len(dump.Spans))
		}
		return nil
	case "audit":
		// The auditor's position: only the exported journal bytes, the
		// checkpoint public key, and the trusted monotonic counter. Replay
		// must re-derive the live fleet's exact trust state, and the
		// self-checks must prove the black box is tamper- and
		// rollback-evident. Any failure exits non-zero.
		run, err := journaledChaosRun()
		if err != nil {
			return err
		}
		export := run.jnl.Export()
		trusted, err := run.counter.Value()
		if err != nil {
			return err
		}
		fmt.Printf("audit inputs: %d-byte export, checkpoint key, trusted counter=%d\n", len(export), trusted)
		audit, err := journal.Replay(export, run.signer.Public(), trusted)
		if err != nil {
			return fmt.Errorf("audit: replay failed: %w", err)
		}
		fmt.Printf("replay: %d entries verified, chain head %x, %d checkpoints anchored\n",
			len(audit.Entries), audit.Head[:8], len(audit.Checkpoints))
		fmt.Println("re-derived trust state:")
		actors := make([]string, 0, len(audit.States))
		for a := range audit.States {
			actors = append(actors, a)
		}
		sort.Strings(actors)
		for _, a := range actors {
			fmt.Printf("  %-22s %s\n", a, audit.States[a])
		}
		if diff := audit.Diff(run.demo.Pool.States()); len(diff) > 0 {
			return fmt.Errorf("audit: journal diverges from live fleet: %v", diff)
		}
		fmt.Println("live fleet comparison: no divergence")

		// Self-check 1: every single-byte corruption of the export must be
		// detected.
		for i := range export {
			mut := append([]byte(nil), export...)
			mut[i] ^= 0x55
			if _, err := journal.Replay(mut, run.signer.Public(), trusted); err == nil {
				return fmt.Errorf("audit: byte flip at offset %d passed verification", i)
			}
		}
		fmt.Printf("self-check: all %d single-byte flips detected\n", len(export))
		// Self-check 2: a regressed trusted counter (rollback) must be
		// detected.
		if _, err := journal.Replay(export, run.signer.Public(), trusted-1); err == nil {
			return fmt.Errorf("audit: counter regression passed verification")
		}
		fmt.Println("self-check: counter regression detected")
		fmt.Println("AUDIT OK")
		return nil
	case "policy":
		return policyDemo()
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// policyDemoText is the demo's rule set in the policy DSL: reading the
// vault's identifying data taints the chain; tainted chains may never hit
// the network channel, and may hit the export channel only with a live
// (TTL-decaying) approval grant.
const policyDemoText = `# mosaic rule: ids taint the chain
taint vault ids meter-identities
deny no-exfil to-net * when meter-identities
approve ops-export to-export * when meter-identities
allow rest * *
`

// policyDemo narrates chain-aware enforcement on a live system: the same
// component reads identifying data and then tries to egress it, and the
// system — not the component — refuses. Approval-gated exports show grant
// reuse and TTL decay; every verdict lands in the journal and telemetry.
func policyDemo() error {
	met := telemetry.NewMetrics()
	signer := cryptoutil.NewSigner("lateralctl-policy")
	counter := &journal.MemCounter{}
	jnl, err := journal.New(journal.Config{
		Name: "meter", Signer: signer, Counter: counter, CheckpointEvery: 8, Monitor: met,
	})
	if err != nil {
		return err
	}
	rules, err := policy.Decode([]byte(policyDemoText))
	if err != nil {
		return err
	}
	fmt.Println("policy (canonical form):")
	for _, line := range strings.Split(strings.TrimRight(string(policy.Encode(rules)), "\n"), "\n") {
		fmt.Println("  " + line)
	}
	now := time.Now()
	approvals := 0
	eng, err := policy.New(policy.Config{
		Name:  "meter",
		Rules: rules,
		Approver: policy.ApproverFunc(func(rule string, req core.PolicyRequest) bool {
			approvals++
			fmt.Printf("... approver consulted: rule %s, %s wants %s op %q\n", rule, req.From, req.Channel, req.Op)
			return true
		}),
		GrantTTL: 45 * time.Second,
		Clock:    func() time.Time { return now },
		Recorder: jnl,
		Monitor:  met,
	})
	if err != nil {
		return err
	}
	sys := core.NewSystem(kernel.New(kernel.Config{}))
	sys.SetEventRecorder(jnl)
	sys.SetPolicy(eng)
	sys.SetTracer(met)
	for _, c := range []core.Component{&polApp{}, polVault{}, &polSink{}} {
		if err := sys.Launch(c, false, 1); err != nil {
			return err
		}
	}
	for _, ch := range []core.ChannelSpec{
		{Name: "vault", From: "app", To: "vault", Badge: 1},
		{Name: "to-net", From: "app", To: "net", Badge: 2},
		{Name: "to-export", From: "app", To: "net", Badge: 3},
	} {
		if err := sys.Grant(ch); err != nil {
			return err
		}
	}
	if err := sys.InitAll(); err != nil {
		return err
	}

	drive := func(op, label string) {
		_, err := sys.Deliver("app", core.Message{Op: op, Data: []byte(label)})
		switch {
		case err == nil:
			fmt.Printf("%-34s -> ok\n", label)
		case errors.Is(err, core.ErrPolicy):
			fmt.Printf("%-34s -> DENIED: %v\n", label, err)
		default:
			fmt.Printf("%-34s -> error: %v\n", label, err)
		}
	}
	fmt.Println("\nuntainted workload (allowed by the trailing allow rule):")
	drive("send", "send telemetry")
	drive("send", "send telemetry again")
	fmt.Println("\nmosaic attack (read ids, then egress — each step individually fine):")
	drive("exfil", "exfil ids via to-net")
	fmt.Println("\nsanctioned export (approval minted, then reused under the live grant):")
	drive("export", "export report #1")
	drive("export", "export report #2")
	now = now.Add(time.Minute) // the 45s grant decays
	fmt.Println("\nafter 1m (grant TTL 45s elapsed — next export re-approves):")
	drive("export", "export report #3")

	fmt.Printf("\njournal: %d entries, policy verdicts on record:\n", len(jnl.Entries()))
	for _, e := range jnl.Entries() {
		if e.Kind == journal.KindPolicyDeny || e.Kind == journal.KindPolicyApprove {
			fmt.Printf("  seq=%d %-14s %s\n", e.Seq, e.Kind, e.Detail)
		}
	}
	fmt.Printf("\nstats: %d denies, %d approvals\n\n", sys.Stats().PolicyDenies, approvals)
	met.WriteSummary(os.Stdout)
	return nil
}

// ---- policy demo components -----------------------------------------

// polApp reads identifying data on demand and pushes bytes out — a
// deliberately unscrupulous component; containment is the system's job.
type polApp struct{ ctx *core.Ctx }

func (a *polApp) CompName() string         { return "app" }
func (a *polApp) CompVersion() string      { return "1.0" }
func (a *polApp) Init(ctx *core.Ctx) error { a.ctx = ctx; return nil }

func (a *polApp) Handle(env core.Envelope) (core.Message, error) {
	switch env.Msg.Op {
	case "send":
		return a.ctx.Call("to-net", core.Message{Op: "send", Data: env.Msg.Data})
	case "exfil":
		if _, err := a.ctx.Call("vault", core.Message{Op: "ids"}); err != nil {
			return core.Message{}, err
		}
		return a.ctx.Call("to-net", core.Message{Op: "send", Data: env.Msg.Data})
	case "export":
		if _, err := a.ctx.Call("vault", core.Message{Op: "ids"}); err != nil {
			return core.Message{}, err
		}
		return a.ctx.Call("to-export", core.Message{Op: "send", Data: env.Msg.Data})
	default:
		return core.Message{}, core.ErrRefused
	}
}

// polVault holds the identifying data whose channel taints the chain.
type polVault struct{}

func (polVault) CompName() string     { return "vault" }
func (polVault) CompVersion() string  { return "1.0" }
func (polVault) Init(*core.Ctx) error { return nil }
func (polVault) Handle(env core.Envelope) (core.Message, error) {
	if env.Msg.Op != "ids" {
		return core.Message{}, core.ErrRefused
	}
	return core.Message{Op: "ok", Data: []byte("meter-identities")}, nil
}

// polSink models the network boundary.
type polSink struct{}

func (*polSink) CompName() string     { return "net" }
func (*polSink) CompVersion() string  { return "1.0" }
func (*polSink) Init(*core.Ctx) error { return nil }
func (*polSink) Handle(env core.Envelope) (core.Message, error) {
	if env.Msg.Op != "send" {
		return core.Message{}, core.ErrRefused
	}
	return core.Message{Op: "sent"}, nil
}

// chaosRun bundles the journaled fleet the events and audit commands share.
type chaosRun struct {
	demo    *experiments.FleetDemo
	jnl     *journal.Journal
	signer  *cryptoutil.Signer
	counter *journal.MemCounter
	flight  *journal.FlightRecorder
}

// journaledChaosRun deploys a journaled anonymizer fleet and drives the
// E19 chaos narrative through it: a tampered build refused at admission
// (quarantine + flight dump), a mid-run crash with failover, and a
// re-attested recovery — leaving a black box with every kind of fleet
// event on record, closed by a signed checkpoint.
func journaledChaosRun() (*chaosRun, error) {
	signer := cryptoutil.NewSigner("lateralctl-audit")
	counter := &journal.MemCounter{}
	flight := journal.NewFlightRecorder(journal.FlightConfig{Spans: 16})
	jnl, err := journal.New(journal.Config{
		Name:            "anonymizer",
		Signer:          signer,
		Counter:         counter,
		CheckpointEvery: 8,
		Flight:          flight,
	})
	if err != nil {
		return nil, err
	}
	demo, err := experiments.BuildJournaledFleetDemo(3, 3, nil, jnl)
	if err != nil {
		return nil, err
	}
	demo.SetTracer(flight)
	for i := 0; i < 12; i++ {
		switch i {
		case 4:
			demo.Part.Isolate("anon-2")
		case 8:
			demo.Part.Heal("anon-2")
			demo.Pool.CheckNow()
		}
		if err := demo.Send(fmt.Sprintf("meter-%02d", i%4), 2+i%5); err != nil {
			return nil, err
		}
	}
	if err := jnl.Checkpoint(); err != nil {
		return nil, err
	}
	return &chaosRun{demo: demo, jnl: jnl, signer: signer, counter: counter, flight: flight}, nil
}

// runScenario drives one instrumented workload: every involved system gets
// the tracer, and (when mon is non-nil) the simulated network reports its
// traffic too.
func runScenario(scenario string, tr core.Tracer, mon netsim.Monitor) error {
	switch scenario {
	case "mail":
		sys, _, err := mail.Build(kernel.New(kernel.Config{}), mail.HorizontalManifest())
		if err != nil {
			return err
		}
		sys.SetTracer(tr)
		if _, err := mail.FetchMail(sys); err != nil {
			return err
		}
		_, err = mail.Compose(sys, "status report draft")
		return err
	case "smartmeter":
		d, err := meter.Deploy(meter.Options{})
		if err != nil {
			return err
		}
		d.Appliance.SetTracer(tr)
		d.Server.SetTracer(tr)
		if mon != nil {
			d.Net.SetMonitor(mon)
		}
		if err := d.Connect(); err != nil {
			return err
		}
		for _, kwh := range []int{3, 5, 2} {
			if err := d.SendReading(kwh); err != nil {
				return err
			}
		}
		_, err = d.ShowBillingOnAndroid()
		return err
	case "distributed":
		demo, err := experiments.BuildDistributedDemo()
		if err != nil {
			return err
		}
		demo.Laptop.SetTracer(tr)
		demo.Cloud.SetTracer(tr)
		if mon != nil {
			demo.Net.SetMonitor(mon)
		}
		if err := demo.Stub.Connect(); err != nil {
			return err
		}
		if _, err := demo.Laptop.Deliver("client", core.Message{Op: "put", Data: []byte("traced-doc")}); err != nil {
			return err
		}
		_, err = demo.Laptop.Deliver("client", core.Message{Op: "get"})
		return err
	case "cluster":
		var cm cluster.Monitor
		if m, ok := tr.(cluster.Monitor); ok {
			cm = m
		}
		demo, err := experiments.BuildFleetDemo(3, 0, cm)
		if err != nil {
			return err
		}
		demo.SetTracer(tr)
		if mon != nil {
			demo.Net.SetMonitor(mon)
		}
		for i := 0; i < 9; i++ {
			if i == 4 {
				demo.Part.Isolate("anon-3")
			}
			if err := demo.Send(fmt.Sprintf("meter-%02d", i%3), 2+i%5); err != nil {
				return err
			}
		}
		demo.Part.Heal("anon-3")
		demo.Pool.CheckNow()
		return nil
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}
}
