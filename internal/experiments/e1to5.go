package experiments

import (
	"fmt"
	"strings"
	"time"

	"lateral/internal/attack"
	"lateral/internal/core"
	"lateral/internal/kernel"
	"lateral/internal/mail"
	"lateral/internal/meter"
	"lateral/internal/metrics"
	"lateral/internal/netsim"
	"lateral/internal/telemetry"
)

// E1Containment reproduces Figure 1 quantitatively: the same mail client
// is deployed vertically (one protection domain), horizontally with a
// POLA manifest, and horizontally with a sloppy full-mesh manifest (the A1
// ablation). For every component, an exploit is injected and the fraction
// of the application's five secret assets that reach the adversary is
// scored. Paper claim: "a subversion of one component can often be
// contained and does not infect other components."
func E1Containment() (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "asset leakage per compromised component",
		Anchor: "Fig. 1; §I containment claim; A1 manifest ablation",
		Header: []string{"compromised", "vertical", "horizontal-broad", "horizontal-pola"},
	}
	builds := map[string]attack.BuildFunc{
		"vertical": func() (*core.System, map[string][]byte, error) {
			return mail.Build(core.NewMonolith(0), mail.VerticalManifest())
		},
		"horizontal-broad": func() (*core.System, map[string][]byte, error) {
			return mail.Build(kernel.New(kernel.Config{}), mail.BroadManifest())
		},
		"horizontal-pola": func() (*core.System, map[string][]byte, error) {
			return mail.Build(kernel.New(kernel.Config{}), mail.HorizontalManifest())
		},
	}
	targets := mail.ComponentNames()
	results := make(map[string][]attack.ContainmentResult)
	for arch, build := range builds {
		rs, err := attack.ContainmentSweep(build, targets)
		if err != nil {
			return t, fmt.Errorf("E1 %s: %w", arch, err)
		}
		results[arch] = rs
	}
	for i, target := range targets {
		v := results["vertical"][i].LeakFraction()
		b := results["horizontal-broad"][i].LeakFraction()
		p := results["horizontal-pola"][i].LeakFraction()
		t.AddRow(target, fmt.Sprintf("%.2f", v), fmt.Sprintf("%.2f", b), fmt.Sprintf("%.2f", p))
		if target == "render" {
			t.Check("render exploit: vertical leaks everything", v == 1, fmt.Sprintf("leak %.2f", v))
			t.Check("render exploit: broad manifest leaks", b > 0, fmt.Sprintf("leak %.2f", b))
			t.Check("render exploit: POLA contains it", p == 0, fmt.Sprintf("leak %.2f", p))
		}
	}
	v := attack.MeanLeakFraction(results["vertical"])
	b := attack.MeanLeakFraction(results["horizontal-broad"])
	p := attack.MeanLeakFraction(results["horizontal-pola"])
	t.AddRow("MEAN", fmt.Sprintf("%.2f", v), fmt.Sprintf("%.2f", b), fmt.Sprintf("%.2f", p))
	t.Check("vertical mean leak is total", v == 1, fmt.Sprintf("mean %.2f", v))
	t.Check("mean leak: pola < broad < vertical", p < b && b < v,
		fmt.Sprintf("%.2f / %.2f / %.2f", p, b, v))
	t.Notes = append(t.Notes,
		"leak fraction = assets visible to the adversary / 5 application assets",
		"broad = isolated domains but full-mesh channels: walls without POLA")
	return t, nil
}

// probeKeeper is the portable trusted component of E2: it stores a secret
// asset and serves badge-identified clients, using only core interfaces.
type probeKeeper struct {
	ctx *core.Ctx
}

func (p *probeKeeper) CompName() string    { return "keeper" }
func (p *probeKeeper) CompVersion() string { return "1.0" }

func (p *probeKeeper) Init(ctx *core.Ctx) error {
	p.ctx = ctx
	return ctx.StoreAsset("secret", []byte("PORTABLE-SECRET"))
}

func (p *probeKeeper) Handle(env core.Envelope) (core.Message, error) {
	if env.Badge == 0 {
		return core.Message{}, core.ErrRefused
	}
	v, err := p.ctx.LoadAsset("secret")
	if err != nil {
		return core.Message{}, err
	}
	return core.Message{Op: "ok", Data: v}, nil
}

// probeCaller is the portable legacy-side client.
type probeCaller struct {
	ctx *core.Ctx
}

func (p *probeCaller) CompName() string         { return "caller" }
func (p *probeCaller) CompVersion() string      { return "1.0" }
func (p *probeCaller) Init(ctx *core.Ctx) error { p.ctx = ctx; return nil }

func (p *probeCaller) Handle(env core.Envelope) (core.Message, error) {
	return p.ctx.Call("keeper", env.Msg)
}

// runProbe loads the probe pair on a substrate and exercises invocation,
// asset storage, and (where available) attestation.
func runProbe(subName string) (invokeOK, assetOK, quoteOK bool, props core.Properties, err error) {
	sub, err := NewSubstrate(subName)
	if err != nil {
		return false, false, false, core.Properties{}, err
	}
	props = sub.Properties()
	sys := core.NewSystem(sub)
	keeper := &probeKeeper{}
	if err := sys.Launch(keeper, true, 1); err != nil {
		return false, false, false, props, err
	}
	if err := sys.Launch(&probeCaller{}, false, 1); err != nil {
		return false, false, false, props, err
	}
	if err := sys.Grant(core.ChannelSpec{Name: "keeper", From: "caller", To: "keeper", Badge: 1}); err != nil {
		return false, false, false, props, err
	}
	if err := sys.InitAll(); err != nil {
		return false, false, false, props, err
	}
	reply, err := sys.Deliver("caller", core.Message{Op: "get"})
	invokeOK = err == nil && string(reply.Data) == "PORTABLE-SECRET"
	assetOK = invokeOK
	if anchor := sub.Anchor(); anchor != nil {
		ctx, cerr := sys.CtxOf("keeper")
		if cerr == nil {
			_, qerr := ctx.Quote([]byte("e2-nonce"))
			quoteOK = qerr == nil
		}
	}
	return invokeOK, assetOK, quoteOK, props, nil
}

// E2Portability reproduces Figure 2 / §III-A: "software components should
// be developed once against the common pattern and then should run on any
// isolation implementation." The SAME component implementations are loaded
// onto all six substrates; the table doubles as the §II property matrix.
func E2Portability() (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "one component, every substrate + property matrix",
		Anchor: "Fig. 2; §III-A unified interface",
		Header: []string{"substrate", "spatial", "temporal", "phys-mem", "launch", "attest", "quote", "conc-trusted", "invoke-ns", "tcb-units"},
	}
	props := make(map[string]core.Properties)
	quoted := make(map[string]bool)
	for _, name := range SubstrateNames() {
		invokeOK, _, quoteOK, pr, err := runProbe(name)
		if err != nil {
			return t, fmt.Errorf("E2 %s: %w", name, err)
		}
		props[name], quoted[name] = pr, quoteOK
		quoteCell := boolCell(quoteOK)
		if !pr.Attestation {
			quoteCell = "n/a"
		}
		t.AddRow(name,
			boolCell(pr.SpatialIsolation), boolCell(pr.TemporalIsolation),
			boolCell(pr.PhysicalMemoryProtection), boolCell(pr.SecureLaunch),
			boolCell(pr.Attestation), quoteCell,
			boolCell(pr.ConcurrentTrusted), pr.InvokeCostNs, pr.TCBUnits)
		t.Check(name+" runs the portable component", invokeOK, "reply carries the stored secret="+boolCell(invokeOK))
	}
	// Property-matrix spot checks straight from §II.
	spot := func(substrate, column string, got, want bool) {
		t.Check(substrate+" "+column+" = "+boolCell(want), got == want, column+"="+boolCell(got))
	}
	spot("monolith", "spatial", props["monolith"].SpatialIsolation, false)
	spot("monolith", "attest", props["monolith"].Attestation, false) // quote n/a
	spot("microkernel", "phys-mem", props["microkernel"].PhysicalMemoryProtection, false)
	spot("sgx", "phys-mem", props["sgx"].PhysicalMemoryProtection, true)
	spot("sgx", "quote", props["sgx"].Attestation && quoted["sgx"], true)
	spot("tpm-latelaunch", "conc-trusted", props["tpm-latelaunch"].ConcurrentTrusted, false)
	spot("noc", "temporal", props["noc"].TemporalIsolation, true) // a core per domain
	spot("noc", "phys-mem", props["noc"].PhysicalMemoryProtection, true)
	t.Notes = append(t.Notes,
		"identical probe components (no substrate imports) ran on every row")
	return t, nil
}

// E3SmartMeter reproduces Figure 3 end to end across five scenarios.
func E3SmartMeter() (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "smart meter appliance ↔ utility server",
		Anchor: "Fig. 3; §III-C smart meter example",
		Header: []string{"scenario", "expected", "observed"},
	}
	scenario := func(name, expected, observed string, ok bool) {
		t.AddRow(name, expected, observed)
		t.Check(name, ok, observed)
	}
	// Genuine deployment: readings flow, billing adds up, database holds
	// no identity.
	d, err := meter.Deploy(meter.Options{CustomerID: "customer-E3-PRIVATE"})
	if err != nil {
		return t, err
	}
	genuine := d.Connect() == nil &&
		d.SendReading(10) == nil && d.SendReading(5) == nil
	total := 0
	if genuine {
		total, _ = d.BillingTotal()
	}
	scenario("genuine meter + audited anonymizer", "accepted, billed 15",
		fmt.Sprintf("connected=%v billed=%d", genuine, total), genuine && total == 15)

	dump, _ := d.DatabaseContents()
	anon := genuine && !contains(dump, "customer-E3-PRIVATE") && contains(dump, "aggregate-total:")
	scenario("operator inspects database", "aggregates only, no identity",
		fmt.Sprintf("identity-visible=%v", contains(dump, "customer-E3-PRIVATE")), anon)

	// Tampered anonymizer refused by the meter.
	d2, err := meter.Deploy(meter.Options{TamperAnonymizer: true})
	if err != nil {
		return t, err
	}
	err2 := d2.Connect()
	scenario("tampered anonymizer build", "meter refuses connection",
		fmt.Sprintf("connect-err=%v", err2 != nil), err2 != nil)

	// Emulated meter refused by the utility.
	d3, err := meter.Deploy(meter.Options{EmulateMeter: true})
	if err != nil {
		return t, err
	}
	err3 := d3.Connect()
	scenario("software meter emulation", "utility refuses connection",
		fmt.Sprintf("connect-err=%v", err3 != nil), err3 != nil)

	// Eavesdropper on the wire.
	rec := &netsim.Recorder{}
	d4, err := meter.Deploy(meter.Options{CustomerID: "customer-E3-WIRE", WireAdversary: rec})
	if err != nil {
		return t, err
	}
	wireOK := d4.Connect() == nil && d4.SendReading(777) == nil &&
		!rec.Saw([]byte("customer-E3-WIRE")) && !rec.Saw([]byte("777"))
	scenario("wire eavesdropper", "sees neither identity nor readings",
		fmt.Sprintf("leak=%v", !wireOK), wireOK)

	// Compromised Android cannot read meter identity.
	d5, err := meter.Deploy(meter.Options{CustomerID: "customer-E3-TZ"})
	if err != nil {
		return t, err
	}
	adv := attack.New()
	d5.Appliance.SetObserver(adv)
	if err := d5.Appliance.Compromise("android"); err != nil {
		return t, err
	}
	_, _ = d5.Appliance.Deliver("android", core.Message{Op: "x"})
	tzOK := !adv.Saw([]byte("customer-E3-TZ"))
	scenario("compromised Android on appliance", "meter identity stays in secure world",
		fmt.Sprintf("leak=%v", !tzOK), tzOK)
	return t, nil
}

// E4Invocation measures what decomposition costs: per-substrate modeled
// and simulated invocation latency, plus the whole mail-fetch flow's
// budget (6 cross-domain calls) on each substrate. Paper anchor: §III-E
// "the decomposition mentality itself can also complicate software
// development" — the cost side of the trade the paper argues is worth it.
func E4Invocation() (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "cross-domain invocation cost",
		Anchor: "§III-E decomposition cost; §II-B mechanism costs",
		Header: []string{"substrate", "modeled-ns/call", "sim-ns/call", "fetchmail-calls", "fetchmail-modeled-us", "sim-p50-ns", "sim-p99-ns"},
	}
	modeled := make(map[string]int64)
	for _, name := range SubstrateNames() {
		sub, err := NewSubstrate(name)
		if err != nil {
			return t, err
		}
		sys := core.NewSystem(sub)
		if err := sys.Launch(&probeKeeper{}, true, 1); err != nil {
			return t, fmt.Errorf("E4 %s: %w", name, err)
		}
		if err := sys.Launch(&probeCaller{}, false, 1); err != nil {
			return t, err
		}
		if err := sys.Grant(core.ChannelSpec{Name: "keeper", From: "caller", To: "keeper", Badge: 1}); err != nil {
			return t, err
		}
		if err := sys.InitAll(); err != nil {
			return t, err
		}
		const iters = 2000
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := sys.Deliver("caller", core.Message{Op: "get"}); err != nil {
				return t, err
			}
		}
		simNs := time.Since(start).Nanoseconds() / (2 * iters) // 2 calls per iter

		// Percentiles: re-run the micro loop with telemetry installed and
		// read the caller→keeper latency distribution off the histogram.
		// Separate from the untraced loop above so tracing overhead never
		// pollutes the sim-ns/call figure.
		met := telemetry.NewMetrics()
		sys.SetTracer(met)
		for i := 0; i < iters; i++ {
			if _, err := sys.Deliver("caller", core.Message{Op: "get"}); err != nil {
				return t, err
			}
		}
		sys.SetTracer(nil)
		var p50, p99 int64
		for _, c := range met.Channels() {
			if c.From == "caller" && c.Channel == "keeper" {
				p50, p99 = c.P50.Nanoseconds(), c.P99.Nanoseconds()
			}
		}

		// Macro: the mail-fetch flow on a fresh substrate of this kind.
		sub2, err := NewSubstrate(name)
		if err != nil {
			return t, err
		}
		msys, _, err := mail.Build(sub2, mail.HorizontalManifest())
		if err != nil {
			return t, fmt.Errorf("E4 mail on %s: %w", name, err)
		}
		msys.ResetStats()
		if _, err := mail.FetchMail(msys); err != nil {
			return t, err
		}
		st := msys.Stats()
		modeled[name] = sub.Properties().InvokeCostNs
		t.AddRow(name, modeled[name], simNs,
			st.Invocations, fmt.Sprintf("%.1f", float64(st.VirtualNs)/1000), p50, p99)
		t.Check(name+" fetchmail takes 6 calls", st.Invocations == 6, fmt.Sprintf("%d calls", st.Invocations))
	}
	// The published order of magnitude ordering: function call < IPC <
	// SMC < enclave < mailbox < late launch.
	order := []string{"monolith", "microkernel", "trustzone", "sgx", "sep", "tpm-latelaunch"}
	increasing := true
	costs := make([]string, len(order))
	for i, name := range order {
		costs[i] = fmt.Sprint(modeled[name])
		if i > 0 && modeled[name] <= modeled[order[i-1]] {
			increasing = false
		}
	}
	t.Check("modeled cost: call < IPC < SMC < enclave < mailbox < late launch", increasing,
		strings.Join(costs, " < ")+" ns")
	t.Notes = append(t.Notes,
		"modeled = published order of magnitude for the mechanism; sim = this simulator's Go overhead",
		"fetchmail = ui→net→tls→parser→render→store end-to-end flow",
		"sim-p50/p99 = caller→keeper channel latency percentiles from the telemetry histogram (traced run)")
	return t, nil
}

// E5TCB reproduces the paper's TCB-size arguments (§II-B microkernel
// verification, §III-D "tens of thousands of lines"): per-component TCB in
// kLoC units, vertical (commodity-OS monolith) vs horizontal (microkernel).
func E5TCB() (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "per-component TCB size (kLoC units)",
		Anchor: "§II-B seL4 verification; §II-C SGX microcode; §III-D complexity",
		Header: []string{"component", "vertical-tcb", "horizontal-tcb", "reduction"},
	}
	units := make(map[string]int, len(metrics.DefaultUnits))
	for k, v := range metrics.DefaultUnits {
		units[k] = v
	}
	units["abook"] = metrics.DefaultUnits["addressbook"]

	vsys, _, err := mail.Build(core.NewMonolith(0), mail.VerticalManifest())
	if err != nil {
		return t, err
	}
	hsys, _, err := mail.Build(kernel.New(kernel.Config{}), mail.HorizontalManifest())
	if err != nil {
		return t, err
	}
	vr, err := metrics.TCBReport(vsys, units)
	if err != nil {
		return t, err
	}
	hr, err := metrics.TCBReport(hsys, units)
	if err != nil {
		return t, err
	}
	hIdx := make(map[string]metrics.Report, len(hr))
	for _, r := range hr {
		hIdx[r.Component] = r
	}
	for _, v := range vr {
		h := hIdx[v.Component]
		t.AddRow(v.Component, v.Total(), h.Total(),
			fmt.Sprintf("%.0fx", float64(v.Total())/float64(h.Total())))
	}
	vs, hs := metrics.Summarize(vr), metrics.Summarize(hr)
	reduction := vs.MeanTCB / hs.MeanTCB
	t.AddRow("MEAN", fmt.Sprintf("%.0f", vs.MeanTCB), fmt.Sprintf("%.0f", hs.MeanTCB),
		fmt.Sprintf("%.0fx", reduction))
	t.Check("mean TCB reduction >= 10x", reduction >= 10, fmt.Sprintf("%.1fx", reduction))
	t.Notes = append(t.Notes,
		"vertical = colocated app on a commodity OS (20000 kLoC substrate)",
		"horizontal = per-component domains on a verified microkernel (10 kLoC substrate)")
	return t, nil
}

func contains(haystack, needle string) bool {
	return strings.Contains(haystack, needle)
}
