package experiments

import (
	"errors"
	"fmt"

	"lateral/internal/attack"
	"lateral/internal/attest"
	"lateral/internal/cap"
	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/gui"
	"lateral/internal/hw"
	"lateral/internal/kernel"
	"lateral/internal/legacy"
	"lateral/internal/meter"
	"lateral/internal/tpm"
	"lateral/internal/vpfs"
)

// E6Covert reproduces §II-C: "Using time partitioning and scheduler
// interference analysis, microkernels provide strong temporal isolation by
// mitigating covert channels." A sender modulates CPU demand; a receiver
// decodes from its own throughput. The A2 ablation (partitioning off) is
// the first row. The SGX row demonstrates the §II-C counterpoint — "even
// high-profile security technologies such as SGX suffer from ... cache
// side-channel attacks" — via the access-trace channel.
func E6Covert() (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  "covert/side channel bandwidth",
		Anchor: "§II-C temporal isolation; A2 partitioning ablation",
		Header: []string{"configuration", "channel", "bits-sent", "decoded-correct", "accuracy", "bits/frame"},
	}
	bits := make([]bool, 128)
	for i := range bits {
		bits[i] = (i*i+i/3)%2 == 0
	}
	for _, policy := range []kernel.Policy{kernel.BestEffort, kernel.TimePartitioned} {
		res, err := kernel.MeasureCovertChannel(policy, 100, bits)
		if err != nil {
			return t, err
		}
		t.AddRow("microkernel/"+policy.String(), "scheduler timing",
			len(bits), res.CorrectBits,
			fmt.Sprintf("%.2f", res.Accuracy()), fmt.Sprintf("%.2f", res.BitsPerFrame))
		bw := fmt.Sprintf("%.2f bits/frame", res.BitsPerFrame)
		if policy == kernel.TimePartitioned {
			t.Check("time partitioning closes the scheduler channel", res.BitsPerFrame == 0, bw)
		} else {
			t.Check("best-effort scheduler channel is open", res.BitsPerFrame > 0, bw)
		}
	}
	// SGX cache side channel: secret-dependent access pattern, decoded
	// perfectly from the access trace despite memory encryption.
	sub, err := NewSubstrate("sgx")
	if err != nil {
		return t, err
	}
	d, err := sub.CreateDomain(core.DomainSpec{Name: "leaky", Code: []byte("l"), Trusted: true, MemPages: 2})
	if err != nil {
		return t, err
	}
	type tracer interface {
		AccessTrace() []int
		ClearTrace()
	}
	enc, ok := d.(tracer)
	if !ok {
		return t, fmt.Errorf("E6: sgx handle lacks access trace")
	}
	enc.ClearTrace()
	for _, b := range bits {
		off := 0
		if b {
			off = 16 * 64
		}
		if _, err := d.Read(off, 1); err != nil {
			return t, err
		}
	}
	correct := 0
	for i, line := range enc.AccessTrace() {
		if (line == 16) == bits[i] {
			correct++
		}
	}
	t.AddRow("sgx/cache-trace", "access pattern", len(bits), correct,
		fmt.Sprintf("%.2f", float64(correct)/float64(len(bits))), "1.00")
	t.Check("sgx access trace decodes every bit", correct == len(bits),
		fmt.Sprintf("%d/%d decoded", correct, len(bits)))
	t.Notes = append(t.Notes,
		"time partitioning closes the scheduler channel; SGX's MEE does not close access-pattern channels")
	return t, nil
}

// E7VPFS reproduces §III-D's trusted-wrapper claims: the legacy stack
// "never handles plaintext data" and the wrapper "guarantees
// confidentiality and integrity of all file system data and metadata".
// Rows cover each storage attack against raw legacy FS, VPFS mac-only (A4
// ablation), and VPFS full.
func E7VPFS() (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "storage attacks vs trusted wrapper",
		Anchor: "§III-D VPFS; A4 freshness ablation",
		Header: []string{"attack", "legacy-fs", "vpfs-mac-only", "vpfs-full"},
	}
	type outcome string
	const (
		undetected outcome = "UNDETECTED"
		detected   outcome = "detected"
		immune     outcome = "immune"
	)
	newSetup := func(mode vpfs.Mode) (*vpfs.VPFS, *legacy.FS, error) {
		dev := hw.NewBlockDevice("e7", 256)
		fs, err := legacy.Format(dev)
		if err != nil {
			return nil, nil, err
		}
		if mode == 0 {
			return nil, fs, nil
		}
		v, err := vpfs.New(fs, cryptoutil.KeyFromSeed("e7"), mode)
		return v, fs, err
	}

	// Attack 1: plaintext disclosure by reading the raw device.
	disclose := func(mode vpfs.Mode) (outcome, error) {
		v, fs, err := newSetup(mode)
		if err != nil {
			return "", err
		}
		secret := []byte("E7-DISCLOSURE-SECRET")
		if v == nil {
			err = fs.WriteFile("f", secret)
		} else {
			err = v.WriteFile("f", secret)
		}
		if err != nil {
			return "", err
		}
		for i := 0; i < fs.Device().NumSectors(); i++ {
			sec, _ := fs.Device().ReadSector(i)
			if containsBytes(sec, secret) {
				return undetected, nil
			}
		}
		return immune, nil
	}

	// Attack 2: data tampering on the device.
	tamper := func(mode vpfs.Mode) (outcome, error) {
		v, fs, err := newSetup(mode)
		if err != nil {
			return "", err
		}
		if v == nil {
			if err := fs.WriteFile("f", []byte("balance=100")); err != nil {
				return "", err
			}
			if err := fs.TamperFileData("f"); err != nil {
				return "", err
			}
			if _, err := fs.ReadFile("f"); err != nil {
				return detected, nil
			}
			return undetected, nil
		}
		if err := v.WriteFile("f", []byte("balance=100")); err != nil {
			return "", err
		}
		if err := fs.TamperFileData("f"); err != nil {
			return "", err
		}
		if _, err := v.ReadFile("f"); errors.Is(err, vpfs.ErrIntegrity) {
			return detected, nil
		}
		return undetected, nil
	}

	// Attack 3: rollback to a stale snapshot.
	rollback := func(mode vpfs.Mode) (outcome, error) {
		v, fs, err := newSetup(mode)
		if err != nil {
			return "", err
		}
		write := func(data []byte) error {
			if v == nil {
				return fs.WriteFile("f", data)
			}
			return v.WriteFile("f", data)
		}
		if err := write([]byte("v1")); err != nil {
			return "", err
		}
		snap := fs.Device().Snapshot()
		if err := write([]byte("v2")); err != nil {
			return "", err
		}
		if err := fs.Device().RestoreSnapshot(snap); err != nil {
			return "", err
		}
		if v == nil {
			if _, err := fs.ReadFile("f"); err != nil {
				return detected, nil
			}
			return undetected, nil
		}
		if _, err := v.ReadFile("f"); errors.Is(err, vpfs.ErrRollback) {
			return detected, nil
		}
		return undetected, nil
	}

	attacks := []struct {
		name string
		run  func(vpfs.Mode) (outcome, error)
		want [3]outcome // legacy-fs, vpfs-mac-only, vpfs-full
	}{
		{"plaintext disclosure", disclose, [3]outcome{undetected, immune, immune}},
		{"data tampering", tamper, [3]outcome{undetected, detected, detected}},
		{"rollback replay", rollback, [3]outcome{undetected, undetected, detected}},
	}
	for _, a := range attacks {
		raw, err := a.run(0)
		if err != nil {
			return t, fmt.Errorf("E7 %s legacy: %w", a.name, err)
		}
		mac, err := a.run(vpfs.ModeMACOnly)
		if err != nil {
			return t, fmt.Errorf("E7 %s mac: %w", a.name, err)
		}
		full, err := a.run(vpfs.ModeFull)
		if err != nil {
			return t, fmt.Errorf("E7 %s full: %w", a.name, err)
		}
		t.AddRow(a.name, string(raw), string(mac), string(full))
		t.Check(a.name, [3]outcome{raw, mac, full} == a.want,
			fmt.Sprintf("want %s / %s / %s", a.want[0], a.want[1], a.want[2]))
	}
	t.Notes = append(t.Notes,
		"UNDETECTED = attack succeeds silently; detected = read fails loudly; immune = nothing to find")
	return t, nil
}

// E8 fixture: a document store serving two clients. The capability deputy
// resolves the session from the kernel-stamped badge; the ambient deputy
// believes the identity claim inside the payload.
type deputyComp struct {
	useBadges bool
	sessions  *cap.SessionTable[string]
	docs      map[string]string
}

func (d *deputyComp) CompName() string    { return "deputy" }
func (d *deputyComp) CompVersion() string { return "1.0" }

func (d *deputyComp) Init(*core.Ctx) error {
	d.sessions = cap.NewSessionTable[string]()
	d.sessions.Register(101, "alice")
	d.sessions.Register(102, "mallory")
	d.docs = map[string]string{
		"alice":   "ALICE-TAX-RETURN",
		"mallory": "MALLORY-NOTES",
	}
	return nil
}

func (d *deputyComp) Handle(env core.Envelope) (core.Message, error) {
	var owner string
	if d.useBadges {
		s, err := d.sessions.ForBadge(env.Badge)
		if err != nil {
			return core.Message{}, err
		}
		owner = s
	} else {
		// Ambient authority: trust whatever the payload claims.
		owner = string(env.Msg.Data)
	}
	doc, ok := d.docs[owner]
	if !ok {
		return core.Message{}, core.ErrRefused
	}
	return core.Message{Op: "doc", Data: []byte(doc)}, nil
}

type deputyClient struct {
	name  string
	claim string // identity to claim in the payload
	ctx   *core.Ctx
}

func (c *deputyClient) CompName() string         { return c.name }
func (c *deputyClient) CompVersion() string      { return "1.0" }
func (c *deputyClient) Init(ctx *core.Ctx) error { c.ctx = ctx; return nil }

func (c *deputyClient) Handle(env core.Envelope) (core.Message, error) {
	return c.ctx.Call("deputy", core.Message{Op: "read", Data: []byte(c.claim)})
}

// E8Deputy reproduces §III-D: "capabilities bundle communication right and
// context identification in one entity and are therefore an important
// programming tool to prevent confused deputy issues." Mallory asks the
// shared document deputy for Alice's file, claiming to be Alice. The A3
// ablation is the ambient row.
func E8Deputy() (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  "confused deputy: ambient authority vs capabilities",
		Anchor: "§III-D confused deputy; A3 capability ablation",
		Header: []string{"deputy-mode", "alice-reads-own", "mallory-steals-alice"},
	}
	run := func(useBadges bool) (aliceOK, malloryStole bool, err error) {
		sys := core.NewSystem(kernel.New(kernel.Config{}))
		dep := &deputyComp{useBadges: useBadges}
		alice := &deputyClient{name: "alice", claim: "alice"}
		mallory := &deputyClient{name: "mallory", claim: "alice"} // forged claim
		for _, c := range []core.Component{dep, alice, mallory} {
			if err := sys.Launch(c, false, 1); err != nil {
				return false, false, err
			}
		}
		var aliceBadge, malloryBadge uint64
		if useBadges {
			aliceBadge, malloryBadge = 101, 102
		}
		if err := sys.Grant(core.ChannelSpec{Name: "deputy", From: "alice", To: "deputy", Badge: aliceBadge}); err != nil {
			return false, false, err
		}
		if err := sys.Grant(core.ChannelSpec{Name: "deputy", From: "mallory", To: "deputy", Badge: malloryBadge}); err != nil {
			return false, false, err
		}
		if err := sys.InitAll(); err != nil {
			return false, false, err
		}
		ar, aerr := sys.Deliver("alice", core.Message{Op: "go"})
		aliceOK = aerr == nil && string(ar.Data) == "ALICE-TAX-RETURN"
		mr, merr := sys.Deliver("mallory", core.Message{Op: "go"})
		malloryStole = merr == nil && string(mr.Data) == "ALICE-TAX-RETURN"
		return aliceOK, malloryStole, nil
	}
	for _, mode := range []struct {
		name      string
		useBadges bool
	}{{"ambient (A3 off)", false}, {"capability badges", true}} {
		aliceOK, stole, err := run(mode.useBadges)
		if err != nil {
			return t, err
		}
		t.AddRow(mode.name, boolCell(aliceOK), boolCell(stole))
		observed := fmt.Sprintf("alice-reads-own=%s, mallory-steals-alice=%s", boolCell(aliceOK), boolCell(stole))
		if mode.useBadges {
			t.Check(mode.name+" stop the deputy", aliceOK && !stole, observed)
		} else {
			// The ambient row is EXPECTED to be exploitable.
			t.Check(mode.name+" is exploitable, as predicted", stole, observed)
		}
	}
	return t, nil
}

// E9Phishing reproduces §III-C: "the system is resilient against phishing
// attacks, which are based on tricking the user into divulging credentials
// to the wrong party."
func E9Phishing() (Table, error) {
	t := Table{
		ID:     "E9",
		Title:  "phishing campaign: password vs hardware-key auth",
		Anchor: "§III-C password-less authentication",
		Header: []string{"auth-scheme", "users", "lured", "accounts-compromised"},
	}
	for _, hwAuth := range []bool{false, true} {
		res, err := meter.PhishingCampaign(100, 0.35, hwAuth, "e9")
		if err != nil {
			return t, err
		}
		name := "password"
		if hwAuth {
			name = "hardware-key"
		}
		t.AddRow(name, res.Users, res.Lured, res.Compromised)
		observed := fmt.Sprintf("%d lured, %d compromised", res.Lured, res.Compromised)
		if hwAuth {
			t.Check("hardware-key: no account compromised", res.Compromised == 0, observed)
		} else {
			t.Check("password: every lured user compromised", res.Compromised == res.Lured && res.Compromised != 0, observed)
		}
	}
	return t, nil
}

// E10Gateway reproduces §III-C: the gateway "can reliably enforce domain
// whitelists and bandwidth policies to prevent the smart meter appliance
// from participating in distributed denial-of-service attacks".
func E10Gateway() (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "compromised appliance floods an Internet victim",
		Anchor: "§III-C gateway component",
		Header: []string{"gateway", "flood-packets", "reached-victim", "reached-utility"},
	}
	for _, on := range []bool{false, true} {
		res := meter.Flood(1000, 10, on)
		t.AddRow(boolCell(on), res.Attempted, res.DeliveredVictim, res.DeliveredUtility)
		observed := fmt.Sprintf("%d packets reached the victim", res.DeliveredVictim)
		if on {
			t.Check("gateway stops every victim-bound packet", res.DeliveredVictim == 0, observed)
		} else {
			t.Check("no gateway: the whole flood reaches the victim", res.DeliveredVictim == 1000, observed)
		}
	}
	t.Notes = append(t.Notes,
		"whitelist stops victim-bound junk entirely; the token bucket also caps utility-bound egress")
	return t, nil
}

// E11Boot reproduces §II-D's launch policies: secure boot refuses modified
// code; authenticated boot runs it but the TPM log tells the truth, and a
// doctored log fails quote verification.
func E11Boot() (Table, error) {
	t := Table{
		ID:     "E11",
		Title:  "launch policies under boot-chain tampering",
		Anchor: "§II-D secure launch",
		Header: []string{"boot chain", "secure-boot", "auth-boot runs", "auth-boot verifiable"},
	}
	vendor := cryptoutil.NewSigner("platform-vendor")
	mfr := cryptoutil.NewSigner("tpm-mfr")
	goodChain := []attest.Stage{
		attest.SignStage(vendor, "bootloader", []byte("bl-1.0")),
		attest.SignStage(vendor, "kernel", []byte("krn-5.4")),
	}
	evilChain := []attest.Stage{
		goodChain[0],
		{Name: "kernel", Code: []byte("krn-5.4-ROOTKIT")},
	}
	for _, tc := range []struct {
		name       string
		chain      []attest.Stage
		lie        bool // verifier is shown a doctored log
		refused    bool // secure boot must refuse the chain
		verifiable bool // the authenticated-boot log must verify
	}{
		{"vendor-signed", goodChain, false, false, true},
		{"modified kernel", evilChain, false, true, true},
		{"modified kernel + doctored log", evilChain, true, true, false},
	} {
		_, sbErr := attest.SecureBoot(vendor.Public(), tc.chain)
		sbCell := "boots"
		if sbErr != nil {
			sbCell = "REFUSED"
		}
		tp := tpm.New("e11", mfr)
		log, err := attest.AuthenticatedBoot(tp, 0, tc.chain)
		if err != nil {
			return t, err
		}
		if tc.lie {
			log.Entries[1].Measurement = goodChain[1].Measurement()
		}
		nonce := []byte("e11")
		q, err := tp.Quote([]int{0}, nonce)
		if err != nil {
			return t, err
		}
		verifiable := attest.VerifyBootLog(q, nonce, mfr.Public(), log) == nil
		t.AddRow(tc.name, sbCell, "always", boolCell(verifiable))
		t.Check(tc.name, (sbErr != nil) == tc.refused && verifiable == tc.verifiable,
			fmt.Sprintf("secure boot %s, log verifies=%s", sbCell, boolCell(verifiable)))
	}
	t.Notes = append(t.Notes,
		"authenticated boot preserves the freedom to run anything; lying about it is what fails")
	return t, nil
}

// E12BusTap reproduces §II-D "physical exposure of data": a probe on the
// DRAM bus records all traffic; what it learns depends on the substrate's
// memory protection. The trustzone-scratchpad row is the paper's "software
// implementation of such memory encryption is conceivable" design.
func E12BusTap() (Table, error) {
	t := Table{
		ID:     "E12",
		Title:  "DRAM bus probe vs trusted-domain secrets",
		Anchor: "§II-D physical exposure of data",
		Header: []string{"substrate", "phys-mem-protection", "secret-on-bus", "tamper-detected"},
	}
	secret := []byte("E12-PHYSICAL-ATTACK-TARGET")
	for _, tc := range []struct {
		name   string
		leaks  bool   // the secret must show on the bus
		tamper string // the tamper-detected cell it must show
	}{
		{"microkernel", true, "n/a"},
		{"trustzone", true, "n/a"},
		{"trustzone-scratchpad", false, "no"}, // software crypto: confidentiality only
		{"sgx", false, "yes"},                 // hardware MEEs authenticate memory
		{"sep", false, "yes"},
	} {
		name := tc.name
		sub, err := NewSubstrate(name)
		if err != nil {
			return t, err
		}
		adv := attack.New()
		type hasMachine interface{ Machine() *hw.Machine }
		hm, ok := sub.(hasMachine)
		if !ok {
			return t, fmt.Errorf("E12: %s exposes no machine", name)
		}
		mem := hm.Machine().Mem
		mem.AttachTap(adv.BusTap())
		type hasSEPMem interface{ SEPMemory() *hw.Memory }
		if sm, ok := sub.(hasSEPMem); ok {
			mem = sm.SEPMemory() // trusted domains live here on the SEP
			mem.AttachTap(adv.BusTap())
		}
		d, err := sub.CreateDomain(core.DomainSpec{Name: "t", Code: []byte("t"), Trusted: true})
		if err != nil {
			return t, err
		}
		if err := d.Write(0, secret); err != nil {
			return t, err
		}
		if _, err := d.Read(0, len(secret)); err != nil {
			return t, err
		}
		leaked := adv.Saw(secret)
		props := sub.Properties()

		// Active physical tampering: flip a raw byte inside the trusted
		// domain's storage and read it back. Hardware MEEs (SGX, SEP)
		// detect it; confidentiality-only schemes read garbage silently.
		tamperCell := "n/a"
		if props.PhysicalMemoryProtection {
			// The trusted domain's region starts at offset 0 of its memory
			// on sep/scratchpad; on sgx/trustzone it is the first
			// allocated region of DRAM (trustzone reserves the secure
			// region first). Probe by scanning for the byte to flip via a
			// fresh write at offset 0.
			// In every protected configuration here the first trusted
			// domain's memory starts at offset 0 of the probed Memory
			// (the secure region / enclave / SEP slice is allocated
			// first), so the flip lands inside it.
			raw := mem.PeekRaw(0, 1)
			mem.PokeRaw(0, []byte{raw[0] ^ 0x80})
			_, rerr := d.Read(0, len(secret))
			if errors.Is(rerr, hw.ErrIntegrity) {
				tamperCell = "yes"
			} else {
				tamperCell = "no"
			}
		}
		t.AddRow(name, boolCell(props.PhysicalMemoryProtection), boolCell(leaked), tamperCell)
		// A substrate claiming physical memory protection must not leak;
		// one that does not claim it is expected to.
		t.Check(name+" bus exposure matches its claim", leaked != props.PhysicalMemoryProtection && leaked == tc.leaks,
			fmt.Sprintf("phys-mem-protection=%s, secret-on-bus=%s", boolCell(props.PhysicalMemoryProtection), boolCell(leaked)))
		t.Check(name+" tamper-detected = "+tc.tamper, tamperCell == tc.tamper, "tamper-detected="+tamperCell)
	}
	t.Notes = append(t.Notes,
		"tamper-detected: hardware MEEs (sgx, sep) authenticate memory; the software scratchpad variant encrypts only")
	return t, nil
}

// E13GUI reproduces §III-D "Secure Path to the User": the same phishing
// overlay against a raw framebuffer and against the nitpicker-style mux
// with its truthful indicator.
func E13GUI() (Table, error) {
	t := Table{
		ID:     "E13",
		Title:  "phishing overlay vs secure GUI",
		Anchor: "§III-D secure path to the user",
		Header: []string{"display path", "user-types-secret-into-fake", "evil-captures-input"},
	}
	user := gui.User{TrustPolicy: "bank"}

	// Raw framebuffer: the evil app forges the bank's origin.
	rawDisp := hw.NewDisplay("fb-raw")
	rawDisp.Draw(hw.DisplayRegion{Origin: "bank", Content: "== BANK LOGIN =="})
	rawTyped := user.WouldTypeSecretRaw(rawDisp.Regions())
	t.AddRow("raw framebuffer", boolCell(rawTyped), boolCell(rawTyped))
	t.Check("raw framebuffer is phishable, as predicted", rawTyped, "user-types-secret="+boolCell(rawTyped))

	// Secure mux: labels are mux-assigned, indicator truthful, input
	// focus-routed.
	disp := hw.NewDisplay("fb-mux")
	in := hw.NewInputDevice("kbd")
	mux := gui.NewMux(disp, in)
	if err := mux.CreateView("bank", true); err != nil {
		return t, err
	}
	if err := mux.CreateView("evil", false); err != nil {
		return t, err
	}
	if err := mux.Draw("evil", "== BANK LOGIN =="); err != nil {
		return t, err
	}
	if err := mux.Focus("evil"); err != nil {
		return t, err
	}
	muxTyped := user.WouldTypeSecretMux(disp.Regions())
	in.Inject("key:secret")
	mux.PumpInput()
	_, evilGot, err := mux.ReadInput("evil")
	if err != nil {
		return t, err
	}
	captured := muxTyped && evilGot
	t.AddRow("nitpicker mux + indicator", boolCell(muxTyped), boolCell(captured))
	t.Check("nitpicker mux + indicator defeats the overlay", !captured && !muxTyped,
		fmt.Sprintf("user-types-secret=%s, evil-captures=%s", boolCell(muxTyped), boolCell(captured)))
	return t, nil
}

// E14Concurrency reproduces §II-B's structural difference: Flicker PALs
// "cannot run concurrently" while SGX enclaves "run concurrently in their
// own fully isolated enclaves". N trusted services each handle M requests;
// makespan under the substrate's modeled invocation cost and concurrency.
func E14Concurrency() (Table, error) {
	t := Table{
		ID:     "E14",
		Title:  "N trusted services × M requests: makespan",
		Anchor: "§II-B Flicker serialization vs SGX concurrency",
		Header: []string{"substrate", "concurrent", "services", "requests-each", "makespan-ms", "relative"},
	}
	const (
		services = 8
		requests = 10
	)
	var base float64
	for _, name := range []string{"sgx", "sep", "trustzone", "tpm-latelaunch"} {
		sub, err := NewSubstrate(name)
		if err != nil {
			return t, err
		}
		props := sub.Properties()
		perCall := float64(props.InvokeCostNs)
		var makespanNs float64
		if props.ConcurrentTrusted {
			// Services proceed in parallel; makespan is one service's work.
			makespanNs = perCall * requests
		} else {
			// Sessions serialize across ALL services.
			makespanNs = perCall * requests * services
		}
		if base == 0 {
			base = makespanNs
		}
		rel := makespanNs / base
		t.AddRow(name, boolCell(props.ConcurrentTrusted), services, requests,
			fmt.Sprintf("%.3f", makespanNs/1e6), fmt.Sprintf("%.2fx", rel))
		if name == "tpm-latelaunch" {
			t.Check("late launch is not concurrent", !props.ConcurrentTrusted, "concurrent="+boolCell(props.ConcurrentTrusted))
			// 100ms×8×10 vs 8us×10 ≈ 100000x.
			t.Check("late-launch makespan >= 1000x sgx", rel >= 1000, fmt.Sprintf("%.0fx", rel))
		}
	}
	t.Notes = append(t.Notes,
		"modeled costs: enclave transition 8us, SEP mailbox 100us, SMC 4us, late launch 100ms")
	return t, nil
}

func containsBytes(haystack, needle []byte) bool {
	if len(needle) == 0 {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j := range needle {
			if haystack[i+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}
