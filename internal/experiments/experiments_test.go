package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// These tests pin the SHAPE of every experiment's result — who wins, by
// roughly what factor, where the qualitative flips happen — which is the
// reproduction target for a vision paper.

func cell(t *testing.T, tab Table, rowName string, col int) string {
	t.Helper()
	for _, r := range tab.Rows {
		if r[0] == rowName {
			return r[col]
		}
	}
	t.Fatalf("%s: no row %q in %v", tab.ID, rowName, tab.Rows)
	return ""
}

func TestE1ShapeVerticalWorstPOLABest(t *testing.T) {
	v, b, p, err := MeanLeak()
	if err != nil {
		t.Fatal(err)
	}
	if v != 1.0 {
		t.Errorf("vertical mean leak = %.2f, want 1.0", v)
	}
	if !(p < b && b < v) {
		t.Errorf("ordering violated: pola %.2f < broad %.2f < vertical %.2f expected", p, b, v)
	}
	// POLA should contain the renderer exploit completely.
	tab, err := E1Containment()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, "render", 3); got != "0.00" {
		t.Errorf("pola render leak = %s, want 0.00", got)
	}
	if got := cell(t, tab, "render", 1); got != "1.00" {
		t.Errorf("vertical render leak = %s, want 1.00", got)
	}
	// Broad manifest leaks the exported contacts even from the renderer.
	if got := cell(t, tab, "render", 2); got == "0.00" {
		t.Error("broad manifest should leak something from the renderer")
	}
}

func TestE2EverySubstrateRunsTheSameComponent(t *testing.T) {
	tab, err := E2Portability()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(SubstrateNames()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] != "PASS" {
			t.Errorf("substrate %s failed to run the portable component", r[0])
		}
	}
	// Property-matrix spot checks straight from §II.
	if cell(t, tab, "monolith", 2) != "no" {
		t.Error("monolith claims spatial isolation")
	}
	if cell(t, tab, "sgx", 4) != "yes" || cell(t, tab, "microkernel", 4) != "no" {
		t.Error("physical memory protection column wrong")
	}
	if cell(t, tab, "tpm-latelaunch", 8) != "no" {
		t.Error("late launch claims concurrency")
	}
	if cell(t, tab, "sgx", 7) != "yes" {
		t.Error("sgx quote failed")
	}
	if cell(t, tab, "monolith", 7) != "n/a" {
		t.Error("monolith should have no quote")
	}
}

func TestE3AllScenariosPass(t *testing.T) {
	tab, err := E3SmartMeter()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[3] != "PASS" {
			t.Errorf("E3 scenario %q: %v", r[0], r)
		}
	}
}

func TestE4CostOrdering(t *testing.T) {
	tab, err := E4Invocation()
	if err != nil {
		t.Fatal(err)
	}
	// Modeled cost must preserve the published order of magnitude
	// ordering: function call < IPC < SMC < enclave < mailbox < latelaunch.
	order := []string{"monolith", "microkernel", "trustzone", "sgx", "sep", "tpm-latelaunch"}
	var prev int64 = -1
	for _, name := range order {
		var modeled int64
		for _, r := range tab.Rows {
			if r[0] == name {
				if _, err := parseInt(r[1], &modeled); err != nil {
					t.Fatalf("parse %q: %v", r[1], err)
				}
			}
		}
		if modeled <= prev {
			t.Errorf("modeled cost not increasing at %s: %d after %d", name, modeled, prev)
		}
		prev = modeled
	}
	// Every substrate ran the same 9-invocation fetchmail flow.
	for _, r := range tab.Rows {
		if r[3] != "6" {
			t.Errorf("%s: fetchmail used %s invocations, want 6", r[0], r[3])
		}
	}
}

func parseInt(s string, out *int64) (int, error) {
	n, err := fmtSscan(s, out)
	return n, err
}

func fmtSscan(s string, out *int64) (int, error) {
	var v int64
	var n int
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int64(c-'0')
		n++
	}
	if n == 0 {
		return 0, errNoInt
	}
	*out = v
	return n, nil
}

var errNoInt = errorString("no integer")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestE5TwoOrdersOfMagnitude(t *testing.T) {
	tab, err := E5TCB()
	if err != nil {
		t.Fatal(err)
	}
	mean := tab.Rows[len(tab.Rows)-1]
	if mean[0] != "MEAN" {
		t.Fatal("no MEAN row")
	}
	if !strings.HasSuffix(mean[3], "x") {
		t.Fatalf("reduction cell = %q", mean[3])
	}
	var ratio int64
	if _, err := parseInt(strings.TrimSuffix(mean[3], "x"), &ratio); err != nil {
		t.Fatal(err)
	}
	if ratio < 10 {
		t.Errorf("mean TCB reduction = %dx, want ≥10x", ratio)
	}
}

func TestE6ChannelOpenThenClosed(t *testing.T) {
	tab, err := E6Covert()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, "microkernel/best-effort", 5); got == "0.00" {
		t.Error("best-effort covert channel should be open")
	}
	if got := cell(t, tab, "microkernel/time-partitioned", 5); got != "0.00" {
		t.Errorf("TDMA covert bandwidth = %s, want 0.00", got)
	}
	if got := cell(t, tab, "sgx/cache-trace", 4); got != "1.00" {
		t.Errorf("sgx access-trace accuracy = %s, want 1.00", got)
	}
}

func TestE7DetectionMatrix(t *testing.T) {
	tab, err := E7VPFS()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][3]string{
		"plaintext disclosure": {"UNDETECTED", "immune", "immune"},
		"data tampering":       {"UNDETECTED", "detected", "detected"},
		"rollback replay":      {"UNDETECTED", "UNDETECTED", "detected"},
	}
	for name, cols := range want {
		for i, w := range cols {
			if got := cell(t, tab, name, i+1); got != w {
				t.Errorf("E7 %s col %d = %s, want %s", name, i+1, got, w)
			}
		}
	}
}

func TestE8AmbientExploitableCapabilitySafe(t *testing.T) {
	tab, err := E8Deputy()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, "ambient (A3 off)", 2); got != "yes" {
		t.Errorf("ambient deputy: mallory stole = %s, want yes", got)
	}
	if got := cell(t, tab, "capability badges", 2); got != "no" {
		t.Errorf("capability deputy: mallory stole = %s, want no", got)
	}
	if got := cell(t, tab, "capability badges", 1); got != "yes" {
		t.Error("capability deputy broke the legitimate client")
	}
}

func TestE9HardwareAuthImmune(t *testing.T) {
	tab, err := E9Phishing()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, "hardware-key", 3); got != "0" {
		t.Errorf("hardware-key compromised = %s, want 0", got)
	}
	pw := cell(t, tab, "password", 3)
	lured := cell(t, tab, "password", 2)
	if pw != lured || pw == "0" {
		t.Errorf("password compromised = %s, lured = %s; should be equal and nonzero", pw, lured)
	}
}

func TestE10GatewayStopsFlood(t *testing.T) {
	tab, err := E10Gateway()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, "no", 2); got != "1000" {
		t.Errorf("ungated victim packets = %s, want 1000", got)
	}
	if got := cell(t, tab, "yes", 2); got != "0" {
		t.Errorf("gated victim packets = %s, want 0", got)
	}
}

func TestE11LaunchPolicies(t *testing.T) {
	tab, err := E11Boot()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, "vendor-signed", 1); got != "boots" {
		t.Error("secure boot refused good chain")
	}
	if got := cell(t, tab, "modified kernel", 1); got != "REFUSED" {
		t.Error("secure boot ran modified kernel")
	}
	if got := cell(t, tab, "modified kernel", 3); got != "yes" {
		t.Error("truthful auth-boot log should verify")
	}
	if got := cell(t, tab, "modified kernel + doctored log", 3); got != "no" {
		t.Error("doctored log verified")
	}
}

func TestE12AllSubstratesMatchTheirClaims(t *testing.T) {
	tab, err := E12BusTap()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[4] != "PASS" {
			t.Errorf("E12 %s: claim/observation mismatch: %v", r[0], r)
		}
	}
	if got := cell(t, tab, "microkernel", 2); got != "yes" {
		t.Error("microkernel secrets should be on the bus")
	}
	if got := cell(t, tab, "trustzone-scratchpad", 2); got != "no" {
		t.Error("scratchpad-crypto TrustZone leaked to the bus")
	}
	// Hardware MEEs authenticate; the software scratchpad variant does not.
	if got := cell(t, tab, "sgx", 3); got != "yes" {
		t.Error("SGX MEE should detect active tampering")
	}
	if got := cell(t, tab, "sep", 3); got != "yes" {
		t.Error("SEP inline crypto should detect active tampering")
	}
	if got := cell(t, tab, "trustzone-scratchpad", 3); got != "no" {
		t.Error("software scratchpad crypto should NOT detect tampering (confidentiality only)")
	}
}

func TestE13MuxDefeatsOverlay(t *testing.T) {
	tab, err := E13GUI()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, "raw framebuffer", 1); got != "yes" {
		t.Error("raw-path phishing should succeed")
	}
	if got := cell(t, tab, "nitpicker mux + indicator", 3); got != "PASS" {
		t.Error("mux path failed")
	}
}

func TestE14SerializationPenalty(t *testing.T) {
	tab, err := E14Concurrency()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, "tpm-latelaunch", 1); got != "no" {
		t.Error("late launch should not be concurrent")
	}
	rel := cell(t, tab, "tpm-latelaunch", 5)
	var factor int64
	if _, err := parseInt(strings.TrimSuffix(rel, "x"), &factor); err != nil {
		t.Fatal(err)
	}
	// 100ms×8×10 vs 8us×10 ≈ 100000x.
	if factor < 1000 {
		t.Errorf("late-launch relative makespan = %dx, want ≥1000x", factor)
	}
}

func TestAllRegistryRunsClean(t *testing.T) {
	for _, e := range All() {
		tab, err := e.Run()
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", e.ID)
		}
		if s := tab.String(); !strings.Contains(s, tab.ID) {
			t.Errorf("%s: String() missing ID", e.ID)
		}
	}
}

func TestNewSubstrateUnknown(t *testing.T) {
	if _, err := NewSubstrate("warp-drive"); err == nil {
		t.Error("unknown substrate accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{ID: "T", Title: "x", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", 2.5)
	s := tab.String()
	for _, want := range []string{"a", "bb", "2.500", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestE15Interchangeability(t *testing.T) {
	tab, err := E15Interchangeability()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[3] != "PASS" {
			t.Errorf("E15 %s: %v", r[0], r)
		}
	}
	if got := cell(t, tab, "fTPM in TrustZone", 2); got != "yes" {
		t.Error("fTPM boot log did not verify")
	}
	if got := cell(t, tab, "fTPM, untrusted vendor", 2); got != "no" {
		t.Error("rogue-vendor fTPM verified")
	}
}

func TestNoCInSubstrateSweep(t *testing.T) {
	tab, err := E2Portability()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, "noc", 1); got != "PASS" {
		t.Error("noc failed the portability probe")
	}
	if got := cell(t, tab, "noc", 3); got != "yes" {
		t.Error("noc should have temporal isolation (core per domain)")
	}
	if got := cell(t, tab, "noc", 4); got != "yes" {
		t.Error("noc scratchpads should count as physical memory protection")
	}
}

func TestE16IOMMU(t *testing.T) {
	tab, err := E16IOMMU()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, "bus-mastering device, no IOMMU", 1); got != "yes" {
		t.Error("unfiltered DMA should read the victim")
	}
	if got := cell(t, tab, "same device behind IOMMU", 3); got != "PASS" {
		t.Error("IOMMU did not contain the device")
	}
	if got := cell(t, tab, "same device behind IOMMU", 1); got != "no" {
		t.Error("IOMMU-filtered DMA read the victim")
	}
}

func TestE17Distributed(t *testing.T) {
	tab, err := E17Distributed()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[3] != "PASS" {
			t.Errorf("E17 %s: %v", r[0], r)
		}
	}
	if got := cell(t, tab, "remote (cloud SGX enclave)", 2); got != "no" {
		t.Error("document leaked on the wire")
	}
}

func TestE19ClusterScalesAndSurvivesChaos(t *testing.T) {
	tab, err := E19Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[5] != "PASS" {
			t.Errorf("E19 %s: %v", r[0], r)
		}
		if r[2] != "0" {
			t.Errorf("E19 %s lost %s readings", r[0], r[2])
		}
	}
	// Throughput must grow monotonically with replica count.
	var prev float64
	for _, row := range []string{"1 replica", "2 replicas", "4 replicas", "8 replicas"} {
		var thr float64
		if _, err := fmt.Sscanf(cell(t, tab, row, 3), "%f", &thr); err != nil {
			t.Fatalf("parse throughput for %s: %v", row, err)
		}
		if thr <= prev {
			t.Errorf("throughput not monotonic at %s: %.3f after %.3f", row, thr, prev)
		}
		prev = thr
	}
	// The chaos fleet still beats a single replica despite losing one
	// member mid-run and never admitting the tampered one.
	var chaos float64
	fmt.Sscanf(cell(t, tab, "4+1 chaos (crash + tampered)", 3), "%f", &chaos)
	var single float64
	fmt.Sscanf(cell(t, tab, "1 replica", 3), "%f", &single)
	if chaos <= single {
		t.Errorf("chaos fleet throughput %.3f not above single replica %.3f", chaos, single)
	}
}

func TestE18AutoPartition(t *testing.T) {
	tab, err := E18AutoPartition()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, "monolithic", 3); got != "1.00" {
		t.Errorf("monolithic mean leak = %s, want 1.00", got)
	}
	if got := cell(t, tab, "auto-partitioned", 4); got != "0.00" {
		t.Errorf("partitioned renderer exploit leak = %s, want 0.00", got)
	}
	// The partitioned mean must be well under the monolith's.
	var mono, part float64
	fmt.Sscanf(cell(t, tab, "monolithic", 3), "%f", &mono)
	fmt.Sscanf(cell(t, tab, "auto-partitioned", 3), "%f", &part)
	if part >= mono/2 {
		t.Errorf("partitioning gained too little: %.2f vs %.2f", part, mono)
	}
}

func TestE20StallContainment(t *testing.T) {
	tab, err := E20Stall()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4: %v", len(tab.Rows), tab.Rows)
	}
	for _, r := range tab.Rows {
		if r[5] != "PASS" {
			t.Errorf("E20 %s: %v", r[0], r)
		}
	}
	// The wedged round must actually have abandoned calls at the deadline.
	if cell(t, tab, "svc-1 wedged 4x budget", 3) == "0" {
		t.Error("wedged round recorded no timeouts")
	}
}

func TestE21Simulation(t *testing.T) {
	tab, err := E21Simulation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4: %v", len(tab.Rows), tab.Rows)
	}
	for _, r := range tab.Rows {
		if r[5] != "PASS" {
			t.Errorf("E21 %s: %v", r[0], r)
		}
	}
	// The mixed-fault round must actually have injected faults.
	if cell(t, tab, "mixed-fault schedule", 3) == "0" {
		t.Error("mixed-fault round injected no faults")
	}
}

func TestE22Pipelining(t *testing.T) {
	tab, err := E22Pipelining()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5: %v", len(tab.Rows), tab.Rows)
	}
	for _, r := range tab.Rows {
		if r[5] != "PASS" {
			t.Errorf("E22 %s: %v", r[0], r)
		}
	}
	// Depth 16 must actually have pipelined: high-water mark above 1.
	if cell(t, tab, "16", 4) == "1" {
		t.Error("depth-16 round never had more than one call in flight")
	}
}

func TestE23ShardedFleet(t *testing.T) {
	tab, err := E23Sharding()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5: %v", len(tab.Rows), tab.Rows)
	}
	for _, r := range tab.Rows {
		if r[3] != "PASS" {
			t.Errorf("E23 %s: %v", r[0], r)
		}
	}
	// The headline numbers must be genuine: a full million accepted
	// through a 17-cell fabric, batched 256:1.
	if cell(t, tab, "1048576 clients, 64 tenants, 17 shards", 1) != "17" {
		t.Errorf("fabric did not reach shard epoch 17: %v", tab.Rows[0])
	}
	if got := cell(t, tab, "batched ingestion amortizes AEAD", 2); !strings.Contains(got, "256x") {
		t.Errorf("amortization factor not 256x: %q", got)
	}
}

func TestE23BaselineCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("full million-client curve skipped in -short")
	}
	points, err := E23Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	last := points[len(points)-1]
	if last.Clients != 1048576 || last.Accepted != last.Clients || last.Lost != 0 {
		t.Fatalf("million-client point = %+v", last)
	}
	for _, p := range points {
		if p.Frames != p.Clients/p.Batch {
			t.Errorf("%d clients: %d frames, want %d", p.Clients, p.Frames, p.Clients/p.Batch)
		}
		if p.Throughput <= 0 || p.P99Millis <= 0 {
			t.Errorf("%d clients: non-positive timing %+v", p.Clients, p)
		}
	}
}

func TestE24AuditorReplayAndTamperEvidence(t *testing.T) {
	tab, err := E24Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4: %v", len(tab.Rows), tab.Rows)
	}
	for _, r := range tab.Rows {
		if r[4] != "PASS" {
			t.Errorf("E24 %s: %v", r[0], r)
		}
	}
	// The tamper sweep must actually have exercised a non-trivial export.
	if tab.Rows[1][1] == "0" || tab.Rows[1][3] == "0/0" {
		t.Error("chaos run journaled no entries")
	}
}

func TestE25PolicyMosaicDenial(t *testing.T) {
	tab, err := E25Policy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5: %v", len(tab.Rows), tab.Rows)
	}
	for _, r := range tab.Rows {
		if r[3] != "PASS" {
			t.Errorf("E25 %s: %v", r[0], r)
		}
	}
	// The untainted workload must be genuinely unaffected, and the mosaic
	// genuinely denied — not both vacuously green.
	if cell(t, tab, "untainted egress ×10", 1) != "10 ok" {
		t.Errorf("untainted workload was affected: %v", tab.Rows[0])
	}
	if cell(t, tab, "mosaic exfil (ids→net)", 1) != "denied" {
		t.Errorf("mosaic exfil not denied: %v", tab.Rows[1])
	}
}

func TestE26RollingReplace(t *testing.T) {
	tab, err := E26Rolling()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4: %v", len(tab.Rows), tab.Rows)
	}
	for _, r := range tab.Rows {
		if r[3] != "PASS" {
			t.Errorf("E26 %s: %v", r[0], r)
		}
	}
	// The fleet must have genuinely rotated: four epochs, not zero.
	if cell(t, tab, "rolling replace, zero loss", 1) != "4" {
		t.Errorf("rolling replace did not reach epoch 4: %v", tab.Rows[0])
	}
}

func TestE26BaselinePhases(t *testing.T) {
	phases, err := E26Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 6 {
		t.Fatalf("phases = %d, want 6", len(phases))
	}
	last := phases[len(phases)-1]
	if last.Epoch != 4 || last.Healthy != 3 {
		t.Fatalf("post-replace fleet at epoch %d with %d healthy, want 4/3", last.Epoch, last.Healthy)
	}
	for _, p := range phases {
		if p.Accepted != p.Readings {
			t.Errorf("phase %s accepted %d of %d readings", p.Phase, p.Accepted, p.Readings)
		}
	}
}

func TestE27Coalescing(t *testing.T) {
	tab, err := E27Coalescing()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4: %v", len(tab.Rows), tab.Rows)
	}
	// Balanced books with coalescing engaged at every RTT, and the
	// headline factor over one record per call at 1 ms.
	for _, r := range tab.Rows {
		if r[6] != "PASS" {
			t.Errorf("E27 %s: %v", r[0], r)
		}
	}
}

func TestE27BaselinePoints(t *testing.T) {
	points, err := E27Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	// The uncoalesced wire seals one record per call; at 1 ms coalescing
	// must beat that by 8x.
	p := points[1]
	if p.RTTMicros != 1000 || p.SealedRecords*8 > uint64(p.Calls) {
		t.Fatalf("coalescing saved < 8x AEAD passes over one per call: %+v", p)
	}
	if p.SubsPerRecord < 2 {
		t.Fatalf("coalesced records packed %.2f subs/record, want >= 2", p.SubsPerRecord)
	}
}
