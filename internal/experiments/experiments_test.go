package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// Every experiment computes its own verdicts as named checks (Table.Check)
// over its own values — who wins, by roughly what factor, where the
// qualitative flips happen, which is the reproduction target for a vision
// paper. Each test below pins one experiment's checks, so each experiment
// runs once per go test.

// pin runs one experiment and requires all of its checks.
func pin(t *testing.T, run func() (Table, error)) { t.Helper(); pinChecks(t, run, "") }

// pinChecks runs one experiment and fails on a Run error, an empty table,
// a rendering without the ID, no check named with prefix, and on each
// failed check so named, reported with its detail.
func pinChecks(t *testing.T, run func() (Table, error), prefix string) {
	t.Helper()
	tab, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Errorf("%s: empty table", tab.ID)
	}
	if !strings.Contains(tab.String(), tab.ID) {
		t.Errorf("%s: String() missing ID", tab.ID)
	}
	n := 0
	for _, c := range tab.Checks {
		if !strings.HasPrefix(c.Name, prefix) {
			continue
		}
		n++
		if !c.OK {
			t.Errorf("%s: %s: %s", tab.ID, c.Name, c.Detail)
		}
	}
	if n == 0 {
		t.Errorf("%s: no check named %q…", tab.ID, prefix)
	}
}

func TestE1ShapeVerticalWorstPOLABest(t *testing.T)         { pin(t, E1Containment) }
func TestE2EverySubstrateRunsTheSameComponent(t *testing.T) { pin(t, E2Portability) }
func TestE3AllScenariosPass(t *testing.T)                   { pin(t, E3SmartMeter) }
func TestE4CostOrdering(t *testing.T)                       { pin(t, E4Invocation) }
func TestE5TwoOrdersOfMagnitude(t *testing.T)               { pin(t, E5TCB) }
func TestE6ChannelOpenThenClosed(t *testing.T)              { pin(t, E6Covert) }
func TestE7DetectionMatrix(t *testing.T)                    { pin(t, E7VPFS) }
func TestE8AmbientExploitableCapabilitySafe(t *testing.T)   { pin(t, E8Deputy) }
func TestE9HardwareAuthImmune(t *testing.T)                 { pin(t, E9Phishing) }
func TestE10GatewayStopsFlood(t *testing.T)                 { pin(t, E10Gateway) }
func TestE11LaunchPolicies(t *testing.T)                    { pin(t, E11Boot) }
func TestE12AllSubstratesMatchTheirClaims(t *testing.T)     { pin(t, E12BusTap) }
func TestE13MuxDefeatsOverlay(t *testing.T)                 { pin(t, E13GUI) }
func TestE14SerializationPenalty(t *testing.T)              { pin(t, E14Concurrency) }
func TestE15Interchangeability(t *testing.T)                { pin(t, E15Interchangeability) }
func TestE16IOMMU(t *testing.T)                             { pin(t, E16IOMMU) }
func TestE17Distributed(t *testing.T)                       { pin(t, E17Distributed) }
func TestE18AutoPartition(t *testing.T)                     { pin(t, E18AutoPartition) }
func TestE19ClusterScalesAndSurvivesChaos(t *testing.T)     { pin(t, E19Cluster) }
func TestE20StallContainment(t *testing.T)                  { pin(t, E20Stall) }
func TestE21Simulation(t *testing.T)                        { pin(t, E21Simulation) }
func TestE22Pipelining(t *testing.T)                        { pin(t, E22Pipelining) }
func TestE23ShardedFleet(t *testing.T)                      { pin(t, E23Sharding) }
func TestE24AuditorReplayAndTamperEvidence(t *testing.T)    { pin(t, E24Audit) }
func TestE25PolicyMosaicDenial(t *testing.T)                { pin(t, E25Policy) }
func TestE26RollingReplace(t *testing.T)                    { pin(t, E26Rolling) }
func TestE27Coalescing(t *testing.T)                        { pin(t, E27Coalescing) }

// TestNoCInSubstrateSweep pins E2's checks on the NoC mesh row.
func TestNoCInSubstrateSweep(t *testing.T) { pinChecks(t, E2Portability, "noc ") }

// TestAllRegistryRunsClean checks the registry's shape: E1–E27 in order,
// each with a name and a runner. The pins above run every experiment.
func TestAllRegistryRunsClean(t *testing.T) {
	all := All()
	if len(all) != 27 {
		t.Fatalf("registry holds %d experiments, want 27", len(all))
	}
	for i, e := range all {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("registry entry %d is %q, want %q", i, e.ID, want)
		}
		if e.Name == "" || e.Run == nil {
			t.Errorf("%s: missing name or runner", e.ID)
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
	tab.Check("holds", true, "seen")
	if err := tab.Err(); err != nil {
		t.Errorf("every check passed, yet Err = %v", err)
	}
	tab.Check("breaks", false, "why")
	s := tab.String()
	for _, want := range []string{"a", "bb", "2.500", "PASS  holds: seen", "FAIL  breaks: why", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	if err := tab.Err(); err == nil || !strings.Contains(err.Error(), "breaks (why)") || strings.Contains(err.Error(), "holds") {
		t.Errorf("Err = %v, want it to name only the failed check", err)
	}
}
