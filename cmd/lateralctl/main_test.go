package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestMetricsSummaryGolden pins the exact bytes of the `lateralctl
// metrics summary` table. The scenario latencies in main.go are
// wall-clock, so the test feeds the metrics collector a fixed synthetic
// workload instead — including a timeout, a cancellation, and a shed, so
// the tmout/cancel/shed columns render non-zero. Regenerate after an
// intentional format change with:
//
//	go test ./cmd/lateralctl -run Golden -update
func TestMetricsSummaryGolden(t *testing.T) {
	var buf bytes.Buffer
	goldenMetrics().WriteSummary(&buf)
	compareGolden(t, "metrics_summary.golden", buf.Bytes())
}

// TestMetricsPrometheusGolden pins the full Prometheus exposition for the
// same synthetic workload — every family, including the lateral_stub_*
// pipelining counters and the lateral_journal_* black-box counters.
func TestMetricsPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenMetrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"lateral_stub_calls_total", "lateral_stub_coalesce_records_total",
		"lateral_stub_coalesce_saved_total", "lateral_journal_events_total",
		"lateral_journal_checkpoint_counter", "lateral_journal_flight_dumps_total",
		"lateral_policy_decisions_total", "lateral_policy_rule_hits_total",
		"lateral_policy_grants_total", "lateral_shard_epoch", "lateral_shard_count",
		"lateral_shard_rebalances_total", "lateral_shard_readings_routed_total",
		"lateral_shard_batches_total", "lateral_shard_quota_denies_total"} {
		if !bytes.Contains(buf.Bytes(), []byte(family)) {
			t.Errorf("exposition missing family %s", family)
		}
	}
	compareGolden(t, "metrics_prom.golden", buf.Bytes())
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from golden file (run with -update if intentional):\n--- got\n%s--- want\n%s", got, want)
	}
}

// goldenMetrics builds the fixed synthetic workload both golden tests pin.
func goldenMetrics() *telemetry.Metrics {
	m := telemetry.NewMetrics()
	at := time.Unix(1000, 0)

	call := func(id uint64, from, channel, to, op string, elapsed time.Duration, err error) {
		info := core.SpanInfo{Kind: core.SpanCall, Channel: channel, From: from, To: to, Domain: to, Op: op}
		m.SpanEnd(core.Span{Trace: 1, ID: id}, info, at, elapsed, err)
	}
	handle := func(id uint64, comp string, trusted bool, elapsed time.Duration, err error) {
		info := core.SpanInfo{Kind: core.SpanHandle, To: comp, Domain: comp, Trusted: trusted}
		m.SpanEnd(core.Span{Trace: 1, ID: id}, info, at, elapsed, err)
	}

	// A steady channel: five clean calls with fixed latencies.
	for i, d := range []time.Duration{100, 120, 140, 160, 400} {
		call(uint64(i+1), "gateway", "to-store", "store", "put", d*time.Microsecond, nil)
		handle(uint64(i+100), "store", true, d*time.Microsecond/2, nil)
	}
	// A struggling channel: one of each budget failure plus a plain error.
	call(11, "gateway", "to-meter", "meter", "read", 5*time.Millisecond, core.ErrDeadline)
	call(12, "gateway", "to-meter", "meter", "read", time.Millisecond, core.ErrCanceled)
	call(13, "gateway", "to-meter", "meter", "read", 50*time.Microsecond, core.ErrOverloaded)
	call(14, "gateway", "to-meter", "meter", "read", 80*time.Microsecond, core.ErrRefused)
	call(15, "gateway", "to-meter", "meter", "read", 90*time.Microsecond, nil)
	handle(111, "meter", false, 40*time.Microsecond, core.ErrRefused)

	// Asset traffic for the domain table's stores/loads/bytes columns.
	m.SpanEnd(core.Span{Trace: 1, ID: 200},
		core.SpanInfo{Kind: core.SpanAssetStore, To: "store", Domain: "store", Trusted: true, Op: "ledger", Bytes: 512},
		at, 30*time.Microsecond, nil)
	m.SpanEnd(core.Span{Trace: 1, ID: 201},
		core.SpanInfo{Kind: core.SpanAssetLoad, To: "store", Domain: "store", Trusted: true, Op: "ledger", Bytes: 512},
		at, 20*time.Microsecond, nil)

	// Fleet state for the replica table: one healthy and loaded, one
	// quarantined after a failover.
	m.ReplicaState("svc", "svc-1", true, false)
	m.ReplicaInflight("svc", "svc-1", 2)
	m.ReplicaCall("svc", "svc-1", false)
	m.ReplicaCall("svc", "svc-1", false)
	m.ReplicaRetry("svc", "svc-1")
	m.ReplicaState("svc", "svc-2", false, true)
	m.ReplicaCall("svc", "svc-2", true)
	m.ReplicaFailover("svc", "svc-2")

	// Stub pipelining for the stub table: three calls ramping to depth 3,
	// all drained, plus one orphaned reply.
	for depth := 1; depth <= 3; depth++ {
		m.StubInflight("store", 1)
		m.StubCall("store", depth)
	}
	m.StubInflight("store", -3)
	m.StubOrphan("store")

	// Frame coalescing for the coalesce table: two shared records — one
	// pairing two racing calls, one packing four. aead-saved renders as 4:
	// six sub-frames sealed with two AEAD passes.
	m.StubCoalesce("store", 2)
	m.StubCoalesce("store", 4)

	// Fleet black box for the journal table: a short honest run — admit,
	// up, one quarantine with its flight dump — closed by two checkpoints.
	for _, kind := range []string{"admit", "replica-up", "quarantine", "deadline"} {
		m.JournalEvent("svc", kind)
	}
	m.JournalEvent("svc", "deadline")
	m.JournalCheckpoint("svc", 3, 1)
	m.JournalCheckpoint("svc", 5, 2)
	m.JournalDropped("svc")
	m.JournalFlightDump("svc", "quarantine")
	m.JournalFlightDump("svc", "deadline-storm")

	// Shard fabric for the fabric table: three cells joined (the third a
	// rebalance mid-traffic), single and batched readings routed, and one
	// tenant refused at its quota.
	m.ShardMembership("cells", 1, 1)
	m.ShardMembership("cells", 2, 2)
	m.ShardRoute("cells", "cell-1", 1)
	m.ShardRoute("cells", "cell-2", 1)
	m.ShardMembership("cells", 3, 3)
	m.ShardRoute("cells", "cell-3", 4)
	m.ShardBatch("cells", "cell-3", 4)
	m.ShardQuotaDeny("cells", "tenant-9")

	// Policy engine for the policy table: a mostly-allowed workload with
	// one mosaic deny and an approval grant that is minted, reused, and
	// later found expired.
	for i := 0; i < 4; i++ {
		m.PolicyDecision("meter", "allow", "rest")
	}
	m.PolicyDecision("meter", "allow", "(default)")
	m.PolicyDecision("meter", "deny", "no-exfil")
	m.PolicyDecision("meter", "approve", "ops-export")
	m.PolicyDecision("meter", "approve", "ops-export")
	m.PolicyGrant("meter", "ops-export", "mint")
	m.PolicyGrant("meter", "ops-export", "reuse")
	m.PolicyGrant("meter", "ops-export", "expire")

	return m
}
