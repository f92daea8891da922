package main

// metricDef names one reported metric. The lists below are the benchmark's
// contract and must match BENCHMARK.json (TestBenchmarkJSONMatches).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a caller of the system sees; every workload reports all
// of them on an untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"first_try_rate", "fraction", "higher"},
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MiB", "lower"},
}

// perLayer is reported on a traced run. Counter metrics come from the
// untraced measured phase of that run; span metrics from its traced phase.
// A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"core.self_us", "us", "lower"},
	{"policy.check_ns", "ns", "lower"},
	{"policy.checks_per_op", "count", "lower"},
	{"distributed.stub_self_us", "us", "lower"},
	{"distributed.wait_us", "us", "lower"},
	{"distributed.records_per_call", "count", "lower"},
	{"distributed.subs_per_record", "count", "higher"},
	{"distributed.serve_us_p50", "us", "lower"},
	{"distributed.serve_us_p99", "us", "lower"},
	{"distributed.serves_per_op", "count", "lower"},
	{"distributed.datagrams_per_serve", "count", "higher"},
	{"distributed.orphans", "count", "lower"},
	{"distributed.max_inflight", "count", "higher"},
	{"handler.busy_us", "us", "lower"},
	{"handler.share", "fraction", "higher"},
	{"netsim.datagrams_per_op", "count", "lower"},
	{"netsim.wire_bytes_per_op", "B", "lower"},
	{"netsim.overhead_bytes_per_op", "B", "lower"},
	{"attest.verify_us", "us", "lower"},
	{"securechan.handshake_ms", "ms", "lower"},
	{"cluster.join_ms", "ms", "lower"},
	{"cluster.leave_ms", "ms", "lower"},
	{"cluster.transition_p50_ms", "ms", "lower"},
	{"cluster.retries_per_op", "count", "lower"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.no_healthy_per_op", "count", "lower"},
	{"cluster.lost_calls", "count", "lower"},
	{"cluster.processed_minus_acked", "count", "lower"},
	{"shard.flush_us_p50", "us", "lower"},
	{"shard.flush_us_p99", "us", "lower"},
	{"shard.readings_per_frame", "count", "higher"},
	{"shard.route_skew", "ratio", "lower"},
	{"shard.quota_denies", "count", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles_per_s", "1/s", "lower"},
	{"trace.overhead", "fraction", "lower"},
	{"trace.spans", "count", "higher"},
}
