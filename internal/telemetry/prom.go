package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// escapeLabel escapes a Prometheus label value per the text exposition
// format: backslash, double-quote, and newline.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// edgeLabel renders a channel edge as a single label value:
// "ui->net/net" for calls, "->ui/(deliver)" for external stimuli.
func edgeLabel(c ChannelSummary) string {
	return c.From + "->" + c.To + "/" + c.Channel
}

// WritePrometheus emits the collector's state in the Prometheus text
// exposition format (version 0.0.4): per-domain invocation/fault/asset
// counters, per-channel latency histograms (cumulative le buckets), and
// per-link wire traffic. Output ordering is deterministic.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	// Domain counters.
	domains := m.Domains()
	if _, err := fmt.Fprint(w,
		"# HELP lateral_domain_invocations_total Handler executions per protection domain.\n",
		"# TYPE lateral_domain_invocations_total counter\n"); err != nil {
		return err
	}
	for _, d := range domains {
		fmt.Fprintf(w, "lateral_domain_invocations_total{domain=%q,trusted=%q} %d\n",
			escapeLabel(d.Name), boolLabel(d.Trusted), d.Invocations)
	}
	fmt.Fprint(w,
		"# HELP lateral_domain_faults_total Handler executions that returned an error.\n",
		"# TYPE lateral_domain_faults_total counter\n")
	for _, d := range domains {
		fmt.Fprintf(w, "lateral_domain_faults_total{domain=%q} %d\n", escapeLabel(d.Name), d.Faults)
	}
	fmt.Fprint(w,
		"# HELP lateral_asset_ops_total Asset accesses in domain memory.\n",
		"# TYPE lateral_asset_ops_total counter\n")
	for _, d := range domains {
		fmt.Fprintf(w, "lateral_asset_ops_total{domain=%q,op=\"store\"} %d\n", escapeLabel(d.Name), d.AssetStores)
		fmt.Fprintf(w, "lateral_asset_ops_total{domain=%q,op=\"load\"} %d\n", escapeLabel(d.Name), d.AssetLoads)
	}
	fmt.Fprint(w,
		"# HELP lateral_asset_bytes_total Bytes moved to or from domain memory by asset accesses.\n",
		"# TYPE lateral_asset_bytes_total counter\n")
	for _, d := range domains {
		fmt.Fprintf(w, "lateral_asset_bytes_total{domain=%q} %d\n", escapeLabel(d.Name), d.AssetBytes)
	}

	// Per-channel latency histograms.
	fmt.Fprint(w,
		"# HELP lateral_channel_latency_seconds Cross-domain invocation latency per channel.\n",
		"# TYPE lateral_channel_latency_seconds histogram\n")
	chans := m.Channels()
	cells := m.channelCells()
	for _, c := range chans {
		cs := cells[edgeLabel(c)]
		if cs == nil {
			continue
		}
		snap := cs.Hist.Snapshot()
		label := escapeLabel(edgeLabel(c))
		var cum uint64
		for _, b := range snap.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "lateral_channel_latency_seconds_bucket{channel=%q,le=\"%g\"} %d\n",
				label, float64(b.BoundNs)/1e9, cum)
		}
		fmt.Fprintf(w, "lateral_channel_latency_seconds_bucket{channel=%q,le=\"+Inf\"} %d\n", label, snap.Count)
		fmt.Fprintf(w, "lateral_channel_latency_seconds_sum{channel=%q} %g\n", label, float64(snap.SumNs)/1e9)
		fmt.Fprintf(w, "lateral_channel_latency_seconds_count{channel=%q} %d\n", label, snap.Count)
	}
	fmt.Fprint(w,
		"# HELP lateral_channel_errors_total Invocations that returned an error, per channel.\n",
		"# TYPE lateral_channel_errors_total counter\n")
	for _, c := range chans {
		fmt.Fprintf(w, "lateral_channel_errors_total{channel=%q} %d\n", escapeLabel(edgeLabel(c)), c.Errors)
	}

	// Budget failures. Subsets of errors_total, broken out so operators
	// can alert on stalls and shedding before the generic error rate moves.
	fmt.Fprint(w,
		"# HELP lateral_call_timeouts_total Invocations abandoned at their deadline, per channel.\n",
		"# TYPE lateral_call_timeouts_total counter\n")
	for _, c := range chans {
		fmt.Fprintf(w, "lateral_call_timeouts_total{channel=%q} %d\n", escapeLabel(edgeLabel(c)), c.Timeouts)
	}
	fmt.Fprint(w,
		"# HELP lateral_call_cancellations_total Invocations abandoned because the caller went away, per channel.\n",
		"# TYPE lateral_call_cancellations_total counter\n")
	for _, c := range chans {
		fmt.Fprintf(w, "lateral_call_cancellations_total{channel=%q} %d\n", escapeLabel(edgeLabel(c)), c.Cancels)
	}
	fmt.Fprint(w,
		"# HELP lateral_call_overloads_total Invocations shed by the target's admission queue, per channel.\n",
		"# TYPE lateral_call_overloads_total counter\n")
	for _, c := range chans {
		fmt.Fprintf(w, "lateral_call_overloads_total{channel=%q} %d\n", escapeLabel(edgeLabel(c)), c.Overloads)
	}

	// Wire traffic.
	links := m.Links()
	fmt.Fprint(w,
		"# HELP lateral_net_datagrams_total Datagrams offered on the simulated network, per directed link.\n",
		"# TYPE lateral_net_datagrams_total counter\n")
	for _, l := range links {
		fmt.Fprintf(w, "lateral_net_datagrams_total{link=%q} %d\n",
			escapeLabel(l.From+"->"+l.To), l.Datagrams)
	}
	fmt.Fprint(w,
		"# HELP lateral_net_bytes_total Payload bytes offered on the simulated network, per directed link.\n",
		"# TYPE lateral_net_bytes_total counter\n")
	for _, l := range links {
		_, err := fmt.Fprintf(w, "lateral_net_bytes_total{link=%q} %d\n",
			escapeLabel(l.From+"->"+l.To), l.Bytes)
		if err != nil {
			return err
		}
	}

	// Stub pipelining. Emitted only when a stub actually reported — most
	// scenarios have no distributed edge and their exposition stays
	// unchanged.
	if stubs := m.Stubs(); len(stubs) > 0 {
		type stubCol struct {
			name, help, typ string
			val             func(StubSummary) int64
		}
		scols := []stubCol{
			{"lateral_stub_inflight", "Pipelined calls currently awaiting replies on the stub's session.", "gauge",
				func(s StubSummary) int64 { return s.Inflight }},
			{"lateral_stub_pipeline_depth_max", "High-water mark of concurrent in-flight calls on the stub.", "gauge",
				func(s StubSummary) int64 { return s.DepthMax }},
			{"lateral_stub_calls_total", "Calls issued over the stub's attested session.", "counter",
				func(s StubSummary) int64 { return s.Calls }},
			{"lateral_stub_pipeline_depth_sum", "Sum of pipeline depth observed at each call's issue (divide by calls for the mean).", "counter",
				func(s StubSummary) int64 { return s.DepthSum }},
			{"lateral_stub_orphan_replies_total", "Replies dropped because no caller was parked on their correlation ID.", "counter",
				func(s StubSummary) int64 { return s.Orphans }},
		}
		for _, c := range scols {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", c.name, c.help, c.name, c.typ)
			for _, s := range stubs {
				_, err := fmt.Fprintf(w, "%s{stub=%q} %d\n", c.name, escapeLabel(s.Stub), c.val(s))
				if err != nil {
					return err
				}
			}
		}

		// Coalescing. Emitted only when some stub coalesced: purely
		// sequential workloads keep their exposition byte-identical.
		coalesced := false
		for _, s := range stubs {
			if s.CoalRecords > 0 {
				coalesced = true
				break
			}
		}
		if coalesced {
			ccols := []stubCol{
				{"lateral_stub_coalesce_records_total", "Coalesced records sealed (two or more sub-frames sharing one AEAD pass).", "counter",
					func(s StubSummary) int64 { return s.CoalRecords }},
				{"lateral_stub_coalesce_subframes_total", "Sub-frames carried by coalesced records.", "counter",
					func(s StubSummary) int64 { return s.CoalSubs }},
				{"lateral_stub_coalesce_saved_total", "AEAD passes saved by coalescing (sub-frames minus records).", "counter",
					func(s StubSummary) int64 { return s.CoalSubs - s.CoalRecords }},
			}
			for _, c := range ccols {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", c.name, c.help, c.name, c.typ)
				for _, s := range stubs {
					_, err := fmt.Fprintf(w, "%s{stub=%q} %d\n", c.name, escapeLabel(s.Stub), c.val(s))
					if err != nil {
						return err
					}
				}
			}
		}
	}

	// Journal (fleet black box). Emitted only when a journal reported —
	// unjournaled runs keep their exposition byte-identical.
	if journals := m.Journals(); len(journals) > 0 {
		fmt.Fprint(w,
			"# HELP lateral_journal_events_total Entries appended to the hash-chained event journal, per kind.\n",
			"# TYPE lateral_journal_events_total counter\n")
		for _, j := range journals {
			for _, kind := range sortedKeys(j.ByKind) {
				fmt.Fprintf(w, "lateral_journal_events_total{journal=%q,kind=%q} %d\n",
					escapeLabel(j.Journal), escapeLabel(kind), j.ByKind[kind])
			}
		}
		fmt.Fprint(w,
			"# HELP lateral_journal_checkpoints_total Signed checkpoints anchoring the chain head to the trusted counter.\n",
			"# TYPE lateral_journal_checkpoints_total counter\n")
		for _, j := range journals {
			fmt.Fprintf(w, "lateral_journal_checkpoints_total{journal=%q} %d\n", escapeLabel(j.Journal), j.Checkpoints)
		}
		fmt.Fprint(w,
			"# HELP lateral_journal_checkpoint_seq Chain position covered by the latest signed checkpoint.\n",
			"# TYPE lateral_journal_checkpoint_seq gauge\n")
		for _, j := range journals {
			fmt.Fprintf(w, "lateral_journal_checkpoint_seq{journal=%q} %d\n", escapeLabel(j.Journal), j.CheckpointSeq)
		}
		fmt.Fprint(w,
			"# HELP lateral_journal_checkpoint_counter Trusted monotonic counter value the latest checkpoint anchors to.\n",
			"# TYPE lateral_journal_checkpoint_counter gauge\n")
		for _, j := range journals {
			fmt.Fprintf(w, "lateral_journal_checkpoint_counter{journal=%q} %d\n", escapeLabel(j.Journal), j.CheckpointCounter)
		}
		fmt.Fprint(w,
			"# HELP lateral_journal_dropped_total Events refused because the journal bound was reached (non-zero = incomplete black box).\n",
			"# TYPE lateral_journal_dropped_total counter\n")
		for _, j := range journals {
			fmt.Fprintf(w, "lateral_journal_dropped_total{journal=%q} %d\n", escapeLabel(j.Journal), j.Dropped)
		}
		fmt.Fprint(w,
			"# HELP lateral_journal_flight_dumps_total Anomaly-triggered flight-recorder dumps, per trigger.\n",
			"# TYPE lateral_journal_flight_dumps_total counter\n")
		for _, j := range journals {
			for _, trig := range sortedKeys(j.FlightDumps) {
				_, err := fmt.Fprintf(w, "lateral_journal_flight_dumps_total{journal=%q,trigger=%q} %d\n",
					escapeLabel(j.Journal), escapeLabel(trig), j.FlightDumps[trig])
				if err != nil {
					return err
				}
			}
		}
	}

	// Policy engines. Emitted only when an engine reported a decision —
	// unpoliced runs keep their exposition byte-identical.
	if policies := m.Policies(); len(policies) > 0 {
		fmt.Fprint(w,
			"# HELP lateral_policy_decisions_total Chain-aware policy verdicts, per effect.\n",
			"# TYPE lateral_policy_decisions_total counter\n")
		for _, p := range policies {
			for _, effect := range sortedKeys(p.Decisions) {
				fmt.Fprintf(w, "lateral_policy_decisions_total{engine=%q,effect=%q} %d\n",
					escapeLabel(p.Engine), escapeLabel(effect), p.Decisions[effect])
			}
		}
		fmt.Fprint(w,
			"# HELP lateral_policy_rule_hits_total Policy verdicts per matched rule; \"(default)\" is the implicit allow.\n",
			"# TYPE lateral_policy_rule_hits_total counter\n")
		for _, p := range policies {
			for _, rule := range sortedKeys(p.RuleHits) {
				fmt.Fprintf(w, "lateral_policy_rule_hits_total{engine=%q,rule=%q} %d\n",
					escapeLabel(p.Engine), escapeLabel(rule), p.RuleHits[rule])
			}
		}
		fmt.Fprint(w,
			"# HELP lateral_policy_grants_total Approval-grant lifecycle events (mint, reuse, expire).\n",
			"# TYPE lateral_policy_grants_total counter\n")
		for _, p := range policies {
			for _, event := range sortedKeys(p.Grants) {
				_, err := fmt.Fprintf(w, "lateral_policy_grants_total{engine=%q,event=%q} %d\n",
					escapeLabel(p.Engine), escapeLabel(event), p.Grants[event])
				if err != nil {
					return err
				}
			}
		}
	}

	// Config epochs. Emitted only once a fleet has completed a membership
	// transition — static fleets keep their exposition byte-identical.
	if epochs := m.Epochs(); len(epochs) > 0 {
		fmt.Fprint(w,
			"# HELP lateral_epoch_number Active fleet config epoch.\n",
			"# TYPE lateral_epoch_number gauge\n")
		for _, e := range epochs {
			fmt.Fprintf(w, "lateral_epoch_number{fleet=%q} %d\n", escapeLabel(e.Fleet), e.Epoch)
		}
		fmt.Fprint(w,
			"# HELP lateral_epoch_transitions_total Config-epoch transitions completed (join/leave).\n",
			"# TYPE lateral_epoch_transitions_total counter\n")
		for _, e := range epochs {
			fmt.Fprintf(w, "lateral_epoch_transitions_total{fleet=%q} %d\n", escapeLabel(e.Fleet), e.Transitions)
		}
		fmt.Fprint(w,
			"# HELP lateral_epoch_rekeys_total Member session rekeys across epoch transitions, by outcome.\n",
			"# TYPE lateral_epoch_rekeys_total counter\n")
		for _, e := range epochs {
			_, err := fmt.Fprintf(w, "lateral_epoch_rekeys_total{fleet=%q,outcome=\"ok\"} %d\nlateral_epoch_rekeys_total{fleet=%q,outcome=\"fail\"} %d\n",
				escapeLabel(e.Fleet), e.Rekeys, escapeLabel(e.Fleet), e.RekeyFails)
			if err != nil {
				return err
			}
		}
	}

	// Shard fabrics. Emitted only once a shard router reports.
	if fabrics := m.ShardFabrics(); len(fabrics) > 0 {
		fmt.Fprint(w,
			"# HELP lateral_shard_epoch Active shard-map epoch.\n",
			"# TYPE lateral_shard_epoch gauge\n")
		for _, f := range fabrics {
			fmt.Fprintf(w, "lateral_shard_epoch{fleet=%q} %d\n", escapeLabel(f.Fleet), f.Epoch)
		}
		fmt.Fprint(w,
			"# HELP lateral_shard_count Shards currently mapped in the fabric.\n",
			"# TYPE lateral_shard_count gauge\n")
		for _, f := range fabrics {
			fmt.Fprintf(w, "lateral_shard_count{fleet=%q} %d\n", escapeLabel(f.Fleet), f.Shards)
		}
		fmt.Fprint(w,
			"# HELP lateral_shard_rebalances_total Shard-map transitions (join/leave) completed.\n",
			"# TYPE lateral_shard_rebalances_total counter\n")
		for _, f := range fabrics {
			fmt.Fprintf(w, "lateral_shard_rebalances_total{fleet=%q} %d\n", escapeLabel(f.Fleet), f.Rebalances)
		}
		fmt.Fprint(w,
			"# HELP lateral_shard_readings_routed_total Readings routed through the shard map.\n",
			"# TYPE lateral_shard_readings_routed_total counter\n")
		for _, f := range fabrics {
			fmt.Fprintf(w, "lateral_shard_readings_routed_total{fleet=%q} %d\n", escapeLabel(f.Fleet), f.Routed)
		}
		fmt.Fprint(w,
			"# HELP lateral_shard_batches_total Batched dispatches and the readings they carried.\n",
			"# TYPE lateral_shard_batches_total counter\n")
		for _, f := range fabrics {
			fmt.Fprintf(w, "lateral_shard_batches_total{fleet=%q,unit=\"frames\"} %d\nlateral_shard_batches_total{fleet=%q,unit=\"readings\"} %d\n",
				escapeLabel(f.Fleet), f.Batches, escapeLabel(f.Fleet), f.BatchedIn)
		}
		fmt.Fprint(w,
			"# HELP lateral_shard_quota_denies_total Tenant admissions refused at the per-tenant quota.\n",
			"# TYPE lateral_shard_quota_denies_total counter\n")
		for _, f := range fabrics {
			_, err := fmt.Fprintf(w, "lateral_shard_quota_denies_total{fleet=%q} %d\n", escapeLabel(f.Fleet), f.QuotaDenies)
			if err != nil {
				return err
			}
		}
	}

	// Replica fleets.
	fleets := m.Fleets()
	if len(fleets) == 0 {
		return nil
	}
	type fleetCol struct {
		name, help, typ string
		val             func(ReplicaSummary) int64
	}
	cols := []fleetCol{
		{"lateral_cluster_replica_healthy", "Replica admitted and passing health checks (1) or not (0).", "gauge",
			func(r ReplicaSummary) int64 { return b2i(r.Healthy) }},
		{"lateral_cluster_replica_quarantined", "Replica permanently expelled after failed attestation (1) or not (0).", "gauge",
			func(r ReplicaSummary) int64 { return b2i(r.Quarantined) }},
		{"lateral_cluster_replica_inflight", "Calls currently outstanding against the replica.", "gauge",
			func(r ReplicaSummary) int64 { return r.Inflight }},
		{"lateral_cluster_replica_calls_total", "Calls dispatched to the replica.", "counter",
			func(r ReplicaSummary) int64 { return r.Calls }},
		{"lateral_cluster_replica_errors_total", "Calls that failed on the replica.", "counter",
			func(r ReplicaSummary) int64 { return r.Errors }},
		{"lateral_cluster_replica_retries_total", "Backoff retries charged to the replica.", "counter",
			func(r ReplicaSummary) int64 { return r.Retries }},
		{"lateral_cluster_replica_failovers_total", "Calls re-routed away from the replica.", "counter",
			func(r ReplicaSummary) int64 { return r.Failovers }},
	}
	for _, c := range cols {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", c.name, c.help, c.name, c.typ)
		for _, r := range fleets {
			_, err := fmt.Fprintf(w, "%s{fleet=%q,replica=%q} %d\n",
				c.name, escapeLabel(r.Fleet), escapeLabel(r.Replica), c.val(r))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// channelCells returns the live stats cells keyed by edge label, so the
// exposition writer can reach raw histograms for the summaries it prints.
func (m *Metrics) channelCells() map[string]*ChannelStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]*ChannelStats)
	for _, bySender := range m.channels {
		for _, cs := range bySender {
			out[cs.From+"->"+cs.To+"/"+cs.Channel] = cs
		}
	}
	return out
}

// WriteSummary prints a human-readable per-channel latency table, sorted
// like Channels().
func (m *Metrics) WriteSummary(w io.Writer) {
	chans := m.Channels()
	fmt.Fprintf(w, "%-28s %8s %6s %6s %6s %6s %10s %10s %10s %10s\n",
		"channel", "count", "errs", "tmout", "cancel", "shed", "mean", "p50", "p99", "max")
	for _, c := range chans {
		fmt.Fprintf(w, "%-28s %8d %6d %6d %6d %6d %10s %10s %10s %10s\n",
			edgeLabel(c), c.Count, c.Errors, c.Timeouts, c.Cancels, c.Overloads,
			c.Mean, c.P50, c.P99, c.Max)
	}
	doms := m.Domains()
	if len(doms) > 0 {
		fmt.Fprintf(w, "\n%-16s %8s %7s %7s %7s %11s %8s\n",
			"domain", "invocs", "faults", "stores", "loads", "asset-bytes", "trusted")
		for _, d := range doms {
			fmt.Fprintf(w, "%-16s %8d %7d %7d %7d %11d %8s\n",
				d.Name, d.Invocations, d.Faults, d.AssetStores, d.AssetLoads, d.AssetBytes, boolLabel(d.Trusted))
		}
	}
	if stubs := m.Stubs(); len(stubs) > 0 {
		fmt.Fprintf(w, "\n%-16s %9s %10s %7s %11s %8s\n",
			"stub", "inflight", "depth-max", "calls", "mean-depth", "orphans")
		for _, s := range stubs {
			mean := float64(0)
			if s.Calls > 0 {
				mean = float64(s.DepthSum) / float64(s.Calls)
			}
			fmt.Fprintf(w, "%-16s %9d %10d %7d %11.2f %8d\n",
				s.Stub, s.Inflight, s.DepthMax, s.Calls, mean, s.Orphans)
		}
		coalesced := false
		for _, s := range stubs {
			if s.CoalRecords > 0 {
				coalesced = true
				break
			}
		}
		if coalesced {
			fmt.Fprintf(w, "\n%-16s %9s %10s %11s %11s\n",
				"stub", "coalesced", "subframes", "avg-window", "aead-saved")
			for _, s := range stubs {
				avg := float64(0)
				if s.CoalRecords > 0 {
					avg = float64(s.CoalSubs) / float64(s.CoalRecords)
				}
				fmt.Fprintf(w, "%-16s %9d %10d %11.2f %11d\n",
					s.Stub, s.CoalRecords, s.CoalSubs, avg, s.CoalSubs-s.CoalRecords)
			}
		}
	}
	if journals := m.Journals(); len(journals) > 0 {
		fmt.Fprintf(w, "\n%-16s %7s %12s %9s %9s %8s %6s\n",
			"journal", "events", "checkpoints", "ckpt-seq", "ckpt-ctr", "dropped", "dumps")
		for _, j := range journals {
			var dumps int64
			for _, v := range j.FlightDumps {
				dumps += v
			}
			fmt.Fprintf(w, "%-16s %7d %12d %9d %9d %8d %6d\n",
				j.Journal, j.Events, j.Checkpoints, j.CheckpointSeq, j.CheckpointCounter, j.Dropped, dumps)
		}
	}
	if policies := m.Policies(); len(policies) > 0 {
		fmt.Fprintf(w, "\n%-16s %7s %7s %8s %6s %7s %8s\n",
			"policy", "allows", "denies", "approves", "mints", "reuses", "expires")
		for _, p := range policies {
			fmt.Fprintf(w, "%-16s %7d %7d %8d %6d %7d %8d\n",
				p.Engine, p.Decisions["allow"], p.Decisions["deny"], p.Decisions["approve"],
				p.Grants["mint"], p.Grants["reuse"], p.Grants["expire"])
		}
	}
	if epochs := m.Epochs(); len(epochs) > 0 {
		fmt.Fprintf(w, "\n%-16s %6s %12s %7s %11s %-24s\n",
			"fleet", "epoch", "transitions", "rekeys", "rekey-fails", "last-reason")
		for _, e := range epochs {
			fmt.Fprintf(w, "%-16s %6d %12d %7d %11d %-24s\n",
				e.Fleet, e.Epoch, e.Transitions, e.Rekeys, e.RekeyFails, e.LastReason)
		}
	}
	if fabrics := m.ShardFabrics(); len(fabrics) > 0 {
		fmt.Fprintf(w, "\n%-16s %6s %7s %11s %8s %8s %10s %7s\n",
			"fabric", "epoch", "shards", "rebalances", "routed", "batches", "batched-in", "denies")
		for _, f := range fabrics {
			fmt.Fprintf(w, "%-16s %6d %7d %11d %8d %8d %10d %7d\n",
				f.Fleet, f.Epoch, f.Shards, f.Rebalances, f.Routed, f.Batches, f.BatchedIn, f.QuotaDenies)
		}
	}
	fleets := m.Fleets()
	if len(fleets) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-24s %8s %12s %9s %7s %6s %8s %10s\n",
		"fleet/replica", "healthy", "quarantined", "inflight", "calls", "errs", "retries", "failovers")
	for _, r := range fleets {
		fmt.Fprintf(w, "%-24s %8s %12s %9d %7d %6d %8d %10d\n",
			r.Fleet+"/"+r.Replica, boolLabel(r.Healthy), boolLabel(r.Quarantined),
			r.Inflight, r.Calls, r.Errors, r.Retries, r.Failovers)
	}
}

func boolLabel(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
