package experiments

import (
	"fmt"

	"lateral/internal/attack"
	"lateral/internal/core"
	"lateral/internal/kernel"
	"lateral/internal/partition"
)

// e18Program is the annotated mail monolith the partitioner consumes —
// what a Privtrans-style source analysis would emit.
func e18Program() *partition.Program {
	return &partition.Program{Functions: []partition.Function{
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
}

// E18AutoPartition closes §IV's loop: "developers need support for
// application decomposition ... existing approaches [Privtrans, Swift]
// should be extended." The annotated monolith is partitioned
// automatically (asset-affinity clustering + attack-surface eviction),
// instantiated on a microkernel, and attacked function by function; the
// table compares mean asset leakage against the same program run
// monolithically.
func E18AutoPartition() (Table, error) {
	t := Table{
		ID:     "E18",
		Title:  "automatic partitioning: containment before/after",
		Anchor: "§IV decomposition tooling (Privtrans/Swift refs 47, 48)",
		Header: []string{"layout", "domains", "channels", "mean-leak", "render-exploit-leak"},
	}
	prog := e18Program()
	res, err := partition.Partition(prog)
	if err != nil {
		return t, err
	}
	mono, err := partition.MonolithicManifest(prog)
	if err != nil {
		return t, err
	}
	stats := res.Summarize()
	targets := prog.FunctionNames()

	measure := func(m func() (*core.System, map[string][]byte, error)) (mean, render float64, err error) {
		rs, err := attack.ContainmentSweep(m, targets)
		if err != nil {
			return 0, 0, err
		}
		for _, r := range rs {
			if r.Compromised == "render_html" {
				render = r.LeakFraction()
			}
		}
		return attack.MeanLeakFraction(rs), render, nil
	}
	monoMean, monoRender, err := measure(func() (*core.System, map[string][]byte, error) {
		return partition.Instantiate(prog, core.NewMonolith(0), mono)
	})
	if err != nil {
		return t, fmt.Errorf("E18 monolith: %w", err)
	}
	partMean, partRender, err := measure(func() (*core.System, map[string][]byte, error) {
		return partition.Instantiate(prog, kernel.New(kernel.Config{}), res.Manifest)
	})
	if err != nil {
		return t, fmt.Errorf("E18 partitioned: %w", err)
	}
	t.AddRow("monolithic", 1, len(mono.Channels),
		fmt.Sprintf("%.2f", monoMean), fmt.Sprintf("%.2f", monoRender))
	t.AddRow("auto-partitioned", stats.Domains, stats.Channels,
		fmt.Sprintf("%.2f", partMean), fmt.Sprintf("%.2f", partRender))
	t.Check("monolithic mean leak is total", monoMean == 1, fmt.Sprintf("mean %.2f", monoMean))
	t.Check("auto-partitioned contains the render exploit", partRender == 0, fmt.Sprintf("leak %.2f", partRender))
	t.Check("partitioned mean < monolithic/2", partMean < monoMean/2,
		fmt.Sprintf("%.2f vs %.2f", partMean, monoMean))
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d functions, %d exposed; partitioner used asset-affinity clustering + attack-surface eviction",
			stats.Functions, stats.Exposed))
	return t, nil
}
