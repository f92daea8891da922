// lateralbench runs the reproduction experiments and prints their tables —
// the regenerator for every figure and claim in DESIGN.md's per-experiment
// index.
//
//	go run ./cmd/lateralbench            # run everything
//	go run ./cmd/lateralbench E1 E7      # run selected experiments
//	go run ./cmd/lateralbench -list      # list experiment IDs
//	go run ./cmd/lateralbench -e22-json BENCH_e22.json  # rewrite the
//	                                     # pipelining trajectory baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"lateral/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	e22JSON := flag.String("e22-json", "", "write the E22 pipelining baseline to this file and exit")
	e23JSON := flag.String("e23-json", "", "write the E23 sharded-fleet baseline to this file and exit")
	e26JSON := flag.String("e26-json", "", "write the E26 rolling-replace baseline to this file and exit")
	e27JSON := flag.String("e27-json", "", "write the E27 frame-coalescing baseline to this file and exit")
	flag.Parse()
	if *e22JSON != "" {
		if err := writeE22Baseline(*e22JSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *e23JSON != "" {
		if err := writeE23Baseline(*e23JSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *e26JSON != "" {
		if err := writeE26Baseline(*e26JSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *e27JSON != "" {
		if err := writeE27Baseline(*e27JSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(*list, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeE22Baseline regenerates the checked-in BENCH_e22.json: the wire
// economics (rounds, calls/round) are deterministic and comparable across
// machines; ops/sec is wall-clock and only comparable run-over-run on one
// machine.
func writeE22Baseline(path string) error {
	depths, err := experiments.E22Baseline()
	if err != nil {
		return err
	}
	doc := struct {
		Experiment string                 `json:"experiment"`
		RTTMillis  int                    `json:"simulated_rtt_ms"`
		Depths     []experiments.E22Depth `json:"depths"`
	}{Experiment: "E22 pipelined secure-channel RPC", RTTMillis: 1, Depths: depths}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeE23Baseline regenerates the checked-in BENCH_e23.json: the
// clients-vs-p99/throughput curve of the sharded fabric at 16 shards and
// 256-reading frames. Frame and acceptance counts are deterministic and
// comparable across machines; p99 and throughput are wall-clock.
func writeE23Baseline(path string) error {
	points, err := experiments.E23Baseline()
	if err != nil {
		return err
	}
	doc := struct {
		Experiment string                 `json:"experiment"`
		Points     []experiments.E23Point `json:"points"`
	}{Experiment: "E23 million-client sharded fleet", Points: points}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeE26Baseline regenerates the checked-in BENCH_e26.json: per-phase
// throughput through a rolling replace — the transition phases carry the
// drain-and-rekey cost, so the dip and the recovery are both on record.
// Epoch and healthy counts are deterministic; ops/sec is wall-clock.
func writeE26Baseline(path string) error {
	phases, err := experiments.E26Baseline()
	if err != nil {
		return err
	}
	doc := struct {
		Experiment string                 `json:"experiment"`
		Phases     []experiments.E26Phase `json:"phases"`
	}{Experiment: "E26 rolling replace under config epochs", Phases: phases}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeE27Baseline regenerates the checked-in BENCH_e27.json: one point
// per simulated RTT at depth 64 — sealed records (AEAD passes on the
// request path), sub-frames per record, and wire rounds are comparable
// across machines; ops/sec and p99 are wall-clock.
func writeE27Baseline(path string) error {
	points, err := experiments.E27Baseline()
	if err != nil {
		return err
	}
	doc := struct {
		Experiment string                 `json:"experiment"`
		Points     []experiments.E27Point `json:"points"`
	}{Experiment: "E27 wire-level frame coalescing", Points: points}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func run(list bool, args []string) error {
	all := experiments.All()
	if list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return nil
	}
	selected := make(map[string]bool, len(args))
	for _, a := range args {
		selected[strings.ToUpper(a)] = true
	}
	failures := 0
	for _, e := range all {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		table, err := e.Run()
		if err != nil {
			fmt.Printf("== %s: ERROR: %v ==\n\n", e.ID, err)
			failures++
			continue
		}
		fmt.Println(table)
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	return nil
}
