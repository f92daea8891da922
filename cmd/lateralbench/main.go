// lateralbench runs the reproduction experiments and prints their tables —
// the regenerator for every figure and claim in DESIGN.md's per-experiment
// index. It exits 1 when an experiment errors or one of its checks fails.
//
//	go run ./cmd/lateralbench            # run everything
//	go run ./cmd/lateralbench E1 E7      # run selected experiments
//	go run ./cmd/lateralbench -list      # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lateral/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()
	if err := run(experiments.All(), *list, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(all []experiments.Experiment, list bool, args []string) error {
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
		if table.Err() != nil {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	return nil
}
