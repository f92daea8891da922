package main

import (
	"testing"

	"lateral/internal/experiments"
)

// TestRunFailsOnFailedCheck: a table whose check failed fails the run
// after printing, just as a Run error does.
func TestRunFailsOnFailedCheck(t *testing.T) {
	table := func(ok bool) func() (experiments.Table, error) {
		return func() (experiments.Table, error) {
			tab := experiments.Table{ID: "X", Header: []string{"a"}}
			tab.AddRow("1")
			tab.Check("holds", ok, "detail")
			return tab, nil
		}
	}
	all := []experiments.Experiment{{ID: "X", Name: "x", Run: table(true)}}
	if err := run(all, false, nil); err != nil {
		t.Fatalf("passing checks: %v", err)
	}
	all[0].Run = table(false)
	if err := run(all, false, nil); err == nil {
		t.Fatal("a failed check did not fail the run")
	}
}
