package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchConfig struct {
	EndToEnd []boundDef  `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadConfig(path string) (*benchConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c benchConfig
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// loadResults reads every untraced result file in dir, grouped by
// workload and ordered by start time.
func loadResults(dir string) (map[string][]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
	}
	return out, nil
}

// judgement compares one metric between a parent side A and a change
// side B.
type judgement struct {
	a, b        [3]float64 // quartiles: q1, median, q3
	wins, pairs int
	verdict     string
}

// judge applies the comparison rule. B improved when it wins at least nine
// tenths of the pairs (ties count for neither) and its median beats A's by
// more than A's own quartile spread. Where A's quartiles coincide, as
// first_try_rate's do on a workload where nothing fails, B regressed when its
// median is worse at all: the bound is 0 there. Where either side's spread,
// relative to its median, is wider than the bound, the metric is unresolved
// unless every run of B reads better than every run of A. Otherwise B
// regressed when its median is worse than A's by more than the bound.
func judge(a, b []float64, better string, bound float64) judgement {
	var j judgement
	j.a[0], j.a[1], j.a[2] = quartiles(a)
	j.b[0], j.b[1], j.b[2] = quartiles(b)
	sign := 1.0 // > 0 means B is better
	if better == "lower" {
		sign = -1
	}
	j.pairs = min(len(a), len(b))
	for i := 0; i < j.pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			j.wins++
		}
	}
	rel := func(x, base float64) float64 {
		if base == 0 {
			if x == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return x / math.Abs(base)
	}
	gain := sign * (j.b[1] - j.a[1])
	spread := math.Max(rel(j.a[2]-j.a[0], j.a[1]), rel(j.b[2]-j.b[0], j.b[1]))
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case j.pairs > 0 && 10*j.wins >= 9*j.pairs && gain > j.a[2]-j.a[0]:
		j.verdict = "improved"
	case j.a[0] == j.a[2] && gain < 0:
		j.verdict = "regressed"
	case spread > bound && !allBetter:
		j.verdict = "unresolved"
	case rel(-gain, j.a[1]) > bound:
		j.verdict = "regressed"
	default:
		j.verdict = "within bound"
	}
	return j
}

// compareMain compares two directories of result files against the bounds
// in BENCHMARK.json, run from the repository root.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare DIR_A DIR_B")
		return 2
	}
	cfg, err := loadConfig("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	sideA, err := loadResults(args[0])
	if err == nil {
		var sideB map[string][]result
		if sideB, err = loadResults(args[1]); err == nil {
			return printComparison(stdout, cfg, sideA, sideB)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 1
}

func printComparison(w io.Writer, cfg *benchConfig, sideA, sideB map[string][]result) int {
	fmt.Fprintf(w, "%-15s %-15s %-38s %-38s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	regressed := false
	for _, wl := range workloads {
		ra, rb := sideA[wl.name], sideB[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range cfg.EndToEnd {
			a, b := metricValues(ra, m.Name), metricValues(rb, m.Name)
			j := judge(a, b, m.Better, m.Bound)
			if j.verdict == "regressed" {
				regressed = true
			}
			// Seven digits, so that a first-try rate of 0.999995 does not
			// read as 1.
			fmt.Fprintf(w, "%-15s %-15s %-38s %-38s %3d/%-3d  %s (bound %g%%)\n", wl.name, m.Name,
				fmt.Sprintf("%.7g [%.7g, %.7g]", j.a[1], j.a[0], j.a[2]),
				fmt.Sprintf("%.7g [%.7g, %.7g]", j.b[1], j.b[0], j.b[2]),
				j.wins, j.pairs, j.verdict, 100*m.Bound)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func metricValues(rs []result, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}
