// Command bench is the repository benchmark: four seeded closed-loop
// workloads over the Fig. 3 path (client system, policy, sealed RPC,
// attested replica fleets, shard router), each printing its end-to-end
// metrics, or on a traced run its per-layer metrics, as one JSON line.
//
//	bench -workload rpc-serial -seed 1 -seconds 20 -trace 0
//	bench compare DIR_A DIR_B
//	bench report SPANFILE
//
// See README.md for the workloads, the metrics and how to compare runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "report":
			os.Exit(reportMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the file one run writes.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	WarmupS    float64           `json:"warmup_s"`
	Trace      bool              `json:"trace"`
	Started    time.Time         `json:"started"`
	Env        map[string]string `json:"env"`
	Correct    bool              `json:"correct"`
	Attempted  uint64            `json:"attempted"`
	Failed     uint64            `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Layers     map[string]metric `json:"layers,omitempty"`
	LayerTable []layerRow        `json:"layer_table,omitempty"`
	Checks     []check           `json:"checks"`
	Notes      []string          `json:"notes,omitempty"`
}

// line is the last line a run prints on standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func named(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

const (
	// warmup is the untimed traffic before the measured phase.
	warmup = 2 * time.Second
	// setupFor is how long a run keeps building its fixture; setup_s is the
	// median of the builds, and the last one is measured. A build takes
	// 1.5-20 ms, so a fixed count of builds samples the host for anything
	// from 0.1 s to 1 s: the median of 60 fleet-churn builds spread 40%
	// between processes, that of 1 s of builds 11%.
	setupFor = time.Second
)

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: rpc-serial, rpc-pipelined, ingest-batched or fleet-churn")
	seed := fs.Int64("seed", 1, "input seed (1 for development, 2 held out for claims)")
	seconds := fs.Float64("seconds", 20, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1 = also run a traced phase and print the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the result file (\"\" = none)")
	spans := fs.String("spans", "", "on a traced run, write the folded spans to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := findWorkload(*name); !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload one of %s, -seconds > 0, -trace 0 or 1\n", workloadNames())
		return 2
	}
	started := time.Now()
	o := options{
		workload: *name,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		warmup:   warmup,
		trace:    *trace == 1,
		setupFor: setupFor,
		spanCap:  1 << 19,
		spans:    *spans,
	}
	res, err := execute(o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, c := range res.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(stderr, "check %-16s %-6s %s\n", c.Name, status, c.Detail)
	}
	for _, n := range res.notes {
		fmt.Fprintf(stderr, "note: %s\n", n)
	}
	if o.trace {
		printLayerTable(stderr, res.table)
	}

	r := result{
		Workload: o.workload, Seed: o.seed, Seconds: *seconds, WarmupS: o.warmup.Seconds(),
		Trace: o.trace, Started: started, Env: environment(),
		Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Metrics: named(endToEnd, res.e2e), LayerTable: res.table, Checks: res.checks, Notes: res.notes,
	}
	l := line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
	if o.trace {
		r.Layers = named(perLayer, res.layers)
		l.Metrics = r.Layers
	}
	if *out != "" {
		if err := writeResult(*out, r); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	b, err := json.Marshal(l)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !r.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func writeResult(dir string, r result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, trace, r.Started.UnixNano()))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// environment describes the machine and the code a run measured. The CPU
// model and the git commit are recorded when they can be read.
func environment() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if head, ok := gitHead(); ok {
		env["git_head"] = head
	}
	return env
}

// gitHead returns the commit checked out in the working directory. It reads
// the files under .git rather than running git, which would search the
// directories above a checkout that is not a repository.
func gitHead() (string, bool) {
	b, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "", false
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(b)), "ref: ")
	if !symbolic {
		return ref, true
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b)), true
	}
	b, err = os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "", false
	}
	for _, l := range strings.Split(string(b), "\n") {
		if hash, name, ok := strings.Cut(l, " "); ok && name == ref {
			return hash, true
		}
	}
	return "", false
}

func reportMain(args []string, stdout io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: bench report SPANFILE")
		return 2
	}
	spans, err := readSpans(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printLayerTable(stdout, layerTable(fold(spans)))
	return 0
}
