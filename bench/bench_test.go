package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestBucketsCoverTheirValues(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 12345, 1 << 20, 3e9, 1<<62 + 12345} {
		lo, width := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d outside its bucket [%g, %g)", v, lo, lo+width)
		}
		if width > 1 && width/lo > 1.0/histSub+1e-12 {
			t.Errorf("bucket of %d is %g wide at %g", v, width, lo)
		}
	}
}

// fill records the values 1..n microseconds.
func fill(n int) *hist {
	h := &hist{}
	for i := 1; i <= n; i++ {
		h.add(int64(i) * 1000)
	}
	return h
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	if _, ok := fill(100).quantile(0.99, 0); ok {
		t.Error("p99 of 100 samples has 1 beyond it and must not be reported")
	}
	v, ok := fill(1000).quantile(0.99, 0)
	if !ok || math.Abs(v-990e3)/990e3 > 0.01 {
		t.Errorf("p99 of 1..1000 us = %g, %v; want about 990 us", v, ok)
	}
}

func TestFailedOperationsSortLast(t *testing.T) {
	h := fill(1000)
	if _, ok := h.quantile(0.99, 20); ok {
		t.Error("p99 falls on a failed operation when 2% failed and must not be reported")
	}
	// With 1000 failures among 2000 attempts the median is the last
	// success, not the median success.
	v, ok := h.quantile(0.50, 1000)
	if !ok || math.Abs(v-1000e3)/1000e3 > 0.01 {
		t.Errorf("p50 = %g, %v; want about 1000 us", v, ok)
	}
	if _, ok := h.quantile(0.50, 1001); ok {
		t.Error("p50 falls on a failed operation and must not be reported")
	}
}

func TestWindowedP99IsTheMedianWindow(t *testing.T) {
	ph := &phase{}
	for w := range ph.win {
		ph.win[w] = fill(1000)
	}
	// Nine of the twenty windows meet a burst of 10 ms stalls.
	for w := 0; w < 9; w++ {
		for i := 0; i < 100; i++ {
			ph.win[w].add(10e6)
		}
	}
	v, ok := ph.windowedP99()
	if !ok || math.Abs(v-990e3)/990e3 > 0.01 {
		t.Errorf("windowed p99 = %g, %v; want about 990 us", v, ok)
	}
	// When most windows' p99 falls on a failed operation, there is none.
	for w := range ph.winFailed {
		ph.winFailed[w] = 20
	}
	if _, ok := ph.windowedP99(); ok {
		t.Error("windowed p99 reported although most windows' p99 falls on a failed operation")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1, 3, 2, 5}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFoldSubtractsChildSpans(t *testing.T) {
	type want struct {
		self   int64
		parent int
		req    uint64
	}
	cases := []struct {
		name  string
		spans []span
		want  []want
	}{
		{
			name: "one goroutine",
			spans: []span{
				{kind: spanOp, lane: 1, req: 7, start: 0, end: 100},
				{kind: spanStub, lane: 1, start: 10, end: 90},
				{kind: spanServe, lane: 1, start: 20, end: 50},
				{kind: spanHandler, lane: 1, start: 30, end: 40},
				{kind: spanHandler, lane: 2, start: 60, end: 70}, // an exporter worker
				{kind: spanOp, lane: 1, req: 8, start: 100, end: 130},
			},
			want: []want{{20, -1, 7}, {50, 0, 7}, {20, 1, 7}, {10, 2, 7}, {10, -1, 0}, {30, -1, 8}},
		},
		{
			// One rpc-serial operation: core runs the app on a second
			// goroutine, which checks policy and hands the call to a third
			// that runs the stub and the Serve pass; the exporter dispatches
			// the echo on a fourth. The stamped request id links them, so
			// core's self time excludes the policy and stub spans.
			name: "stamped spans on other goroutines",
			spans: []span{
				{kind: spanOp, lane: 1, req: 9, start: 0, end: 100},
				{kind: spanCore, lane: 1, start: 5, end: 95},
				{kind: spanPolicy, lane: 1, req: 9, start: 6, end: 8},
				{kind: spanPolicy, lane: 2, req: 9, start: 10, end: 12},
				{kind: spanStub, lane: 3, req: 9, start: 15, end: 85},
				{kind: spanServe, lane: 3, req: 9, start: 20, end: 80},
				{kind: spanHandler, lane: 4, req: 9, start: 30, end: 40},
				{kind: spanHandler, lane: 5, start: 50, end: 60}, // unstamped: stays a root
			},
			want: []want{{10, -1, 9}, {16, 0, 9}, {2, 1, 9}, {2, 1, 9}, {10, 1, 9}, {50, 4, 9}, {10, 5, 9}, {10, -1, 0}},
		},
	}
	for _, c := range cases {
		f := fold(c.spans)
		for i, w := range c.want {
			if f[i].self != w.self || f[i].parent != w.parent || f[i].req != w.req {
				t.Errorf("%s: span %d (%s): self %d parent %d req %d, want %+v",
					c.name, i, spanNames[f[i].kind], f[i].self, f[i].parent, f[i].req, w)
			}
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * k
		}
		return out
	}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same code", base, base, "higher", "within bound"},
		{"faster", base, scale(1.2), "higher", "improved"},
		{"slower within bound", base, scale(0.95), "higher", "within bound"},
		{"slower beyond bound", base, scale(0.8), "higher", "regressed"},
		{"latency up beyond bound", base, scale(1.2), "lower", "regressed"},
		{"latency down", base, scale(0.8), "lower", "improved"},
		{"too noisy", []float64{50, 150, 80, 120, 100}, []float64{60, 140, 90, 110, 100}, "higher", "unresolved"},
		{"failures where none were", []float64{1, 1, 1, 1, 1}, []float64{1, 0.999999, 0.999998, 1, 0.999999}, "higher", "regressed"},
		{"still none failing", []float64{1, 1, 1, 1, 1}, []float64{1, 1, 1, 1, 1}, "higher", "within bound"},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.better, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		benchConfig
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(cfg.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the benchmark reports %d", len(cfg.EndToEnd), len(endToEnd))
	}
	for i, m := range cfg.EndToEnd {
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, endToEnd[i])
		}
	}
	if len(cfg.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the benchmark reports %d", len(cfg.PerLayer), len(perLayer))
	}
	for i, m := range cfg.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, perLayer[i])
		}
	}
}

// TestSmoke runs every workload briefly, traced, with every check on, so a
// change that breaks the benchmark fails here rather than in a long run.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := execute(options{
				workload: w.name,
				seed:     1,
				measure:  300 * time.Millisecond,
				warmup:   50 * time.Millisecond,
				trace:    true,
				spanCap:  1 << 14,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range out.checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			for _, m := range []string{"ops_per_s", "latency_p50_us", "setup_s", "heap_peak_mb"} {
				if !(out.e2e[m] > 0) {
					t.Errorf("%s = %g, want > 0", m, out.e2e[m])
				}
			}
			if out.layers["trace.spans"] == 0 || len(out.table) == 0 {
				t.Error("traced phase recorded no spans")
			}
		})
	}
}
