package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// counters is a snapshot of cumulative counts, keyed by layer.count.
type counters map[string]float64

// peakKeys hold high-water marks or gauges, which a delta would destroy.
var peakKeys = map[string]bool{"stub.max_inflight": true, "stub.inflight": true}

func (c counters) minus(base counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		if peakKeys[k] {
			d[k] = v
		} else {
			d[k] = v - base[k]
		}
	}
	return d
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// fixture is one workload's running system plus the closed loop that
// drives it.
type fixture interface {
	// drive runs the workload's callers until ph.stop and records every
	// operation into ph.
	drive(ph *phase)
	probe() *probe
	// counters snapshots the cumulative layer counts.
	counters() counters
	// layers returns the workload's own per-layer metrics for a measured
	// phase and its counter delta.
	layers(ph *phase, d counters) map[string]float64
	// checks verifies the system's outputs once traffic has stopped.
	checks() []check
}

type workload struct {
	name  string
	why   string
	setup func(seed int64) (fixture, error)
}

var workloads = []workload{
	{"rpc-serial", "one caller on the per-call fixed-cost path: core admission and watchdog, policy, stub seal, exporter open; coalescing cannot engage", setupSerial},
	{"rpc-pipelined", "16 in-flight callers on one pooled session: stub demux, coalescer, exporter batching and AEAD cost per byte", setupPipelined},
	{"ingest-batched", "meter backlog through per-tenant batchers, the shard router and its quota into two cells: batch frames, never single calls", setupIngest},
	{"fleet-churn", "rolling replace every 250 ms under load: handshakes, quotes and epoch rekeys on the timed path", setupChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// reqSeq numbers traced operations; spans of one operation share its id.
var reqSeq atomic.Uint64

// windows is how many equal stretches a phase is cut into for
// latency_p99_us, the median of the stretches' p99s: a burst of host noise
// in a few stretches then does not set the run's tail.
const windows = 20

// phase is one timed stretch of closed-loop traffic.
type phase struct {
	start   time.Time
	stop    time.Time
	tr      *tracer
	lat     hist
	ok      uint64
	retried uint64 // successful operations whose first call failed
	failed  uint64
	payload float64 // request plus reply data bytes of successful operations
	elapsed time.Duration

	mu        sync.Mutex // guards the windows, which lanes flush into
	win       [windows]*hist
	winFailed [windows]uint64
}

func newPhase(d time.Duration, tr *tracer) *phase {
	start := time.Now()
	return &phase{start: start, stop: start.Add(d), tr: tr}
}

func (ph *phase) attempted() uint64 { return ph.ok + ph.failed }

// window returns the stretch an operation ending at t belongs to; the last
// operations, which end after stop, belong to the last one.
func (ph *phase) window(t time.Time) int {
	w := int(int64(windows) * int64(t.Sub(ph.start)) / max(1, int64(ph.stop.Sub(ph.start))))
	return min(max(w, 0), windows-1)
}

// windowedP99 returns the median of the windows' p99s in nanoseconds,
// counting a window whose p99 falls on a failed operation as infinite; ok
// is false when no window has enough samples or the median is infinite.
func (ph *phase) windowedP99() (float64, bool) {
	var p99s []float64
	for w, h := range ph.win {
		if h == nil {
			continue
		}
		if v, ok := h.quantile(0.99, ph.winFailed[w]); ok {
			p99s = append(p99s, v)
		} else if _, ok := h.quantile(0.99, 0); ok {
			p99s = append(p99s, math.Inf(1))
		}
	}
	v := median(p99s)
	return v, len(p99s) > 0 && !math.IsInf(v, 1)
}

// lane is one caller's private recorder, merged into its phase when the
// caller stops, so callers share nothing on the hot path.
type lane struct {
	ph      *phase
	stop    time.Time
	tr      *tracer
	gid     uint64
	lat     hist
	ok      uint64
	retried uint64
	failed  uint64
	payload float64

	w       int   // the window wlat and wfailed belong to
	wlat    *hist // latencies of the current window
	wfailed uint64
}

// done reports whether the caller should stop: the phase is over, or the
// traced phase's span buffer is full.
func (l *lane) done(now time.Time) bool {
	return !now.Before(l.stop) || (l.tr != nil && l.tr.full.Load())
}

// observe records one operation that started at start and ended at end.
func (l *lane) observe(start, end time.Time, err error, payload int) {
	if w := l.ph.window(end); w != l.w {
		l.flushWindow()
		l.w = w
	}
	if err != nil {
		l.failed++
		l.wfailed++
		return
	}
	d := int64(end.Sub(start))
	l.ok++
	l.payload += float64(payload)
	l.lat.add(d)
	l.wlat.add(d)
}

// flushWindow merges the lane's current window into its phase.
func (l *lane) flushWindow() {
	if l.wlat.n == 0 && l.wfailed == 0 {
		return
	}
	ph := l.ph
	ph.mu.Lock()
	if ph.win[l.w] == nil {
		ph.win[l.w] = &hist{}
	}
	ph.win[l.w].merge(l.wlat)
	ph.winFailed[l.w] += l.wfailed
	ph.mu.Unlock()
	*l.wlat = hist{}
	l.wfailed = 0
}

// begin opens a span on the caller's goroutine in a traced phase; an
// operation span gets a fresh request id.
func (l *lane) begin(k spanKind) opened {
	if l.tr == nil {
		return opened{}
	}
	var req uint64
	if k == spanOp {
		req = reqSeq.Add(1)
	}
	return opened{t: l.tr, kind: k, lane: l.gid, req: req, at: l.tr.now()}
}

// run drives n callers until the phase ends, each running body with its
// own lane, and merges the lanes.
func (ph *phase) run(n int, body func(c int, l *lane)) {
	lanes := make([]*lane, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range lanes {
		l := &lane{ph: ph, stop: ph.stop, tr: ph.tr, wlat: &hist{}}
		lanes[c] = l
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if l.tr != nil {
				l.gid = goid()
			}
			body(c, l)
			l.flushWindow()
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for _, l := range lanes {
		ph.lat.merge(&l.lat)
		ph.ok += l.ok
		ph.retried += l.retried
		ph.failed += l.failed
		ph.payload += l.payload
	}
}

func (ph *phase) opsPerSec() float64 {
	if ph.elapsed <= 0 {
		return 0
	}
	return float64(ph.ok) / ph.elapsed.Seconds()
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	measure  time.Duration
	warmup   time.Duration
	trace    bool
	setupFor time.Duration // keep building the fixture this long; at least once
	spanCap  int
	spans    string // span file to write on a traced run ("" = none)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed uint64
	e2e               map[string]float64
	layers            map[string]float64
	table             []layerRow
	checks            []check
	notes             []string
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// runtimeStats reads the Go runtime's whole-process counters.
func runtimeStats() (allocs, bytes, gcs float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), float64(s[2].Value.Uint64())
}

// heapSampler records the peak live heap (as of the latest GC) every
// 100 ms until stopped.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{}), peak: liveHeap()}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-tick.C:
				if v := liveHeap(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// stopMiB stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapSampler) stopMiB() float64 {
	close(h.stopc)
	<-h.done
	if v := liveHeap(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

// execute sets the workload up again and again for setupFor (keeping the
// last system), warms it up, measures it untraced, and on a traced run
// measures it once more with spans recorded.
func execute(o options) (*outcome, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var fx fixture
	var setups []float64
	for begin := time.Now(); len(setups) == 0 || time.Since(begin) < o.setupFor; {
		start := time.Now()
		var err error
		if fx, err = w.setup(o.seed); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()

	heap := startHeapSampler()
	fx.drive(newPhase(o.warmup, nil))
	c0 := fx.counters()
	a0, b0, g0 := runtimeStats()
	ph := newPhase(o.measure, nil)
	fx.drive(ph)
	a1, b1, g1 := runtimeStats()
	d := fx.counters().minus(c0)
	heapMiB := heap.stopMiB()

	out := &outcome{attempted: ph.attempted(), failed: ph.failed}
	out.e2e = map[string]float64{
		"ops_per_s":      ph.opsPerSec(),
		"first_try_rate": float64(ph.ok-ph.retried) / math.Max(1, float64(ph.attempted())),
		"setup_s":        median(setups),
		"heap_peak_mb":   heapMiB,
	}
	if v, ok := ph.lat.quantile(0.50, ph.failed); ok {
		out.e2e["latency_p50_us"] = v / 1e3
	} else {
		out.notes = append(out.notes, "latency_p50_us: too few samples or the median operation failed")
	}
	// A phase too short for its windows to hold a p99 falls back to the
	// p99 of the whole phase.
	if v, ok := ph.windowedP99(); ok {
		out.e2e["latency_p99_us"] = v / 1e3
	} else if v, ok := ph.lat.quantile(0.99, ph.failed); ok {
		out.e2e["latency_p99_us"] = v / 1e3
	} else if v, ok := ph.lat.quantile(0.99, 0); ok {
		out.e2e["latency_p99_us"] = v / 1e3
		out.notes = append(out.notes, fmt.Sprintf(
			"latency_p99_us is over successful operations only: %d of %d operations failed", ph.failed, ph.attempted()))
	}

	ops := math.Max(1, float64(ph.attempted()))
	out.layers = counterLayers(d, ph, ops)
	out.layers["runtime.allocs_per_op"] = (a1 - a0) / ops
	out.layers["runtime.bytes_per_op"] = (b1 - b0) / ops
	out.layers["runtime.gc_cycles_per_s"] = (g1 - g0) / ph.elapsed.Seconds()
	for k, v := range fx.layers(ph, d) {
		out.layers[k] = v
	}

	if o.trace {
		tr := newTracer(o.spanCap)
		fx.probe().tr.Store(tr)
		tp := newPhase(o.measure/2, tr)
		fx.drive(tp)
		fx.probe().tr.Store(nil)
		f := fold(tr.recorded())
		out.table = layerTable(f)
		for k, v := range spanLayers(f, tp) {
			out.layers[k] = v
		}
		if u := ph.opsPerSec(); u > 0 {
			out.layers["trace.overhead"] = 1 - tp.opsPerSec()/u
		}
		if o.spans != "" {
			if err := writeSpans(o.spans, f); err != nil {
				return nil, err
			}
		}
	}
	out.checks = append(fx.checks(), stubBooks(fx.counters()))
	return out, nil
}

// counterLayers derives the per-layer metrics every workload shares from a
// measured phase's counter delta.
func counterLayers(d counters, ph *phase, ops float64) map[string]float64 {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"policy.checks_per_op":            d["policy.checks"] / ops,
		"distributed.records_per_call":    ratio(d["stub.records"], d["stub.issued"]),
		"distributed.subs_per_record":     ratio(d["stub.coal_subs"], d["stub.coal_records"]),
		"distributed.serves_per_op":       d["serves"] / ops,
		"distributed.datagrams_per_serve": ratio(d["net.server_recv"], d["serves"]),
		"distributed.orphans":             d["stub.orphans"],
		"distributed.max_inflight":        d["stub.max_inflight"],
		"netsim.datagrams_per_op":         d["net.datagrams"] / ops,
		"netsim.wire_bytes_per_op":        d["net.bytes"] / ops,
		"netsim.overhead_bytes_per_op":    (d["net.bytes"] - ph.payload) / ops,
		"cluster.retries_per_op":          d["cluster.retries"] / ops,
		"cluster.failovers":               d["cluster.failovers"],
	}
}

// spanLayers derives the span metrics from a traced phase. A Serve pass
// serves many callers' requests, so serve and handler spans are reported
// as busy time, not charged to the operation whose goroutine ran them.
func spanLayers(f []folded, tp *phase) map[string]float64 {
	var self, dur [numSpanKinds]float64
	var n [numSpanKinds]float64
	var serve hist
	for _, s := range f {
		n[s.kind]++
		self[s.kind] += float64(s.self)
		dur[s.kind] += float64(s.end - s.start)
		if s.kind == spanServe {
			serve.add(s.end - s.start)
		}
	}
	mean := func(v [numSpanKinds]float64, k spanKind) float64 {
		if n[k] == 0 {
			return 0
		}
		return v[k] / n[k]
	}
	out := map[string]float64{
		"core.self_us":             mean(self, spanCore) / 1e3,
		"policy.check_ns":          mean(dur, spanPolicy),
		"distributed.stub_self_us": mean(self, spanStub) / 1e3,
		"distributed.wait_us":      mean(self, spanOp) / 1e3,
		"handler.busy_us":          mean(dur, spanHandler) / 1e3,
		"trace.spans":              float64(len(f)),
	}
	if capacity := tp.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0)); capacity > 0 {
		out["handler.share"] = dur[spanHandler] / 1e9 / capacity
	}
	if v, ok := serve.quantile(0.50, 0); ok {
		out["distributed.serve_us_p50"] = v / 1e3
	}
	if v, ok := serve.quantile(0.99, 0); ok {
		out["distributed.serve_us_p99"] = v / 1e3
	}
	return out
}

// stubBooks checks that every call a stub issued resolved exactly once and
// none is left in flight.
func stubBooks(c counters) check {
	issued, resolved, inflight := c["stub.issued"], c["stub.resolved"], c["stub.inflight"]
	return check{
		Name:   "stub_books",
		OK:     issued > 0 && issued == resolved && inflight == 0,
		Detail: fmt.Sprintf("issued %.0f, completed or failed %.0f, in flight %.0f", issued, resolved, inflight),
	}
}

// errMismatch fails an operation whose reply differs from what it expects.
var errMismatch = errors.New("reply differs from the expected reply")

func countCheck(name string, bad int64, what string) check {
	return check{Name: name, OK: bad == 0, Detail: fmt.Sprintf("%d %s", bad, what)}
}
