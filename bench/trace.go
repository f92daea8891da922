package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own wrappers around the calls into
// each layer (the client system's Deliver, the policy hook, the stub, the
// pool, the exporter's Serve pump, the handlers); nothing inside the
// program is instrumented. A span records the goroutine it ran on, and its
// parent is the innermost span enclosing it on that goroutine: calls on one
// goroutine nest, so nesting recovers the causal tree without threading a
// context through APIs that take none. Where core or the exporter hands a
// call to another goroutine, the wrappers stamp their spans with the
// probe's current request id, and fold links a span that has no parent on
// its own goroutine to the innermost span of the same request on another.
type spanKind uint8

const (
	spanOp      spanKind = iota // one benchmark operation, issue to verified reply
	spanCore                    // client core.System.DeliverDeadline
	spanPolicy                  // core.Policy.CheckInvoke
	spanStub                    // distributed.Stub.Handle (as a client component)
	spanCluster                 // cluster.Pool.DoBatch behind the shard router
	spanFlush                   // shard.Batcher.Add or Flush that sent a frame
	spanServe                   // the stub's Pump: one distributed.Exporter.Serve pass
	spanHandler                 // a benchmark-owned component's Handle
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "core", "policy", "distributed.stub", "cluster", "shard.flush",
	"distributed.serve", "handler",
}

func spanKindOf(name string) (spanKind, bool) {
	for k, n := range spanNames {
		if n == name {
			return spanKind(k), true
		}
	}
	return 0, false
}

type span struct {
	kind       spanKind
	lane       uint64 // goroutine id
	req        uint64 // request id; set on op spans and stamped spans, inherited by descendants
	start, end int64  // ns since the tracer's epoch
}

// opened is a span begun but not yet recorded; its zero value records
// nothing.
type opened struct {
	t    *tracer
	kind spanKind
	lane uint64
	req  uint64
	at   int64
}

// end records the span, ending now.
func (o opened) end() { o.t.record(o.kind, o.lane, o.req, o.at) }

// tracer is a bounded in-memory span buffer: once full it records nothing
// more, and the traced phase ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	full  atomic.Bool
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(k spanKind, lane, req uint64, start int64) {
	if t == nil {
		return
	}
	s := span{kind: k, lane: lane, req: req, start: start, end: t.now()}
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.full.Store(true)
	}
	t.mu.Unlock()
}

// recorded returns the spans; call it once the traced phase has ended.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// probe is what the wrappers share: the tracer of the current phase (nil
// when untraced), the request id spans are stamped with, and always-on
// counters, which cost an atomic add each.
type probe struct {
	tr atomic.Pointer[tracer]
	// req is the id of the one operation in flight, on a workload that has
	// only one (rpc-serial); 0 elsewhere, where a Serve pass or handler
	// serves many callers and belongs to none of them.
	req      atomic.Uint64
	serves   atomic.Int64
	handled  atomic.Int64
	checks   atomic.Int64
	verifies atomic.Int64
	verifyNs atomic.Int64
}

// begin opens a span if a tracer is installed.
func (p *probe) begin(k spanKind) opened {
	t := p.tr.Load()
	if t == nil {
		return opened{}
	}
	return opened{t: t, kind: k, lane: goid(), req: p.req.Load(), at: t.now()}
}

// pump wraps an exporter's Serve as a stub Pump, counting and timing each
// serve pass.
func (p *probe) pump(serve func() error) func() error {
	return func() error {
		sp := p.begin(spanServe)
		p.serves.Add(1)
		err := serve()
		sp.end()
		return err
	}
}

// folded is one span with its reconstructed parent and self time.
type folded struct {
	span
	parent int // index into the folded slice, -1 for a root
	self   int64
}

// fold links every span to its innermost enclosing span on the same
// goroutine and computes self time: duration minus the time its direct
// children cover. Children on one goroutine never overlap each other, so
// their durations add up to the covered time. A stamped span left without
// a parent is then linked to the innermost enclosing span of its request on
// another goroutine. Only a workload with one operation in flight stamps
// spans, so an operation's spans on different goroutines run one after
// another and do not overlap either.
func fold(spans []span) []folded {
	out := make([]folded, len(spans))
	order := make([]int, len(spans))
	for i, s := range spans {
		out[i] = folded{span: s, parent: -1, self: s.end - s.start}
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.lane != y.lane {
			return x.lane < y.lane
		}
		if x.start != y.start {
			return x.start < y.start
		}
		return x.end > y.end
	})
	var stack []int
	var lane uint64
	for _, i := range order {
		s := spans[i]
		if len(stack) > 0 && lane != s.lane {
			stack = stack[:0]
		}
		lane = s.lane
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.start <= s.start && s.end <= top.end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			out[i].parent = p
			out[p].self -= s.end - s.start
			if out[i].req == 0 {
				out[i].req = out[p].req
			}
		}
		stack = append(stack, i)
	}

	byReq := map[uint64][]int{}
	for i := range out {
		if out[i].req != 0 {
			byReq[out[i].req] = append(byReq[out[i].req], i)
		}
	}
	for _, ids := range byReq {
		for _, i := range ids {
			s := out[i]
			if s.parent >= 0 || s.kind == spanOp {
				continue
			}
			p := -1
			for _, j := range ids {
				c := out[j]
				// Of two spans with one interval, the later never encloses
				// the earlier, so they cannot become each other's parent.
				if j == i || c.start > s.start || s.end > c.end || (c.start == s.start && c.end == s.end && j > i) {
					continue
				}
				if p < 0 || c.start > out[p].start || (c.start == out[p].start && c.end < out[p].end) {
					p = j
				}
			}
			if p >= 0 {
				out[i].parent = p
				out[p].self -= s.end - s.start
			}
		}
	}
	return out
}

// layerRow is the folded cost of one span kind.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	SelfUs float64 `json:"self_us"`
	BusyS  float64 `json:"busy_s"`
}

// layerTable folds spans into one row per span kind: count, mean duration,
// mean self time, and total busy time.
func layerTable(f []folded) []layerRow {
	var rows [numSpanKinds]layerRow
	for _, s := range f {
		r := &rows[s.kind]
		r.Count++
		r.MeanUs += float64(s.end - s.start)
		r.SelfUs += float64(s.self)
	}
	var out []layerRow
	for k := range rows {
		r := rows[k]
		if r.Count == 0 {
			continue
		}
		r.Name = spanNames[k]
		r.BusyS = r.MeanUs / 1e9
		r.MeanUs /= float64(r.Count) * 1e3
		r.SelfUs /= float64(r.Count) * 1e3
		out = append(out, r)
	}
	return out
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-20s %10s %10s %10s %10s\n", "layer", "spans", "mean_us", "self_us", "busy_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %10d %10.3f %10.3f %10.4f\n", r.Name, r.Count, r.MeanUs, r.SelfUs, r.BusyS)
	}
}

// spanRecord is one line of a span file.
type spanRecord struct {
	Name    string `json:"name"`
	Lane    uint64 `json:"goroutine"`
	Req     uint64 `json:"req"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func writeSpans(path string, f []folded) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	enc := json.NewEncoder(w)
	for i, s := range f {
		if err := enc.Encode(spanRecord{
			Name: spanNames[s.kind], Lane: s.lane, Req: s.req, ID: i, Parent: s.parent,
			StartNs: s.start, EndNs: s.end,
		}); err != nil {
			file.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func readSpans(path string) ([]span, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(file))
	for {
		var r spanRecord
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("read spans %s: %w", path, err)
		}
		k, ok := spanKindOf(r.Name)
		if !ok {
			return nil, fmt.Errorf("read spans %s: unknown span %q", path, r.Name)
		}
		out = append(out, span{kind: k, lane: r.Lane, req: r.Req, start: r.StartNs, end: r.EndNs})
	}
}
