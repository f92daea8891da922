package core

import (
	"sync"
	"testing"
	"time"
)

// collectTracer keeps every started span, and every completed span with
// its elapsed time and error, for assertions.
type collectTracer struct {
	mu      sync.Mutex
	starts  []Span
	ends    []Span
	infos   []SpanInfo
	elapsed []time.Duration
	errs    []error
}

func (c *collectTracer) SpanStart(sp Span, _ SpanInfo, _ time.Time) {
	c.mu.Lock()
	c.starts = append(c.starts, sp)
	c.mu.Unlock()
}

func (c *collectTracer) SpanEnd(sp Span, info SpanInfo, _ time.Time, d time.Duration, err error) {
	c.mu.Lock()
	c.ends = append(c.ends, sp)
	c.infos = append(c.infos, info)
	c.elapsed = append(c.elapsed, d)
	c.errs = append(c.errs, err)
	c.mu.Unlock()
}

func (c *collectTracer) find(kind SpanKind, to string) (Span, SpanInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, info := range c.infos {
		if info.Kind == kind && info.To == to {
			return c.ends[i], info, true
		}
	}
	return Span{}, SpanInfo{}, false
}

// vaultComp stores an asset at Init and loads it on demand, so asset spans
// appear inside its handler span.
type vaultComp struct{ ctx *Ctx }

func (v *vaultComp) CompName() string    { return "vault" }
func (v *vaultComp) CompVersion() string { return "1.0" }
func (v *vaultComp) Init(ctx *Ctx) error {
	v.ctx = ctx
	return ctx.StoreAsset("doc", []byte("sealed"))
}
func (v *vaultComp) Handle(Envelope) (Message, error) {
	data, err := v.ctx.LoadAsset("doc")
	return Message{Op: "doc", Data: data}, err
}

func TestTracerSpanTreeLinksParents(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Launch(&callerComp{name: "a", channel: "to-vault"}, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Launch(&vaultComp{}, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Grant(ChannelSpec{Name: "to-vault", From: "a", To: "vault"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	tr := &collectTracer{}
	sys.SetTracer(tr)
	if _, err := sys.Deliver("a", Message{Op: "get"}); err != nil {
		t.Fatal(err)
	}

	deliver, _, ok := tr.find(SpanDeliver, "a")
	if !ok {
		t.Fatal("no deliver span recorded")
	}
	if deliver.Parent != 0 {
		t.Errorf("deliver span has parent %#x, want root", deliver.Parent)
	}
	handleA, _, ok := tr.find(SpanHandle, "a")
	if !ok {
		t.Fatal("no handle span for a")
	}
	if handleA.Parent != deliver.ID {
		t.Errorf("handle a parent = %#x, want deliver %#x", handleA.Parent, deliver.ID)
	}
	call, info, ok := tr.find(SpanCall, "vault")
	if !ok {
		t.Fatal("no call span recorded")
	}
	if call.Parent != handleA.ID {
		t.Errorf("call parent = %#x, want handle a %#x", call.Parent, handleA.ID)
	}
	if info.Channel != "to-vault" || info.From != "a" || info.Op != "get" {
		t.Errorf("call info = %+v", info)
	}
	handleV, _, ok := tr.find(SpanHandle, "vault")
	if !ok {
		t.Fatal("no handle span for vault")
	}
	if handleV.Parent != call.ID {
		t.Errorf("handle vault parent = %#x, want call %#x", handleV.Parent, call.ID)
	}
	load, loadInfo, ok := tr.find(SpanAssetLoad, "vault")
	if !ok {
		t.Fatal("no asset-load span recorded")
	}
	if load.Parent != handleV.ID {
		t.Errorf("asset-load parent = %#x, want handle vault %#x", load.Parent, handleV.ID)
	}
	if loadInfo.Op != "doc" || loadInfo.Bytes != len("sealed") {
		t.Errorf("asset-load info = %+v", loadInfo)
	}
	// All spans of the request share one trace ID.
	for _, sp := range []Span{deliver, handleA, call, handleV, load} {
		if sp.Trace != deliver.Trace {
			t.Errorf("span %#x in trace %#x, want %#x", sp.ID, sp.Trace, deliver.Trace)
		}
	}
}

func TestTracerSeparateDeliversSeparateTraces(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Launch(&echoComp{name: "e"}, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	tr := &collectTracer{}
	sys.SetTracer(tr)
	if _, err := sys.Deliver("e", Message{Op: "one"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Deliver("e", Message{Op: "two"}); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	traces := map[uint64]bool{}
	for _, sp := range tr.ends {
		traces[sp.Trace] = true
	}
	if len(traces) != 2 {
		t.Errorf("got %d distinct traces, want 2", len(traces))
	}
}

func TestDeliverSpanAdoptsRemoteParent(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Launch(&echoComp{name: "e"}, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	tr := &collectTracer{}
	sys.SetTracer(tr)
	parent := Span{Trace: 0xabc, ID: 0x123}
	if _, err := sys.DeliverDeadline("e", Message{Op: "x"}, parent, time.Time{}); err != nil {
		t.Fatal(err)
	}
	deliver, _, ok := tr.find(SpanDeliver, "e")
	if !ok {
		t.Fatal("no deliver span")
	}
	if deliver.Trace != parent.Trace || deliver.Parent != parent.ID {
		t.Errorf("deliver = %+v, want trace %#x parent %#x", deliver, parent.Trace, parent.ID)
	}
}

// TestTraceSamplingOneInN checks head sampling: exactly one in every n
// root delivers is traced, a sampled request is traced through its whole
// subtree (call, handler, asset spans), and an unsampled one produces no
// spans at all.
func TestTraceSamplingOneInN(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Launch(&callerComp{name: "a", channel: "to-vault"}, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Launch(&vaultComp{}, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Grant(ChannelSpec{Name: "to-vault", From: "a", To: "vault"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	tr := &collectTracer{}
	sys.SetTracer(tr)
	sys.SetTraceSampling(4)
	for i := 0; i < 8; i++ {
		if _, err := sys.Deliver("a", Message{Op: "get"}); err != nil {
			t.Fatal(err)
		}
	}

	tr.mu.Lock()
	traces := map[uint64]int{}
	for _, sp := range tr.ends {
		traces[sp.Trace]++
	}
	total := len(tr.ends)
	tr.mu.Unlock()
	if len(traces) != 2 {
		t.Fatalf("got %d sampled traces over 8 delivers at 1-in-4, want 2 (%v)", len(traces), traces)
	}
	// Each sampled request is traced end to end: deliver, handle a, call,
	// handle vault, asset-load — five spans. Unsampled requests add none.
	for id, n := range traces {
		if n != 5 {
			t.Errorf("trace %#x has %d spans, want 5", id, n)
		}
	}
	if total != 10 {
		t.Errorf("recorded %d spans, want 10", total)
	}

	// Remote continuations bypass the local sampling decision.
	sys.SetTraceSampling(1 << 20)
	if _, err := sys.DeliverDeadline("a", Message{Op: "get"}, Span{Trace: 0xfeed, ID: 9}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tr.find(SpanDeliver, "a"); !ok {
		t.Error("remote-parented deliver was not traced under aggressive sampling")
	}
	tr.mu.Lock()
	foundRemote := false
	for _, sp := range tr.ends {
		if sp.Trace == 0xfeed {
			foundRemote = true
		}
	}
	tr.mu.Unlock()
	if !foundRemote {
		t.Error("remote continuation did not join trace 0xfeed")
	}

	// n <= 1 restores tracing every request.
	sys.SetTraceSampling(0)
	tr.mu.Lock()
	n0 := len(tr.ends)
	tr.mu.Unlock()
	if _, err := sys.Deliver("a", Message{Op: "get"}); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	n1 := len(tr.ends)
	tr.mu.Unlock()
	if n1 != n0+5 {
		t.Errorf("after SetTraceSampling(0): %d new spans, want 5", n1-n0)
	}
}

// TestChannelUsageDeterministicOrder is the regression test for the sorted
// ChannelUsage contract: grants made in scrambled order come back ordered
// by (From, Name), stably across calls.
func TestChannelUsageDeterministicOrder(t *testing.T) {
	sys := newTestSystem(t)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := sys.Launch(&echoComp{name: name}, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	grants := []ChannelSpec{
		{Name: "z2", From: "zeta", To: "alpha"},
		{Name: "b", From: "mid", To: "zeta"},
		{Name: "z1", From: "zeta", To: "mid"},
		{Name: "a", From: "alpha", To: "mid"},
	}
	for _, g := range grants {
		if err := sys.Grant(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha/a", "mid/b", "zeta/z1", "zeta/z2"}
	for round := 0; round < 5; round++ {
		usage := sys.ChannelUsage()
		if len(usage) != len(want) {
			t.Fatalf("round %d: %d entries, want %d", round, len(usage), len(want))
		}
		for i, u := range usage {
			if got := u.From + "/" + u.Name; got != want[i] {
				t.Fatalf("round %d entry %d = %s, want %s (full: %+v)", round, i, got, want[i], usage)
			}
		}
	}
}

// nullComp handles without allocating, so the allocation test measures the
// system hot path alone.
type nullComp struct{ name string }

func (n *nullComp) CompName() string                 { return n.name }
func (n *nullComp) CompVersion() string              { return "1.0" }
func (n *nullComp) Init(*Ctx) error                  { return nil }
func (n *nullComp) Handle(Envelope) (Message, error) { return Message{Op: "ok"}, nil }

func TestNilTracerAndObserverFastPath(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Launch(&nullComp{name: "n"}, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	// Explicitly clearing both hooks must neither panic nor change behavior
	// — including clearing hooks that were never set.
	sys.SetTracer(nil)
	sys.SetObserver(nil)
	if _, err := sys.Deliver("n", Message{Op: "ping"}); err != nil {
		t.Fatal(err)
	}
	// Install then remove: the fast path must come back.
	sys.SetTracer(&collectTracer{})
	sys.SetObserver(&transcript{})
	if _, err := sys.Deliver("n", Message{Op: "ping"}); err != nil {
		t.Fatal(err)
	}
	sys.SetTracer(nil)
	sys.SetObserver(nil)

	msg := Message{Op: "ping"}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sys.Deliver("n", msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("untraced Deliver allocates %.1f objects per run, want 0", allocs)
	}
}
