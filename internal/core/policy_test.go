package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// rulebook is a minimal Policy for tests: confer maps a channel (or the
// @asset / @deliver pseudo-channels) to the labels touching it confers;
// deny maps a channel to the label whose presence forbids it ("" forbids
// unconditionally).
type rulebook struct {
	confer map[string][]string
	deny   map[string]string
}

func (r *rulebook) CheckInvoke(req PolicyRequest) ([]string, error) {
	if lbl, ok := r.deny[req.Channel]; ok && (lbl == "" || HasTaint(req.Taint, lbl)) {
		return nil, fmt.Errorf("rulebook: %s forbidden (taint %v): %w", req.Channel, req.Taint, ErrPolicy)
	}
	return r.confer[req.Channel], nil
}

// sinkRecorder collects journaled events and the span ID each names.
type sinkRecorder struct {
	mu     sync.Mutex
	events []string
	spans  []uint64
}

func (s *sinkRecorder) RecordEvent(kind, actor, detail string, trace, span uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, kind+":"+actor)
	s.spans = append(s.spans, span)
}

func (s *sinkRecorder) has(e string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, got := range s.events {
		if got == e {
			return true
		}
	}
	return false
}

// deputyComp models the confused deputy: on "exfil" it first reads the
// id store (acquiring taint) and then tries the network; on "send" it
// goes straight to the network; on "load-then-send" the taint comes from
// a domain-memory asset instead of a channel.
type deputyComp struct{ ctx *Ctx }

func (d *deputyComp) CompName() string    { return "deputy" }
func (d *deputyComp) CompVersion() string { return "1.0" }
func (d *deputyComp) Init(ctx *Ctx) error {
	d.ctx = ctx
	return ctx.StoreAsset("ids", []byte("meter-007"))
}
func (d *deputyComp) Handle(env Envelope) (Message, error) {
	switch env.Msg.Op {
	case "exfil":
		if _, err := d.ctx.Call("to-store", Message{Op: "ids"}); err != nil {
			return Message{}, err
		}
		return d.ctx.Call("to-net", Message{Op: "put"})
	case "send":
		return d.ctx.Call("to-net", Message{Op: "put"})
	case "load-then-send":
		if _, err := d.ctx.LoadAsset("ids"); err != nil {
			return Message{}, err
		}
		return d.ctx.Call("to-net", Message{Op: "put"})
	case "taint":
		return Message{Data: []byte(strings.Join(d.ctx.Taint(), ","))}, nil
	}
	return Message{}, nil
}

// taintEcho replies with the taint set its invocation arrived with.
type taintEcho struct{ name string }

func (e *taintEcho) CompName() string    { return e.name }
func (e *taintEcho) CompVersion() string { return "1.0" }
func (e *taintEcho) Init(*Ctx) error     { return nil }
func (e *taintEcho) Handle(env Envelope) (Message, error) {
	return Message{Data: []byte(strings.Join(env.Taint, ","))}, nil
}

func buildPolicySystem(t *testing.T) (*System, *deputyComp) {
	t.Helper()
	sys := newTestSystem(t)
	d := &deputyComp{}
	for _, c := range []Component{d, &taintEcho{name: "store"}, &taintEcho{name: "net"}} {
		if err := sys.Launch(c, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range []ChannelSpec{
		{Name: "to-store", From: "deputy", To: "store"},
		{Name: "to-net", From: "deputy", To: "net"},
	} {
		if err := sys.Grant(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	return sys, d
}

func TestPolicyDeniesTaintedEgress(t *testing.T) {
	sys, _ := buildPolicySystem(t)
	rec := &sinkRecorder{}
	sys.SetEventRecorder(rec)
	sys.SetPolicy(&rulebook{
		confer: map[string][]string{"to-store": {"meter-identities"}},
		deny:   map[string]string{"to-net": "meter-identities"},
	})

	// Untainted egress is unaffected.
	if _, err := sys.Deliver("deputy", Message{Op: "send"}); err != nil {
		t.Fatalf("untainted send: %v", err)
	}
	// Post-taint egress is refused before the net handler runs.
	if _, err := sys.Deliver("deputy", Message{Op: "exfil"}); !errors.Is(err, ErrPolicy) {
		t.Fatalf("exfil err = %v, want ErrPolicy", err)
	}
	if got := sys.Stats().PolicyDenies; got != 1 {
		t.Errorf("PolicyDenies = %d, want 1", got)
	}
	if !rec.has("policy-deny:deputy") {
		t.Errorf("deny not journaled: %v", rec.events)
	}
	// The taint died with its chain: a fresh delivery is untainted again.
	if _, err := sys.Deliver("deputy", Message{Op: "send"}); err != nil {
		t.Fatalf("post-deny untainted send: %v", err)
	}
}

// TestPolicyDenyIsTraced refuses a traced delivery and a traced call: the
// span each policy-deny journal entry names must be one the tracer saw
// start and end, with no elapsed time and ErrPolicy as its error.
func TestPolicyDenyIsTraced(t *testing.T) {
	for _, tc := range []struct {
		name string
		deny string // the channel the rulebook refuses unconditionally
		kind SpanKind
	}{
		{"deliver", PolicyDeliver, SpanDeliver},
		{"call", "to-net", SpanCall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, _ := buildPolicySystem(t)
			rec, tr := &sinkRecorder{}, &collectTracer{}
			sys.SetEventRecorder(rec)
			sys.SetTracer(tr)
			sys.SetPolicy(&rulebook{deny: map[string]string{tc.deny: ""}})
			if _, err := sys.Deliver("deputy", Message{Op: "send"}); !errors.Is(err, ErrPolicy) {
				t.Fatalf("err = %v, want ErrPolicy", err)
			}
			if len(rec.events) != 1 || rec.events[0] != "policy-deny:deputy" || rec.spans[0] == 0 {
				t.Fatalf("journal = %v with spans %v, want one traced policy-deny", rec.events, rec.spans)
			}
			id := rec.spans[0]
			started := false
			for _, s := range tr.starts {
				started = started || s.ID == id
			}
			if !started {
				t.Errorf("journaled span %d never started", id)
			}
			for i, s := range tr.ends {
				if s.ID != id {
					continue
				}
				if tr.infos[i].Kind != tc.kind || tr.elapsed[i] != 0 || !errors.Is(tr.errs[i], ErrPolicy) {
					t.Errorf("denied span ended as %v after %v with %v, want %v after 0 with ErrPolicy",
						tr.infos[i].Kind, tr.elapsed[i], tr.errs[i], tc.kind)
				}
				return
			}
			t.Errorf("journaled span %d never ended", id)
		})
	}
}

func TestPolicyAssetLoadTaints(t *testing.T) {
	sys, _ := buildPolicySystem(t)
	sys.SetPolicy(&rulebook{
		confer: map[string][]string{PolicyAsset: {"meter-identities"}},
		deny:   map[string]string{"to-net": "meter-identities"},
	})
	if _, err := sys.Deliver("deputy", Message{Op: "load-then-send"}); !errors.Is(err, ErrPolicy) {
		t.Fatalf("load-then-send err = %v, want ErrPolicy", err)
	}
	if _, err := sys.Deliver("deputy", Message{Op: "send"}); err != nil {
		t.Fatalf("untainted send: %v", err)
	}
}

func TestPolicyAssetLoadDenied(t *testing.T) {
	sys, _ := buildPolicySystem(t)
	sys.SetPolicy(&rulebook{deny: map[string]string{PolicyAsset: ""}})
	if _, err := sys.Deliver("deputy", Message{Op: "load-then-send"}); !errors.Is(err, ErrPolicy) {
		t.Fatalf("asset load err = %v, want ErrPolicy", err)
	}
}

func TestPolicyDeliverBoundary(t *testing.T) {
	sys, _ := buildPolicySystem(t)
	sys.SetPolicy(&rulebook{deny: map[string]string{PolicyDeliver: "meter-identities"}})

	// A wire-imported tainted chain is refused at the boundary.
	_, err := sys.DeliverEnvelope("deputy", Envelope{
		Msg: Message{Op: "send"}, Taint: []string{"meter-identities"},
	})
	if !errors.Is(err, ErrPolicy) {
		t.Fatalf("tainted deliver err = %v, want ErrPolicy", err)
	}
	// An untainted delivery passes the same rule.
	if _, err := sys.DeliverEnvelope("deputy", Envelope{Msg: Message{Op: "send"}}); err != nil {
		t.Fatalf("untainted deliver: %v", err)
	}
}

func TestPolicyDeliverBoundaryConfersLabels(t *testing.T) {
	sys, _ := buildPolicySystem(t)
	sys.SetPolicy(&rulebook{confer: map[string][]string{PolicyDeliver: {"ingress"}}})
	reply, err := sys.Deliver("deputy", Message{Op: "taint"})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Data) != "ingress" {
		t.Errorf("handler taint = %q, want %q", reply.Data, "ingress")
	}
}

// Taint propagates through envelopes even with no policy installed: the
// nil fast path forwards labels (a relay machine without an engine must
// not launder a chain), it just never checks or grows them.
func TestTaintPropagatesWithoutPolicy(t *testing.T) {
	sys, _ := buildPolicySystem(t)
	reply, err := sys.DeliverEnvelope("deputy", Envelope{
		Msg: Message{Op: "taint"}, Taint: []string{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Data) != "a,b" {
		t.Errorf("handler taint = %q, want %q", reply.Data, "a,b")
	}
}

// Outbound calls inherit the chain taint and the callee's handler sees it.
func TestTaintInheritedByOutboundCalls(t *testing.T) {
	sys, _ := buildPolicySystem(t)
	reply, err := sys.DeliverEnvelope("deputy", Envelope{
		Msg: Message{Op: "send"}, Taint: []string{"upstream"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Data) != "upstream" {
		t.Errorf("net saw taint %q, want %q", reply.Data, "upstream")
	}
}

func TestMergeTaint(t *testing.T) {
	base := []string{"a", "c"}
	got := MergeTaint(base, []string{"b", "a", "b"})
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("MergeTaint = %v", got)
	}
	if strings.Join(base, ",") != "a,c" {
		t.Errorf("base mutated: %v", base)
	}
	if out := MergeTaint(base, nil); &out[0] != &base[0] {
		t.Error("no-op merge should return base unchanged")
	}
	if HasTaint(got, "q") || !HasTaint(got, "b") {
		t.Error("HasTaint wrong")
	}
}
