package simtest

import (
	"errors"
	"flag"
	"testing"
	"time"

	"lateral/internal/core"
)

var (
	seedFlag = flag.Uint64("simtest.seed", 0, "replay the replayable half of one TestSoak seed verbosely")
	soakFlag = flag.Int("simtest.soak", 0, "run TestSoak over this many seeds")
)

// TestClockTimers pins the virtual clock's contract: timers fire in
// deadline order, the clock reads each timer's own deadline when it
// fires, stop disarms, and instants not after Now fire immediately.
func TestClockTimers(t *testing.T) {
	clk := NewClock()
	c1, _ := clk.At(Epoch.Add(10 * time.Millisecond))
	c2, _ := clk.At(Epoch.Add(5 * time.Millisecond))
	c3, stop := clk.At(Epoch.Add(7 * time.Millisecond))
	if got := clk.Pending(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	if !stop() {
		t.Fatal("stop on armed timer reported not-pending")
	}
	clk.Advance(6 * time.Millisecond)
	select {
	case at := <-c2:
		if want := Epoch.Add(5 * time.Millisecond); !at.Equal(want) {
			t.Fatalf("timer fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("5ms timer did not fire after 6ms advance")
	}
	select {
	case <-c1:
		t.Fatal("10ms timer fired after only 6ms")
	case <-c3:
		t.Fatal("stopped timer fired")
	default:
	}
	clk.Advance(10 * time.Millisecond)
	if _, ok := <-c1; !ok {
		t.Fatal("10ms timer channel broken")
	}
	for _, at := range []time.Time{clk.Now(), Epoch} {
		c, _ := clk.At(at)
		select {
		case <-c:
		default:
			t.Fatalf("timer at %v did not fire immediately at %v", at, clk.Now())
		}
	}
	if got, want := clk.Elapsed(), 16*time.Millisecond; got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

// TestScheduleRoundtrip pins the codec: encode → decode → encode is the
// identity for every fault kind.
func TestScheduleRoundtrip(t *testing.T) {
	sched := append(SoakSchedule(7, 3), Schedule{At: time.Second, Fault: Fault{Kind: FaultHeal}})
	if err := Validate(sched); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	enc := EncodeSchedule(sched)
	dec, err := DecodeSchedule(enc)
	if err != nil {
		t.Fatalf("DecodeSchedule: %v\n%s", err, enc)
	}
	if got := EncodeSchedule(dec); got != enc {
		t.Fatalf("roundtrip mismatch:\n--- first\n%s--- second\n%s", enc, got)
	}
}

// TestScheduleDecodeRejects pins the decoder's bounds on hostile input.
func TestScheduleDecodeRejects(t *testing.T) {
	bad := []string{
		"crash svc-1",               // missing @offset
		"@5ms explode svc-1",        // unknown fault
		"@5ms crash",                // missing arg
		"@-5ms crash svc-1",         // negative offset
		"@500h crash svc-1",         // offset beyond bound
		"@5ms partition a",          // missing peer
		"@5ms delay 1 200 1ms 1",    // pct > 100
		"@5ms dup svc-1 9999999999", // count beyond bound
		"@5ms crash sv\x01c",        // control char in name
	}
	for _, text := range bad {
		if _, err := DecodeSchedule(text); err == nil {
			t.Errorf("DecodeSchedule(%q) accepted bad input", text)
		}
	}
	ok := "# comment\n\n@5ms crash svc-1\n@6ms heal\n@7ms tamper\n"
	if _, err := DecodeSchedule(ok); err != nil {
		t.Errorf("DecodeSchedule(%q): %v", ok, err)
	}
}

// TestHarnessBasics drives the harness directly: a budgeted call
// completes, a wedged handler is abandoned at its deadline with the slot
// preserved, and every invariant holds.
func TestHarnessBasics(t *testing.T) {
	h, err := NewHarness(HarnessConfig{Replicas: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CallWork("op-1", "key-a", 10*time.Millisecond); err != nil {
		t.Fatalf("CallWork: %v", err)
	}
	if err := h.CallWork("op-2", "key-b", 0); err != nil {
		t.Fatalf("unbounded CallWork: %v", err)
	}
	err = h.CallStall("op-3", "key-c", 5*time.Millisecond)
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("CallStall = %v, want ErrDeadline", err)
	}
	if err := h.CallWork("op-4", "key-d", 10*time.Millisecond); err != nil {
		t.Fatalf("CallWork after stall: %v", err)
	}
	if v := h.CheckAll(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	started, ok, tmo, _, _, _, inflight := h.Led.Counts()
	if started != 4 || ok != 3 || tmo != 1 || inflight != 0 {
		t.Fatalf("ledger = started %d ok %d tmo %d inflight %d, want 4/3/1/0",
			started, ok, tmo, inflight)
	}
}

// TestExploreReplayIsByteIdentical is the determinism acceptance
// criterion: a TestSoak seed's replayable half reproduces a byte-identical
// event trace across two independent runs.
func TestExploreReplayIsByteIdentical(t *testing.T) {
	cfg := soakConfig(42)
	a, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failed() {
		t.Fatalf("seed 42 violated invariants:\n%s", a.TraceBytes())
	}
	if a.TraceBytes() != b.TraceBytes() {
		t.Fatalf("trace not byte-identical across runs:\n--- run 1\n%s--- run 2\n%s",
			a.TraceBytes(), b.TraceBytes())
	}
}

// TestMutationIsCaught is the mutation smoke test: with the deliberate
// serialization bug enabled, the serial checker must flag a violation
// within 1000 explored schedules — in practice the very first seed whose
// operations land two calls on one replica.
func TestMutationIsCaught(t *testing.T) {
	caught := 0
	for seed := 1; seed <= 1000; seed++ {
		res, err := Explore(ExploreConfig{Seed: uint64(seed), Ops: 12, Replicas: 2, Buggy: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			caught = seed
			for _, v := range res.Violations {
				if v.Invariant != "handler-serialization" {
					t.Fatalf("seed %d: unexpected invariant flagged: %v", seed, v)
				}
			}
			break
		}
	}
	if caught == 0 {
		t.Fatal("serialization mutation survived 1000 explored schedules")
	}
	t.Logf("mutation caught at seed %d", caught)
}

// TestMinimizeShrinksFailingSchedule pins the minimizer: the first seed
// whose soak schedule fails under the serialization mutation shrinks to a
// config with fewer faults that still fails the same invariant — the
// schedule's faults are irrelevant to that bug.
func TestMinimizeShrinksFailingSchedule(t *testing.T) {
	var cfg ExploreConfig
	for seed := uint64(1); ; seed++ {
		if seed > 20 {
			t.Fatal("no seed in 1..20 fails under the serialization mutation")
		}
		cfg = ExploreConfig{Seed: seed, Ops: 16, Replicas: 2, Buggy: true, Schedule: SoakSchedule(seed, 2)}
		res, err := Explore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() {
			break
		}
	}
	min, minRes, err := Minimize(cfg)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if !minRes.Failed() || minRes.Violations[0].Invariant != "handler-serialization" {
		t.Fatalf("minimized config fails with %v, want handler-serialization", minRes.Violations)
	}
	if len(min.Schedule) >= len(cfg.Schedule) || min.Ops > cfg.Ops {
		t.Fatalf("minimize did not shrink the config: %d→%d faults, %d→%d ops",
			len(cfg.Schedule), len(min.Schedule), cfg.Ops, min.Ops)
	}
	t.Logf("minimized: %d→%d faults, %d→%d ops", len(cfg.Schedule), len(min.Schedule), cfg.Ops, min.Ops)
}
