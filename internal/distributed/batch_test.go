package distributed

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lateral/internal/core"
)

func TestBatchCodecRoundTrip(t *testing.T) {
	readings := []Reading{
		{Op: "put", Data: []byte("a=1")},
		{Op: "put", Data: []byte("b=2")},
		{Op: "get", Data: []byte("a")},
		{Op: "noop"},
	}
	payload, err := EncodeBatch(readings)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(readings) {
		t.Fatalf("decoded %d readings, want %d", len(got), len(readings))
	}
	for i := range readings {
		if got[i].Op != readings[i].Op || !bytes.Equal(got[i].Data, readings[i].Data) {
			t.Fatalf("reading %d: got %+v want %+v", i, got[i], readings[i])
		}
	}
	// The codec admits exactly one encoding: reencode is the identity.
	again, err := ReencodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, payload) {
		t.Fatal("reencoded batch differs from canonical encoding")
	}
}

func TestBatchCodecRejects(t *testing.T) {
	// valid is count 2, then [len 8][0 3 "put" "a=1"] and [len 6][0 3 "get" "a"]:
	// its second reading starts at byte 14.
	valid, err := EncodeBatch([]Reading{{Op: "put", Data: []byte("a=1")}, {Op: "get", Data: []byte("a")}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
		want string // the refusal that names the field
	}{
		{"empty", nil, "truncated coalesced body count"},
		{"short count", []byte{0}, "truncated coalesced body count"},
		{"zero count", []byte{0, 0}, "count 0 out of range"},
		{"count beyond MaxCoalesce", []byte{1, 1, 0, 0, 0, 2, 0, 0}, "count 257 out of range"},
		{"count not backed", []byte{0, 2, 0, 0, 0, 2, 0, 0}, "not backed by payload"},
		{"truncated in a sub-frame length", valid[:16], "truncated sub-frame length"},
		{"truncated in an op length", []byte{0, 1, 0, 0, 0, 1, 0}, "short call frame"},
		{"sub-frame too short for its op length", []byte{0, 1, 0, 0, 0, 3, 0, 5, 'p'}, "truncated op"},
		{"truncated mid data", valid[:len(valid)-1], "truncated sub-frame:"},
		{"sub-frame length past the payload", []byte{0, 1, 0xff, 0xff, 0xff, 0xff, 0}, "truncated sub-frame:"},
		{"zero-length sub-frame", []byte{0, 1, 0, 0, 0, 0, 0}, "empty sub-frame"},
		{"trailing byte", append(append([]byte{}, valid...), 0), "1 trailing bytes"},
		{"reserved op", []byte{0, 1, 0, 0, 0, 6, 0, 4, 0, 'p', 'i', 'n'}, "reserved op"},
	}
	for _, tc := range cases {
		if _, err := DecodeBatch(tc.b); !errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeBatch = %v, want ErrTransport naming %q", tc.name, err, tc.want)
		}
		if _, err := ReencodeBatch(tc.b); err == nil {
			t.Errorf("%s: ReencodeBatch accepted invalid input", tc.name)
		}
	}
	// Encode-side validation mirrors the decoder.
	if _, err := EncodeBatch(nil); !errors.Is(err, ErrTransport) {
		t.Errorf("EncodeBatch(nil) = %v, want ErrTransport", err)
	}
	if _, err := EncodeBatch([]Reading{{Op: PingOp}}); !errors.Is(err, ErrTransport) {
		t.Errorf("EncodeBatch(reserved op) = %v, want ErrTransport", err)
	}
	if _, err := EncodeBatch(make([]Reading, MaxCoalesce+1)); !errors.Is(err, ErrTransport) {
		t.Errorf("EncodeBatch(oversized) = %v, want ErrTransport", err)
	}
}

func TestBatchEndToEnd(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	readings := []Reading{
		{Op: "put", Data: []byte("alpha=1")},
		{Op: "put", Data: []byte("beta=2")},
		{Op: "get", Data: []byte("alpha")},
		{Op: "get", Data: []byte("missing")}, // per-reading failure
		{Op: "get", Data: []byte("beta")},
	}
	results, err := f.stub.HandleBatch(core.Envelope{}, readings, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(readings) {
		t.Fatalf("got %d results for %d readings", len(results), len(readings))
	}
	for i := 0; i < 2; i++ {
		if results[i].Err != nil || results[i].Msg.Op != "ok" {
			t.Fatalf("put %d: %+v", i, results[i])
		}
	}
	if results[2].Err != nil || string(results[2].Msg.Data) != "1" {
		t.Fatalf("get alpha: %+v", results[2])
	}
	if !errors.Is(results[3].Err, ErrRemote) || !strings.Contains(results[3].Err.Error(), "no such doc") {
		t.Fatalf("get missing: want wrapped remote error, got %v", results[3].Err)
	}
	if results[4].Err != nil || string(results[4].Msg.Data) != "2" {
		t.Fatalf("get beta: %+v", results[4])
	}
	// One sealed request carried all five readings.
	if st := f.stub.Stats(); st.Issued != 1 {
		t.Fatalf("batch issued %d sealed requests, want 1", st.Issued)
	}
}

// TestBatchCarriesLargeReply: a reading's reply has no size bound of its
// own, as a single call's has none, so a value over 64 KiB put by a
// single call reads back whole through a batch.
func TestBatchCarriesLargeReply(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("v"), 70<<10)
	if _, err := f.stub.Handle(core.Envelope{Msg: core.Message{
		Op: "put", Data: append([]byte("big="), big...),
	}}); err != nil {
		t.Fatal(err)
	}
	results, err := f.stub.HandleBatch(core.Envelope{}, []Reading{{Op: "get", Data: []byte("big")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || !bytes.Equal(results[0].Msg.Data, big) {
		t.Fatalf("get big: %d bytes, %v; want %d bytes", len(results[0].Msg.Data), results[0].Err, len(big))
	}
}

// TestBatchAmortizesAEADPasses is the headline claim: at batch=16, batched
// ingestion seals 16x fewer request records than per-reading sends —
// comfortably above the 8x floor the E23 acceptance demands.
func TestBatchAmortizesAEADPasses(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	const batch = 16
	for i := 0; i < batch; i++ {
		if _, err := f.stub.Handle(core.Envelope{Msg: core.Message{
			Op: "put", Data: []byte(fmt.Sprintf("solo-%d=1", i)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	solo := f.stub.Stats().Issued
	readings := make([]Reading, batch)
	for i := range readings {
		readings[i] = Reading{Op: "put", Data: []byte(fmt.Sprintf("batch-%d=1", i))}
	}
	if _, err := f.stub.HandleBatch(core.Envelope{}, readings, nil); err != nil {
		t.Fatal(err)
	}
	batched := f.stub.Stats().Issued - solo
	if solo != batch || batched != 1 {
		t.Fatalf("AEAD passes: %d per-reading vs %d batched, want %d vs 1", solo, batched, batch)
	}
	if ratio := float64(solo) / float64(batched); ratio < 8 {
		t.Fatalf("batch=16 amortization %.1fx below the 8x floor", ratio)
	}
}

func TestBatchCarriesBudget(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	// A batch with a live budget executes guarded; the stall reading burns
	// the shared deadline server-side and fails typed, while the fast
	// readings before it succeed.
	readings := []Reading{
		{Op: "put", Data: []byte("x=1")},
		{Op: "stall"},
	}
	results, err := f.stub.HandleBatch(core.Envelope{
		Deadline: time.Now().Add(30 * time.Millisecond),
	}, readings, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("fast reading failed: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, core.ErrDeadline) {
		t.Fatalf("stalled reading: want typed ErrDeadline, got %v", results[1].Err)
	}
}

func TestBatchSpentBudgetRefusedBeforeTransmit(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	_, err := f.stub.HandleBatch(core.Envelope{
		Deadline: time.Now().Add(-time.Millisecond),
	}, []Reading{{Op: "put", Data: []byte("x=1")}}, nil)
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("spent budget: want ErrDeadline before transmit, got %v", err)
	}
	if st := f.stub.Stats(); st.Issued != 0 {
		t.Fatalf("spent-budget batch still issued %d records", st.Issued)
	}
}

func TestBatchMalformedPayloadFailsWholeFrame(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	// A hand-built count of 3 over one sub-frame's worth of bytes, through
	// the raw call path: the exporter must fail the frame with a
	// transport-shaped remote error, not crash or half-execute.
	_, err := f.stub.Handle(core.Envelope{Msg: core.Message{
		Op: BatchOp, Data: []byte{0, 3, 0, 0, 0, 1, 0},
	}})
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "count 3 not backed by payload") {
		t.Fatalf("malformed batch: want remote error naming the count, got %v", err)
	}
	// A valid put z=9 ahead of a reading whose sub-frame length claims one
	// byte more than the payload holds: the payload is parsed before any
	// reading runs, so the failed frame ran nothing, and a retry of it
	// cannot count the put twice.
	before := f.cloudSys.Stats().Invocations
	_, err = f.stub.Handle(core.Envelope{Msg: core.Message{
		Op: BatchOp, Data: []byte{0, 2, 0, 0, 0, 8, 0, 3, 'p', 'u', 't', 'z', '=', '9', 0, 0, 0, 7, 0, 3, 'p', 'u', 't', 'z'},
	}})
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "truncated sub-frame:") {
		t.Fatalf("valid prefix, truncated reading: want remote error naming the sub-frame, got %v", err)
	}
	if ran := f.cloudSys.Stats().Invocations - before; ran != 0 {
		t.Fatalf("failed frame ran %d readings, want 0", ran)
	}
	// The session survives: a well-formed batch right after succeeds, and
	// the store never held the prefix's key.
	results, err := f.stub.HandleBatch(core.Envelope{}, []Reading{
		{Op: "put", Data: []byte("y=2")},
		{Op: "get", Data: []byte("z")},
	}, nil)
	if err != nil || results[0].Err != nil {
		t.Fatalf("session did not survive malformed batch: %v %v", err, results)
	}
	if !errors.Is(results[1].Err, ErrRemote) || !strings.Contains(results[1].Err.Error(), "no such doc") {
		t.Fatalf("get z after the failed frame: want no such doc, got %+v", results[1])
	}
}

// denyOp is a policy refusing every external delivery of one op.
type denyOp string

func (d denyOp) CheckInvoke(req core.PolicyRequest) ([]string, error) {
	if req.Channel == core.PolicyDeliver && req.Op == string(d) {
		return nil, fmt.Errorf("op %s: %w", req.Op, core.ErrPolicy)
	}
	return nil, nil
}

// denyCount counts the policy denies a system journals.
type denyCount struct{ n atomic.Int32 }

func (d *denyCount) RecordEvent(kind, _, _ string, _, _ uint64) {
	if kind == "policy-deny" {
		d.n.Add(1)
	}
}

// TestBatchUnderHooks: a batch frame is one core delivery, yet each
// reading keeps what its own delivery would get — its policy verdict, its
// deliver and handle spans, its guard against the frame's budget, and the
// frame's one admission into a busy slot.
func TestBatchUnderHooks(t *testing.T) {
	puts := []Reading{
		{Op: "put", Data: []byte("a=1")},
		{Op: "put", Data: []byte("b=2")},
		{Op: "put", Data: []byte("c=3")},
	}
	cases := []struct {
		name     string
		readings []Reading
		budget   time.Duration
		// setup installs the case's hooks on f and returns its check.
		setup func(t *testing.T, f *fixture) func(results []BatchResult)
	}{
		{
			name:     "policy denies one op",
			readings: []Reading{puts[0], {Op: "get", Data: []byte("a")}, puts[1]},
			setup: func(t *testing.T, f *fixture) func([]BatchResult) {
				rec := &denyCount{}
				f.cloudSys.SetEventRecorder(rec)
				f.cloudSys.SetPolicy(denyOp("get"))
				return func(results []BatchResult) {
					for i, r := range results {
						if i == 1 && !errors.Is(r.Err, core.ErrPolicy) || i != 1 && r.Err != nil {
							t.Errorf("reading %d: %v, want ErrPolicy only for the get", i, r.Err)
						}
					}
					if n := rec.n.Load(); n != 1 {
						t.Errorf("%d policy denies journaled, want 1", n)
					}
				}
			},
		},
		{
			name:     "tracer installed",
			readings: puts,
			setup: func(t *testing.T, f *fixture) func([]BatchResult) {
				sink := &spanSink{}
				f.cloudSys.SetTracer(sink)
				return func(results []BatchResult) {
					for i, r := range results {
						if r.Err != nil {
							t.Errorf("reading %d: %v", i, r.Err)
						}
					}
					spans := map[core.SpanKind]int{}
					for _, k := range sink.kinds {
						spans[k]++
					}
					if spans[core.SpanDeliver] != len(puts) || spans[core.SpanHandle] != len(puts) {
						t.Errorf("spans %v, want one deliver and one handle span per reading", spans)
					}
				}
			},
		},
		{
			name:     "budgeted frame stalls",
			readings: []Reading{puts[0], {Op: "stall"}, puts[1], puts[2]},
			budget:   30 * time.Millisecond,
			setup: func(t *testing.T, f *fixture) func([]BatchResult) {
				return func(results []BatchResult) {
					if results[0].Err != nil {
						t.Errorf("reading before the stall: %v", results[0].Err)
					}
					for i, r := range results[1:] {
						if !errors.Is(r.Err, core.ErrDeadline) {
							t.Errorf("reading %d: %v, want ErrDeadline from the stall on", i+1, r.Err)
						}
					}
				}
			},
		},
		{
			name:     "unbudgeted frame into a held slot",
			readings: puts,
			setup: func(t *testing.T, f *fixture) func([]BatchResult) {
				f.cloudSys.SetAdmissionLimit(1)
				// An abandoned 100ms stall keeps the store's slot, as in
				// TestRemoteOverloadTyped.
				if _, err := f.stub.Handle(core.Envelope{
					Msg:      core.Message{Op: "stall"},
					Deadline: time.Now().Add(10 * time.Millisecond),
				}); !errors.Is(err, core.ErrDeadline) {
					t.Fatalf("stall: got %v, want ErrDeadline", err)
				}
				return func(results []BatchResult) {
					for i, r := range results {
						if !errors.Is(r.Err, core.ErrOverloaded) {
							t.Errorf("reading %d: %v, want ErrOverloaded", i, r.Err)
						}
					}
					time.Sleep(120 * time.Millisecond) // let the abandoned handler drain
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, nil, false)
			if err := f.stub.Connect(); err != nil {
				t.Fatal(err)
			}
			check := tc.setup(t, f)
			var env core.Envelope
			if tc.budget > 0 {
				env.Deadline = time.Now().Add(tc.budget)
			}
			results, err := f.stub.HandleBatch(env, tc.readings, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(tc.readings) {
				t.Fatalf("%d results for %d readings", len(results), len(tc.readings))
			}
			check(results)
		})
	}
}

// TestBatchIngestZeroAllocPerReading is the bench-smoke gate: the batched
// hot path — encode, seal, open, fan out, per-reading reply, decode —
// must stay at 0 allocs/op per reading (a small constant per batch,
// amortized below one across its readings).
func TestBatchIngestZeroAllocPerReading(t *testing.T) {
	f := newFixture(t, nil, false)
	if err := f.stub.Connect(); err != nil {
		t.Fatal(err)
	}
	const batch = 16
	// Gets of pre-loaded keys: the component handler itself is
	// allocation-free, so the measurement isolates the wire path.
	puts := make([]Reading, batch)
	readings := make([]Reading, batch)
	for i := range readings {
		puts[i] = Reading{Op: "put", Data: []byte(fmt.Sprintf("k%02d=1", i))}
		readings[i] = Reading{Op: "get", Data: []byte(fmt.Sprintf("k%02d", i))}
	}
	if _, err := f.stub.HandleBatch(core.Envelope{}, puts, nil); err != nil {
		t.Fatal(err)
	}
	var results []BatchResult
	var err error
	// Warm the pools and the interner outside the measured window.
	for i := 0; i < 8; i++ {
		if results, err = f.stub.HandleBatch(core.Envelope{}, readings, results[:0]); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		results, err = f.stub.HandleBatch(core.Envelope{}, readings, results[:0])
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if perReading := allocs / batch; perReading >= 1 {
		t.Fatalf("batch ingest allocates %.1f/op per reading (%.1f per batch of %d); the hot path must stay at 0",
			perReading, allocs, batch)
	}
}

// BenchmarkBatchIngest measures the batched hot path in frames of 64
// readings, the shard batcher's frame size, and reports its CPU cost per
// reading as ns/reading; bench-smoke runs it once to catch rot.
func BenchmarkBatchIngest(b *testing.B) {
	f := newFixture(b, nil, false)
	if err := f.stub.Connect(); err != nil {
		b.Fatal(err)
	}
	const batch = 64
	puts := make([]Reading, batch)
	readings := make([]Reading, batch)
	for i := range readings {
		puts[i] = Reading{Op: "put", Data: []byte(fmt.Sprintf("k%02d=1", i))}
		readings[i] = Reading{Op: "get", Data: []byte(fmt.Sprintf("k%02d", i))}
	}
	var results []BatchResult
	var err error
	if results, err = f.stub.HandleBatch(core.Envelope{}, puts, results[:0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if results, err = f.stub.HandleBatch(core.Envelope{}, readings, results[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/reading")
}
