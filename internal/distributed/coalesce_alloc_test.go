package distributed

// The coalesced-path allocation gate: with a deep pipeline racing, the
// per-sub-frame marginal cost on the sealed hot path — enqueue, flush
// into a shared record, demux the coalesced reply — must be
// allocation-free. Per-RECORD costs (the pooled assembly
// buffer's first growth, a netsim datagram) amortize over the sub-frames
// they carry; anything per-CALL shows up as >= 1 in the whole-process
// malloc count and fails the gate. `make bench-smoke` asserts this on
// every CI pass next to the batched-ingest gate.

import (
	"crypto/ed25519"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/netsim"
	"lateral/internal/sgx"
)

// allocEcho mirrors its request so nil-data calls make nil-data replies:
// any reply payload would cost the caller-side defensive copy, which is a
// real per-byte cost but not the coalescing machinery under test here.
type allocEcho struct{}

func (allocEcho) CompName() string     { return "echo" }
func (allocEcho) CompVersion() string  { return "1.0" }
func (allocEcho) Init(*core.Ctx) error { return nil }
func (allocEcho) Handle(env core.Envelope) (core.Message, error) {
	return core.Message{Op: "ok", Data: env.Msg.Data}, nil
}

func TestCoalescedZeroAllocPerSubFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path; bench-smoke runs this gate without -race")
	}
	vendor := cryptoutil.NewSigner("intel")
	net := netsim.New()
	sub, err := sgx.New(sgx.Config{DeviceSeed: "alloc-cpu", Vendor: vendor})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(sub)
	if err := sys.Launch(allocEcho{}, true, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitAll(); err != nil {
		t.Fatal(err)
	}
	meas := cryptoutil.Hash(core.DomainImage(allocEcho{}))

	exp, err := NewExporter(ExportConfig{
		System:    sys,
		Component: "echo",
		Endpoint:  net.Attach("cloud"),
		Identity:  cryptoutil.NewSigner("cloud-tls"),
		Rand:      cryptoutil.NewPRNG("alloc-srv"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A real (wall-time) RTT in the pump: while the receive-token holder
	// waits it out, the other callers' frames pile onto the queue and
	// coalesce — with zero RTT the calls serialize and nothing shares a
	// record.
	stub, err := NewStub(StubConfig{
		RemoteName:     "echo",
		RemoteEndpoint: "cloud",
		Endpoint:       net.Attach("laptop"),
		Rand:           cryptoutil.NewPRNG("alloc-cli"),
		VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
			q, err := core.DecodeQuote(evidence)
			if err != nil {
				return err
			}
			return core.VerifyQuote(q, tr[:], vendor.Public(), meas)
		},
		Pump: func() error {
			time.Sleep(200 * time.Microsecond)
			return exp.Serve()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stub.Connect(); err != nil {
		t.Fatal(err)
	}

	const depth = 16
	var failures atomic.Int64
	run := func(calls int) {
		var wg sync.WaitGroup
		per := calls / depth
		for w := 0; w < depth; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := stub.Handle(core.Envelope{Msg: core.Message{Op: "echo"}}); err != nil {
						failures.Add(1)
					}
				}
			}()
		}
		wg.Wait()
	}

	// Warm up: populate the waiter/frame pools and size the demux maps
	// before the measured phase.
	run(depth * 16)

	const calls = depth * 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(calls)
	runtime.ReadMemStats(&after)

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d calls failed", n)
	}
	perSub := float64(after.Mallocs-before.Mallocs) / float64(calls)
	if perSub >= 1 {
		t.Fatalf("coalesced hot path allocates %.3f per sub-frame (%d mallocs / %d calls), want 0",
			perSub, after.Mallocs-before.Mallocs, calls)
	}
	st := stub.Stats()
	if st.CoalescedRecords == 0 {
		t.Fatal("no records coalesced — the gate measured the plain path, not the coalesced one")
	}
	if st.Records >= st.Issued {
		t.Fatalf("sealed %d records for %d issued calls — coalescing never amortized an AEAD pass",
			st.Records, st.Issued)
	}
}
