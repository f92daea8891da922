package experiments

import (
	"crypto/ed25519"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/distributed"
	"lateral/internal/netsim"
	"lateral/internal/sgx"
)

// e22Echo is the remote service: a trivial enclave component whose reply
// mirrors its request, so the experiment measures the transport, not the
// handler.
type e22Echo struct{}

func (e22Echo) CompName() string     { return "echo" }
func (e22Echo) CompVersion() string  { return "1.0" }
func (e22Echo) Init(*core.Ctx) error { return nil }
func (e22Echo) Handle(env core.Envelope) (core.Message, error) {
	return core.Message{Op: "ok", Data: env.Msg.Data}, nil
}

// e22Result is one depth's measurement: wire rounds consumed, wall-clock
// time and heap allocations of the call phase (handshake excluded), and
// the stub's accounting snapshot.
type e22Result struct {
	pumps   int64
	elapsed time.Duration
	mallocs uint64
	stats   distributed.StubStats
}

// e22Run drives `calls` echo requests through one stub at the given
// pipeline depth (concurrent callers, each issuing its share
// sequentially) and reports how many pump rounds — wire round trips — the
// workload consumed, plus the stub's accounting snapshot. When lat is
// non-nil it must hold `calls` slots — worker w stores its i-th call's
// latency at lat[w*(calls/depth)+i], so the slice is written race-free
// and E27 can cut p99 from it afterwards.
func e22Run(depth, calls int, rtt time.Duration, lat []time.Duration) (res e22Result, err error) {
	vendor := cryptoutil.NewSigner("intel")
	net := netsim.New()

	sub, err := sgx.New(sgx.Config{DeviceSeed: "e22-cpu", Vendor: vendor})
	if err != nil {
		return res, err
	}
	sys := core.NewSystem(sub)
	if err := sys.Launch(e22Echo{}, true, 1); err != nil {
		return res, err
	}
	if err := sys.InitAll(); err != nil {
		return res, err
	}
	meas := cryptoutil.Hash(core.DomainImage(e22Echo{}))

	exp, err := distributed.NewExporter(distributed.ExportConfig{
		System:    sys,
		Component: "echo",
		Endpoint:  net.Attach("cloud"),
		Identity:  cryptoutil.NewSigner("cloud-tls"),
		Rand:      cryptoutil.NewPRNG("e22-srv"),
	})
	if err != nil {
		return res, err
	}

	// The pump models the wire's round-trip time with a real sleep BEFORE
	// serving: while the token-holding caller waits out the RTT, the other
	// callers' sealed requests land in the exporter's inbox, so one serve
	// round drains the whole accumulated batch. Pipelining shows up as
	// fewer rounds for the same number of calls.
	var rounds atomic.Int64
	stub, err := distributed.NewStub(distributed.StubConfig{
		RemoteName:     "echo",
		RemoteEndpoint: "cloud",
		Endpoint:       net.Attach("laptop"),
		Rand:           cryptoutil.NewPRNG("e22-cli"),
		VerifyServer: func(_ ed25519.PublicKey, tr [32]byte, evidence []byte) error {
			q, err := core.DecodeQuote(evidence)
			if err != nil {
				return err
			}
			return core.VerifyQuote(q, tr[:], vendor.Public(), meas)
		},
		Pump: func() error {
			time.Sleep(rtt)
			rounds.Add(1)
			return exp.Serve()
		},
	})
	if err != nil {
		return res, err
	}
	if err := stub.Connect(); err != nil {
		return res, err
	}
	handshake := rounds.Load()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	var wg sync.WaitGroup
	var failures atomic.Int64
	per := calls / depth
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				req := core.Message{Op: "echo", Data: []byte(fmt.Sprintf("w%d-%d", w, i))}
				callStart := time.Now()
				if _, err := stub.Handle(core.Envelope{Msg: req}); err != nil {
					failures.Add(1)
				}
				if lat != nil {
					lat[w*per+i] = time.Since(callStart)
				}
			}
		}(w)
	}
	wg.Wait()

	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs

	if n := failures.Load(); n > 0 {
		return res, fmt.Errorf("E22: %d of %d calls failed at depth %d", n, calls, depth)
	}
	res.pumps = rounds.Load() - handshake
	res.stats = stub.Stats()
	return res, nil
}

// E22Pipelining measures what wire-v3 correlation IDs buy: with every
// request carrying a caller-chosen ID and one receiver demultiplexing
// replies to parked callers, a stub sustains many in-flight calls on one
// secure channel. Under a fixed simulated round-trip time, the cost of a
// workload is the number of wire rounds it needs; depth-d pipelining
// amortizes each round over up to d calls. The experiment sweeps the
// depth and verifies both the speedup and the exactly-once bookkeeping
// (issued = completed, nothing in flight, no orphaned replies) at every
// depth.
func E22Pipelining() (Table, error) {
	t := Table{
		ID:     "E22",
		Title:  "pipelined secure-channel RPC",
		Anchor: "§III-B trustworthy invocation across machines; latency of attested channels",
		Header: []string{"depth", "calls", "rounds", "calls/round", "allocs/op", "verdict"},
	}

	const calls = 64
	const rtt = time.Millisecond
	rounds := make(map[int]int64)
	for _, depth := range []int{1, 4, 16, 64} {
		r, err := e22Run(depth, calls, rtt, nil)
		if err != nil {
			return t, err
		}
		st := r.stats
		rounds[depth] = r.pumps
		allocs := float64(r.mallocs) / float64(calls)
		balanced := st.Issued == st.Completed+st.Failed &&
			st.Failed == 0 && st.Inflight == 0 && st.Orphans == 0 &&
			allocs <= e22AllocCap(depth, calls)
		t.AddRow(depth, calls, r.pumps, float64(calls)/float64(r.pumps),
			fmt.Sprintf("%.2f", allocs), passFail(balanced))
	}

	// The headline claim: depth-16 pipelining needs at least 3x fewer
	// wire rounds than depth-1 for the same workload.
	speedup := float64(rounds[1]) / float64(rounds[16])
	t.AddRow("16 vs 1", calls, "-", "-", "-",
		passFail(speedup >= 3))
	t.Notes = append(t.Notes,
		fmt.Sprintf("round amortization at depth 16: %.1fx fewer wire rounds than depth 1", speedup),
		"rounds exclude the handshake; each round costs one simulated RTT",
	)
	return t, nil
}

// e22AllocCap bounds steady-state heap allocations per call at each
// pipeline depth — the regression gate for the demux hot path, where a
// stray per-ID waiter or job allocation shows up as +1 or more at every
// depth. Allocations are whole-process mallocs over the call phase, so
// per-batch fixed costs (driver goroutines, pump accounting) amortize
// over the call count: the short pipelining sweep (calls=64) gets looser
// caps than the checked-in calls=256 baseline, whose steady state runs
// about 2.3-5.2 allocs/op across the depth sweep.
func e22AllocCap(depth, calls int) float64 {
	caps := map[int]float64{1: 5, 4: 6, 16: 9, 64: 18}
	if calls >= 256 {
		caps = map[int]float64{1: 4.5, 4: 4.5, 16: 5.5, 64: 6}
	}
	if c, ok := caps[depth]; ok {
		return c
	}
	return 18
}

// E22Depth is one row of the checked-in BENCH_e22.json baseline: the wire
// economics and allocation cost of the depth sweep, for tracking the
// pipelining trajectory across changes.
type E22Depth struct {
	Depth         int     `json:"depth"`
	Calls         int     `json:"calls"`
	WireRounds    int64   `json:"wire_rounds"`
	CallsPerRound float64 `json:"calls_per_round"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
}

// E22Baseline runs the E22 depth sweep and returns one baseline row per
// depth. `lateralbench -e22-json` writes the result to BENCH_e22.json;
// wire rounds and allocs/op are deterministic, ops/sec is wall-clock and
// machine-dependent (it is a trajectory, not a gate). Allocations are
// whole-process mallocs over the call phase divided by calls, so goroutine
// spawns and accounting noise show up as fractions — near-zero means the
// sealed-record hot path itself is allocation-free.
func E22Baseline() ([]E22Depth, error) {
	const calls = 256
	const rtt = time.Millisecond
	out := make([]E22Depth, 0, 4)
	for _, depth := range []int{1, 4, 16, 64} {
		r, err := e22Run(depth, calls, rtt, nil)
		if err != nil {
			return nil, err
		}
		if a := float64(r.mallocs) / float64(calls); a > e22AllocCap(depth, calls) {
			return nil, fmt.Errorf("E22: %.2f allocs/op at depth %d exceeds regression cap %.2f",
				a, depth, e22AllocCap(depth, calls))
		}
		out = append(out, E22Depth{
			Depth:         depth,
			Calls:         calls,
			WireRounds:    r.pumps,
			CallsPerRound: float64(calls) / float64(r.pumps),
			OpsPerSec:     float64(calls) / r.elapsed.Seconds(),
			AllocsPerOp:   float64(r.mallocs) / float64(calls),
		})
	}
	return out, nil
}
