package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"lateral/internal/cluster"
	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/netsim"
)

// pipelinedCallers are in-flight slots, not CPU consumers: each parks on
// its reply waiter in the one session's demux while another caller pumps.
const pipelinedCallers = 16

// pipelinedMaxPayload is the largest payload, 32 B × 2^7.
const pipelinedMaxPayload = 4096

// pipelined is rpc-pipelined: 16 callers share one pooled replica, so one
// secure session carries all of them and the stub's adaptive coalescer
// decides how many requests share a sealed record.
type pipelined struct {
	p          *probe
	net        *netsim.Network
	pool       *cluster.Pool
	handshake  time.Duration
	payloads   [][][]byte // per caller
	mismatched atomic.Int64
}

func setupPipelined(seed int64) (fixture, error) {
	tag := fmt.Sprintf("pipelined-%d", seed)
	f := &pipelined{p: &probe{}, net: netsim.New()}
	vendor := cryptoutil.NewSigner(tag + "-vendor")
	e := &echo{p: f.p}
	m, err := newMachine(f.net, vendor, "replica-1", tag, e)
	if err != nil {
		return nil, err
	}
	f.pool, err = cluster.New(cluster.Config{
		Fleet:       "echo",
		RemoteName:  "echo",
		VendorKey:   vendor.Public(),
		Measurement: cryptoutil.Hash(core.DomainImage(e)),
		JitterSeed:  tag,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := f.pool.Admit(m.spec(f.net, tag, f.p)); err != nil {
		return nil, err
	}
	f.handshake = time.Since(start)

	// Payload sizes are log-uniform from 32 B to 4 KiB, so every size class
	// carries the same share of calls. Each payload copies a stretch of one
	// seeded 8 KiB source from a seeded offset: filling all 3.4 MB from the
	// generator byte by byte would cost more than the fixture itself, and
	// setup_s would time the generator.
	rng := rand.New(rand.NewSource(seed))
	src := make([]byte, 2*pipelinedMaxPayload)
	rng.Read(src)
	f.payloads = make([][][]byte, pipelinedCallers)
	for c := range f.payloads {
		f.payloads[c] = make([][]byte, 256)
		for i := range f.payloads[c] {
			n := int(math.Round(32 * math.Pow(2, 7*rng.Float64())))
			off := rng.Intn(len(src) - n + 1)
			f.payloads[c][i] = append([]byte(nil), src[off:off+n]...)
		}
	}
	return f, nil
}

func (f *pipelined) probe() *probe { return f.p }

func (f *pipelined) drive(ph *phase) {
	ph.run(pipelinedCallers, func(c int, l *lane) {
		mine := f.payloads[c]
		for i := 0; ; i++ {
			p := mine[i%len(mine)]
			op := l.begin(spanOp)
			start := time.Now()
			reply, err := f.pool.Do("caller", core.Message{Op: "echo", Data: p})
			if err == nil && !bytes.Equal(reply.Data, p) {
				f.mismatched.Add(1)
				err = errMismatch
			}
			end := time.Now()
			op.end()
			l.observe(start, end, err, 2*len(p))
			if l.done(end) {
				return
			}
		}
	})
}

func (f *pipelined) counters() counters {
	c := counters{}
	for _, ri := range f.pool.Replicas() {
		replicaCounters(c, ri)
	}
	probeCounters(c, f.p)
	netCounters(c, f.net, []string{"lb-replica-1"}, []string{"replica-1"})
	return c
}

func (f *pipelined) layers(*phase, counters) map[string]float64 {
	return map[string]float64{"securechan.handshake_ms": f.handshake.Seconds() * 1e3}
}

func (f *pipelined) checks() []check {
	return []check{countCheck("echo_bytes", f.mismatched.Load(), "replies differed from their request")}
}
