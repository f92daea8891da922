package main

import (
	"math"
	"math/bits"
	"sort"
)

// Latencies go into a log-linear histogram rather than a sample slice: the
// ingest workload completes over a million readings a second, and keeping
// every sample would make the benchmark's own heap the largest thing it
// measures. Each power-of-two octave of nanoseconds is split into histSub
// buckets, so a bucket is at most 1/histSub of its value wide.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = histSub + (64-histSubBits)*histSub
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile; a percentile with fewer behind it is not reported.
const minBeyond = 10

// hist counts operation latencies in nanoseconds.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return histSub + shift*histSub + int(uint64(v)>>uint(shift)) - histSub
}

// bucketRange returns the lowest value a bucket holds and its width.
func bucketRange(b int) (lo, width float64) {
	if b < histSub {
		return float64(b), 1
	}
	shift := (b - histSub) / histSub
	sub := (b - histSub) % histSub
	return float64(int64(histSub+sub) << uint(shift)), float64(int64(1) << uint(shift))
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds over n successful samples
// plus failed operations, which sort after every sample because a failed
// operation misses any latency limit. ok is false when the quantile falls
// on a failed operation or fewer than minBeyond operations lie beyond it.
// Inside a bucket the value is interpolated by rank.
func (h *hist) quantile(q float64, failed uint64) (v float64, ok bool) {
	total := h.n + failed
	if total == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n || total-rank < minBeyond {
		return 0, false
	}
	var cum uint64
	for b, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo, width := bucketRange(b)
		return lo + width*(float64(rank-cum)-0.5)/float64(c), true
	}
	return 0, false
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default exclusive method),
// so spreads read the same here as in any script that checks them.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	switch len(x) {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	ld := len(x)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func median(values []float64) float64 {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	if len(x) == 0 {
		return 0
	}
	if len(x)%2 == 1 {
		return x[len(x)/2]
	}
	return (x[len(x)/2-1] + x[len(x)/2]) / 2
}
