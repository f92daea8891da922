package shard

import (
	"sync"
	"time"

	"lateral/internal/distributed"
)

// defaultFrame is the frame size of a Batcher built with max 0.
const defaultFrame = 64

// Batcher accumulates one tenant's readings and flushes them through
// Router.DoBatch in fixed frames of max readings. A shed frame (a quota
// refusal, admission limit, or deadline verdict) hands its typed error to
// the caller exactly as a direct DoBatch would, and the next frame is
// full size again.
//
// A Batcher is safe for concurrent use; frames never mix routing keys
// (a frame lands on one shard), so a key change flushes the frame in
// progress.
type Batcher struct {
	rt     *Router
	tenant string
	max    int

	mu      sync.Mutex
	key     string
	pending []distributed.Reading
	results []distributed.BatchResult
	frames  int
}

// NewBatcher builds a batcher that sends tenant's readings in frames of
// max readings: 0 means 64, and values above distributed.MaxCoalesce are
// clamped to it. clock is unused.
func NewBatcher(rt *Router, tenant string, max int, clock func() time.Time) *Batcher {
	switch {
	case max <= 0:
		max = defaultFrame
	case max > distributed.MaxCoalesce:
		max = distributed.MaxCoalesce
	}
	return &Batcher{rt: rt, tenant: tenant, max: max}
}

// Add appends one reading bound for the shard owning key, flushing first
// when the key changes and after when the frame is full. It returns the
// flushed frame's results (nil when nothing flushed). The results slice
// is reused across flushes — callers consume it before the next Add.
func (b *Batcher) Add(key string, r distributed.Reading, deadline time.Time) ([]distributed.BatchResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if key != b.key && len(b.pending) > 0 {
		if res, err := b.flushLocked(deadline); err != nil {
			b.key = key
			b.pending = append(b.pending[:0], r)
			return res, err
		}
	}
	b.key = key
	b.pending = append(b.pending, r)
	if len(b.pending) >= b.max {
		return b.flushLocked(deadline)
	}
	return nil, nil
}

// Flush sends everything pending as one frame.
func (b *Batcher) Flush(deadline time.Time) ([]distributed.BatchResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pending) == 0 {
		return nil, nil
	}
	return b.flushLocked(deadline)
}

// flushLocked sends the pending readings as one frame. A failed frame's
// readings are consumed — the caller owns stream-level retry, same as a
// direct DoBatch.
func (b *Batcher) flushLocked(deadline time.Time) ([]distributed.BatchResult, error) {
	res, err := b.rt.DoBatch(b.tenant, b.key, b.pending, b.results[:0], deadline)
	b.pending = b.pending[:0]
	b.results = res
	b.frames++
	return res, err
}

// Frames returns how many frames the batcher has dispatched.
func (b *Batcher) Frames() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.frames
}
