package shard

// Tests for the ingestion batcher: fixed frames of max readings, a shed
// frame's typed error with no effect on the next frame's size, and frames
// that never mix routing keys.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/distributed"
)

// shedBackend answers batches OK until armed, then refuses one frame with
// a typed overload error — the fabric's shed verdict. It records the size
// and routing key of every frame it sees.
type shedBackend struct {
	fakeBackend
	shedNext bool
	frames   []int
	keys     []string
}

func (s *shedBackend) DoBatch(key string, readings []distributed.Reading, results []distributed.BatchResult, deadline time.Time) ([]distributed.BatchResult, error) {
	s.mu.Lock()
	s.frames = append(s.frames, len(readings))
	s.keys = append(s.keys, key)
	shed := s.shedNext
	s.shedNext = false
	s.mu.Unlock()
	if shed {
		return results, fmt.Errorf("replica refusing: %w", core.ErrOverloaded)
	}
	return s.fakeBackend.DoBatch(key, readings, results, deadline)
}

func (s *shedBackend) sent() (frames []int, keys []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.frames...), append([]string(nil), s.keys...)
}

func newBatcherFixture(t *testing.T, max int) (*Batcher, *shedBackend) {
	t.Helper()
	rt := NewRouter(Config{})
	b := &shedBackend{}
	if err := rt.Join("cell-0", b); err != nil {
		t.Fatal(err)
	}
	return NewBatcher(rt, "t00", max, nil), b
}

var _ Backend = (*shedBackend)(nil)

var testReading = distributed.Reading{Op: "reading", Data: []byte("m=1")}

// TestBatcherSendsFixedFrames pins the frame size: with max 4, ten Adds
// send two full frames and Flush sends the remaining two.
func TestBatcherSendsFixedFrames(t *testing.T) {
	ba, be := newBatcherFixture(t, 4)
	flushed := 0
	for i := 0; i < 10; i++ {
		res, err := ba.Add("t00/b0", testReading, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		flushed += len(res)
	}
	if flushed != 8 {
		t.Errorf("Adds returned %d results, want 8", flushed)
	}
	res, err := ba.Flush(time.Time{})
	if err != nil || len(res) != 2 {
		t.Fatalf("Flush = %d results, %v; want 2", len(res), err)
	}
	if res, err := ba.Flush(time.Time{}); res != nil || err != nil {
		t.Errorf("empty Flush = %v, %v; want nothing sent", res, err)
	}
	if frames, _ := be.sent(); !reflect.DeepEqual(frames, []int{4, 4, 2}) {
		t.Errorf("frames = %v, want [4 4 2]", frames)
	}
	if ba.Frames() != 3 {
		t.Errorf("frames dispatched = %d, want 3", ba.Frames())
	}
}

// TestBatcherShedFrameKeepsSize sheds one frame: its caller gets the typed
// ErrOverloaded, as from a direct DoBatch, and the next frame is full size.
func TestBatcherShedFrameKeepsSize(t *testing.T) {
	ba, be := newBatcherFixture(t, 4)
	be.mu.Lock()
	be.shedNext = true
	be.mu.Unlock()
	var err error
	for i := 0; i < 4; i++ {
		_, err = ba.Add("t00/b0", testReading, time.Time{})
	}
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("shed frame err = %v, want ErrOverloaded", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := ba.Add("t00/b0", testReading, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if frames, _ := be.sent(); !reflect.DeepEqual(frames, []int{4, 4}) {
		t.Errorf("frames = %v, want [4 4]", frames)
	}
}

// TestBatcherFlushesOnKeyChange pins that frames never mix routing keys:
// a key change flushes the partial frame so every sealed frame lands on
// exactly one shard.
func TestBatcherFlushesOnKeyChange(t *testing.T) {
	ba, be := newBatcherFixture(t, 8)
	for _, key := range []string{"t00/b0", "t00/b0", "t00/b1"} {
		if _, err := ba.Add(key, testReading, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ba.Flush(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("final flush returned %d results, want 1", len(res))
	}
	frames, keys := be.sent()
	if !reflect.DeepEqual(frames, []int{2, 1}) || !reflect.DeepEqual(keys, []string{"t00/b0", "t00/b1"}) {
		t.Fatalf("frames = %v for keys %v, want [2 1] for [t00/b0 t00/b1]", frames, keys)
	}
}
