package core

import "time"

// Clock is the time source the invocation path consumes: budget checks read
// Now, and the deadline queue arms its one timer through At. The default is
// the wall clock; simtest installs a seeded virtual clock so deadline
// behavior becomes deterministic and replayable. The interface is
// deliberately tiny — exactly the two operations the system performs — so
// any scheduler-free fake can satisfy it.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time

	// At returns a channel that receives once the clock reaches t (at
	// once when t is not after Now), plus a stop function releasing the
	// timer early (time.Timer.Stop semantics: it reports whether the
	// timer was still pending). The timer is armed for an absolute
	// instant, never a duration, so a clock that moves between a read of
	// Now and the arming cannot carry the timer past t.
	At(t time.Time) (<-chan time.Time, func() bool)
}

// realClock is the production Clock: time.Now and time.NewTimer.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) At(t time.Time) (<-chan time.Time, func() bool) {
	tm := time.NewTimer(time.Until(t))
	return tm.C, tm.Stop
}

// SetClock installs an alternative time source (nil restores the wall
// clock) for budget checks, span timing and the deadline queue. The clock
// is read lock-free on the invocation hot path, so it must be installed
// before the system serves traffic — in practice right after NewSystem,
// the way simtest harnesses do.
func (s *System) SetClock(c Clock) {
	if c == nil {
		c = realClock{}
	}
	s.clock = c
	s.deadlines.mu.Lock()
	s.deadlines.clock = c
	s.deadlines.mu.Unlock()
}

// now is the system's single point of time observation.
func (s *System) now() time.Time { return s.clock.Now() }
