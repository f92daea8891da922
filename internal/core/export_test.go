package core

import "time"

// DeadlineQueue reports how many budgeted calls the system's deadline queue
// holds, and the instant its timer is armed for: zero once its serving
// goroutine has exited.
func (s *System) DeadlineQueue() (calls int, armed time.Time) {
	q := s.deadlines
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.calls), q.at
}
