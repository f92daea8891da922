package simtest

import (
	"crypto/ed25519"
	"fmt"
	"sync"

	"lateral/internal/journal"
)

// ---- journal-audit: auditor replay equals ground truth --------------

// JournalChecker replays the harness journal from genesis after every
// step and demands the auditor's view equals the live pool's trust state
// — the fleet black box is complete, tamper-evident, and sufficient to
// reconstruct who is admitted, down, and quarantined. Once a
// journal-tamper fault has fired, the obligation inverts: every
// subsequent replay MUST fail, or the auditor missed an attack.
type JournalChecker struct {
	j       *journal.Journal
	pub     ed25519.PublicKey
	counter journal.Counter
	live    func() map[string]string

	mu       sync.Mutex
	tampered bool
}

// NewJournalChecker wires the auditor invariant: j is replayed against
// pub and counter, and its derived states diffed against live.
func NewJournalChecker(j *journal.Journal, pub ed25519.PublicKey, counter journal.Counter, live func() map[string]string) *JournalChecker {
	return &JournalChecker{j: j, pub: pub, counter: counter, live: live}
}

// MarkTampered records that a journal-tamper fault mutated the log; from
// now on a successful replay is the violation.
func (c *JournalChecker) MarkTampered() {
	c.mu.Lock()
	c.tampered = true
	c.mu.Unlock()
}

// Name implements Checker.
func (c *JournalChecker) Name() string { return "journal-audit" }

// Check implements Checker.
func (c *JournalChecker) Check() []Violation {
	c.mu.Lock()
	tampered := c.tampered
	c.mu.Unlock()
	trusted, err := c.counter.Value()
	if err != nil {
		return []Violation{{Invariant: c.Name(), Detail: "trusted counter: " + err.Error()}}
	}
	audit, err := journal.Replay(c.j.Export(), c.pub, trusted)
	if tampered {
		if err == nil {
			return []Violation{{Invariant: c.Name(), Detail: "tampered journal passed verification"}}
		}
		return nil
	}
	if err != nil {
		return []Violation{{Invariant: c.Name(), Detail: "replay failed: " + err.Error()}}
	}
	var out []Violation
	for _, d := range audit.Diff(c.live()) {
		out = append(out, Violation{
			Invariant: c.Name(),
			Detail:    fmt.Sprintf("replayed trust state diverges from live pool: %s", d),
		})
	}
	return out
}
