package policy

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"lateral/internal/core"
	"lateral/internal/journal"
	"lateral/internal/telemetry"
)

// The shipped collectors satisfy the structural interfaces.
var (
	_ Monitor            = (*telemetry.Metrics)(nil)
	_ core.EventRecorder = (*journal.Journal)(nil)
)

const exampleText = `# mosaic rule: ids taint the chain, tainted chains may not egress
taint to-store ids meter-identities
taint @asset ids meter-identities
deny no-exfil to-net * when meter-identities
approve ops-export to-export * when meter-identities
allow rest * *
`

func mustDecode(t *testing.T, text string) *RuleSet {
	t.Helper()
	rs, err := Decode([]byte(text))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return rs
}

func TestDecodeEncodeCanonical(t *testing.T) {
	rs := mustDecode(t, exampleText)
	if len(rs.Taints) != 2 || len(rs.Rules) != 3 {
		t.Fatalf("got %d taints, %d rules", len(rs.Taints), len(rs.Rules))
	}
	canon := Encode(rs)
	again, err := Reencode(canon)
	if err != nil {
		t.Fatalf("Reencode(canon): %v", err)
	}
	if !bytes.Equal(canon, again) {
		t.Errorf("canonical form unstable:\n%s\nvs\n%s", canon, again)
	}
	// Messy but acceptable input normalizes: label order, whitespace,
	// comments, duplicates.
	messy := "  taint  ch  op   b,a,b   # labels out of order\n\ndeny  r1 ch op when z,a\n"
	rs2 := mustDecode(t, messy)
	want := "taint ch op a,b\ndeny r1 ch op when a,z\n"
	if got := string(Encode(rs2)); got != want {
		t.Errorf("Encode = %q, want %q", got, want)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name, text string
		wantErr    error
	}{
		{"unknown directive", "grant x y z\n", ErrSyntax},
		{"taint arity", "taint ch op\n", ErrSyntax},
		{"rule arity", "deny r1 ch\n", ErrSyntax},
		{"bad when keyword", "deny r1 ch op unless a\n", ErrSyntax},
		{"empty label", "taint ch op a,,b\n", ErrSyntax},
		{"bad label charset", "taint ch op UPPER\n", ErrRule},
		{"bad channel charset", "taint c!h op a\n", ErrRule},
		{"dup rule name", "deny r1 ch op\nallow r1 ch2 op\n", ErrRule},
		{"taint no labels", "taint ch op ,\n", ErrSyntax},
		{"overlong token", "deny " + strings.Repeat("x", MaxTokenLen+1) + " ch op\n", ErrRule},
	}
	for _, tc := range cases {
		if _, err := Decode([]byte(tc.text)); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestRuleSetMatching(t *testing.T) {
	rs := mustDecode(t, exampleText)
	if got := rs.Acquired("to-store", "ids"); strings.Join(got, ",") != "meter-identities" {
		t.Errorf("Acquired(to-store, ids) = %v", got)
	}
	if got := rs.Acquired("to-store", "other"); got != nil {
		t.Errorf("Acquired(to-store, other) = %v, want nil", got)
	}
	// Untainted chain falls through deny (when unmet) to the allow.
	r := rs.Match(core.PolicyRequest{Channel: "to-net", Op: "put"})
	if r == nil || r.Name != "rest" {
		t.Fatalf("untainted to-net matched %+v, want rest", r)
	}
	// Tainted chain hits the deny first.
	r = rs.Match(core.PolicyRequest{Channel: "to-net", Op: "put", Taint: []string{"meter-identities"}})
	if r == nil || r.Name != "no-exfil" {
		t.Fatalf("tainted to-net matched %+v, want no-exfil", r)
	}
}

// countingMonitor tallies decisions and grant events.
type countingMonitor struct {
	mu        sync.Mutex
	decisions map[string]int // effect/rule
	grants    map[string]int // event/rule
}

func newCountingMonitor() *countingMonitor {
	return &countingMonitor{decisions: map[string]int{}, grants: map[string]int{}}
}
func (m *countingMonitor) PolicyDecision(engine, effect, rule string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.decisions[effect+"/"+rule]++
}
func (m *countingMonitor) PolicyGrant(engine, rule, event string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.grants[event+"/"+rule]++
}
func (m *countingMonitor) get(kind, key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if kind == "decision" {
		return m.decisions[key]
	}
	return m.grants[key]
}

// journalSink records journal calls.
type journalSink struct {
	mu     sync.Mutex
	events []string
}

func (j *journalSink) RecordEvent(kind, actor, detail string, trace, span uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, kind+":"+actor)
}
func (j *journalSink) count() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

func TestEngineEnforces(t *testing.T) {
	mon := newCountingMonitor()
	eng, err := New(Config{Rules: mustDecode(t, exampleText), Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	// Taint acquisition plus default allow for unmatched requests.
	acq, err := eng.CheckInvoke(core.PolicyRequest{Channel: core.PolicyAsset, Op: "ids"})
	if err != nil || strings.Join(acq, ",") != "meter-identities" {
		t.Fatalf("asset check = %v, %v", acq, err)
	}
	// Tainted egress denied with core.ErrPolicy.
	_, err = eng.CheckInvoke(core.PolicyRequest{
		From: "deputy", Channel: "to-net", Op: "put", Taint: []string{"meter-identities"},
	})
	if !errors.Is(err, core.ErrPolicy) {
		t.Fatalf("tainted egress err = %v, want ErrPolicy", err)
	}
	// Untainted egress allowed by the trailing allow rule.
	if _, err = eng.CheckInvoke(core.PolicyRequest{Channel: "to-net", Op: "put"}); err != nil {
		t.Fatalf("untainted egress: %v", err)
	}
	if mon.get("decision", "deny/no-exfil") != 1 || mon.get("decision", "allow/rest") != 2 {
		t.Errorf("decisions = %v", mon.decisions)
	}
}

func TestEngineApprovalTTL(t *testing.T) {
	now := time.Unix(1_900_000_000, 0)
	clock := func() time.Time { return now }
	approvals := 0
	mon := newCountingMonitor()
	rec := &journalSink{}
	eng, err := New(Config{
		Rules: mustDecode(t, exampleText),
		Approver: ApproverFunc(func(rule string, req core.PolicyRequest) bool {
			approvals++
			return true
		}),
		GrantTTL: time.Minute,
		Clock:    clock,
		Monitor:  mon,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := core.PolicyRequest{
		From: "ops", Channel: "to-export", Op: "dump", Taint: []string{"meter-identities"},
	}
	// First check asks the approver and mints a grant.
	if _, err := eng.CheckInvoke(req); err != nil {
		t.Fatalf("first approval: %v", err)
	}
	if approvals != 1 || rec.count() != 1 {
		t.Fatalf("approvals = %d, journaled = %d", approvals, rec.count())
	}
	// Within the TTL the grant is reused — no new approval.
	now = now.Add(30 * time.Second)
	if _, err := eng.CheckInvoke(req); err != nil {
		t.Fatalf("reuse: %v", err)
	}
	if approvals != 1 {
		t.Fatalf("approver re-asked inside TTL (%d)", approvals)
	}
	// Past the TTL the grant decays; the check re-approves.
	now = now.Add(time.Minute)
	if _, err := eng.CheckInvoke(req); err != nil {
		t.Fatalf("re-approval: %v", err)
	}
	if approvals != 2 || mon.get("grant", "expire/ops-export") != 1 || mon.get("grant", "mint/ops-export") != 2 {
		t.Errorf("approvals = %d, grants = %v", approvals, mon.grants)
	}
	// A different caller needs its own grant.
	other := req
	other.From = "intern"
	if _, err := eng.CheckInvoke(other); err != nil {
		t.Fatal(err)
	}
	if approvals != 3 {
		t.Errorf("grant shared across callers (approvals = %d)", approvals)
	}
}

func TestEngineApprovalFailsClosed(t *testing.T) {
	// No approver: approval-required requests deny.
	eng, err := New(Config{Rules: mustDecode(t, exampleText)})
	if err != nil {
		t.Fatal(err)
	}
	req := core.PolicyRequest{
		From: "ops", Channel: "to-export", Op: "dump", Taint: []string{"meter-identities"},
	}
	if _, err := eng.CheckInvoke(req); !errors.Is(err, core.ErrPolicy) {
		t.Fatalf("nil approver err = %v, want ErrPolicy", err)
	}
	// Approver says no: same.
	eng, err = New(Config{
		Rules:    mustDecode(t, exampleText),
		Approver: ApproverFunc(func(string, core.PolicyRequest) bool { return false }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CheckInvoke(req); !errors.Is(err, core.ErrPolicy) {
		t.Fatalf("refusing approver err = %v, want ErrPolicy", err)
	}
}

func TestEngineRevokeGrants(t *testing.T) {
	approvals := 0
	eng, err := New(Config{
		Rules: mustDecode(t, exampleText),
		Approver: ApproverFunc(func(string, core.PolicyRequest) bool {
			approvals++
			return true
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	req := core.PolicyRequest{
		From: "ops", Channel: "to-export", Op: "dump", Taint: []string{"meter-identities"},
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.CheckInvoke(req); err != nil {
			t.Fatal(err)
		}
	}
	if approvals != 1 {
		t.Fatalf("approvals before revoke = %d", approvals)
	}
	eng.RevokeGrants()
	if _, err := eng.CheckInvoke(req); err != nil {
		t.Fatal(err)
	}
	if approvals != 2 {
		t.Errorf("revoked grant still honored (approvals = %d)", approvals)
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrRule) {
		t.Errorf("nil rules err = %v", err)
	}
	bad := &RuleSet{Rules: []Rule{{Name: "BAD", Channel: "*", Op: "*"}}}
	if _, err := New(Config{Rules: bad}); !errors.Is(err, ErrRule) {
		t.Errorf("bad rule err = %v", err)
	}
}
