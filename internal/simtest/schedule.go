package simtest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// FaultKind enumerates the faults a schedule can inject.
type FaultKind uint8

const (
	// FaultCrash isolates a replica's machine endpoint: nothing in,
	// nothing out (netsim.Partitioner.Isolate).
	FaultCrash FaultKind = iota

	// FaultHeal removes every cut involving the target (Partitioner.Heal);
	// an empty target heals all cuts.
	FaultHeal

	// FaultPartition cuts the directed link Target→Peer only; the reverse
	// direction keeps working (the in-flight-reply failure mode).
	FaultPartition

	// FaultDelay enables a seeded time-based Delayer: each datagram is
	// detained with probability Pct% and re-enters the wire after Dur of
	// virtual time. N=0 disables an active delayer.
	FaultDelay

	// FaultTamper flips a bit in every payload the target endpoint sends,
	// modeling an on-path integrity attack against one replica. An empty
	// target disables tampering.
	FaultTamper

	// FaultSkew jumps the virtual clock forward by Dur — the sudden-NTP-step
	// event that expires every in-flight budget at once.
	FaultSkew

	// FaultDup duplicates the next N datagrams the target endpoint sends
	// (at-least-once delivery misbehavior the secure channel must absorb).
	FaultDup

	// FaultJournalTamper flips one byte in the N-th recorded journal entry
	// (0-based) — an attacker mutating the black box at rest. The auditor
	// invariant must detect it on every subsequent replay; a no-op when
	// the journal has no such entry yet.
	FaultJournalTamper

	// FaultJoin admits a freshly built replica under the target name as a
	// full config-epoch transition (Pool.Join: propose, admit, rekey every
	// member, activate). Names are single-use within one run — joining a
	// name that already has a machine (admitted, left, or quarantined) is
	// a scripted no-op, so schedules stay safe to fuzz.
	FaultJoin

	// FaultLeave removes the target replica as a full config-epoch
	// transition (Pool.Leave: drain, evict, rekey the survivors). Leaving
	// an unknown or quarantined name is refused by the pool and the fault
	// is a no-op — the quarantine record is the fleet's memory.
	FaultLeave

	// FaultShardSplit joins a new shard cell to the harness's shard
	// router, bumping the shard-map epoch and pulling ~K/N of the keyspace
	// onto the joiner. Joining a name already mapped is refused by the
	// router and the fault is a no-op, so schedules stay safe to fuzz.
	FaultShardSplit

	// FaultShardMerge removes a shard cell from the router, folding its
	// keyspace back into the ring successors. Merging an unmapped cell or
	// the last remaining cell is refused and the fault is a no-op.
	FaultShardMerge

	// FaultCoalesce arms a one-shot coalesce fault on the target replica's
	// exporter: the next record it opens, of one sub-frame or more, has the
	// sub-frame selected by N dropped from the reply (Peer carries mode
	// "drop") or tampered before dispatch (mode "tamper"). Sibling
	// sub-frames must be unaffected — the coalesce invariant and the
	// affected caller's typed error are the assertions. Unknown replica
	// names attack nothing.
	FaultCoalesce
)

// String returns the kind's schedule-text verb.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultHeal:
		return "heal"
	case FaultPartition:
		return "partition"
	case FaultDelay:
		return "delay"
	case FaultTamper:
		return "tamper"
	case FaultSkew:
		return "skew"
	case FaultDup:
		return "dup"
	case FaultJournalTamper:
		return "journal-tamper"
	case FaultJoin:
		return "join"
	case FaultLeave:
		return "leave"
	case FaultShardSplit:
		return "shard-split"
	case FaultShardMerge:
		return "shard-merge"
	case FaultCoalesce:
		return "coalesce"
	default:
		return "unknown"
	}
}

// Fault is one injectable event. Which fields matter depends on Kind; the
// codec below is the authoritative field-per-kind map.
type Fault struct {
	Kind   FaultKind
	Target string        // endpoint (crash/heal/tamper/dup) or link tail (partition)
	Peer   string        // link head (partition), or coalesce mode (drop/tamper)
	Dur    time.Duration // skew jump, or delay detention time
	N      int           // dup count, delay on/off (0 disables), or coalesce sub-frame index
	Seed   uint64        // delay PRNG seed
	Pct    int           // delay detention probability, percent
}

// Schedule places one fault at a virtual-time offset from simulation
// start. The explorer applies every schedule entry whose At has been
// reached before executing the next operation.
type Schedule struct {
	At    time.Duration
	Fault Fault
}

// Codec limits: schedules are adversarial inputs (fuzzed, loaded from
// files), so the decoder bounds everything it allocates or loops on.
const (
	maxScheduleLines = 4096
	maxScheduleAt    = 24 * time.Hour
	maxScheduleN     = 1 << 20
	maxScheduleName  = 128
)

// EncodeSchedule renders a schedule in its line-oriented text form:
//
//	@150ms crash svc-2
//	@200ms heal svc-2
//	@10ms partition lb-svc-1 svc-1
//	@5ms delay 7 25 2ms 1
//	@1ms tamper svc-3
//	@2ms skew 250ms
//	@0s dup svc-1 2
//	@40ms join svc-4
//	@60ms leave svc-1
//
// Decode(Encode(s)) is the identity for any schedule Validate accepts.
func EncodeSchedule(sched []Schedule) string {
	var b strings.Builder
	for _, s := range sched {
		f := s.Fault
		fmt.Fprintf(&b, "@%s %s", s.At, f.Kind)
		switch f.Kind {
		case FaultCrash, FaultJoin, FaultLeave, FaultShardSplit, FaultShardMerge:
			fmt.Fprintf(&b, " %s", f.Target)
		case FaultHeal, FaultTamper:
			if f.Target != "" {
				fmt.Fprintf(&b, " %s", f.Target)
			}
		case FaultPartition:
			fmt.Fprintf(&b, " %s %s", f.Target, f.Peer)
		case FaultDelay:
			fmt.Fprintf(&b, " %d %d %s %d", f.Seed, f.Pct, f.Dur, f.N)
		case FaultSkew:
			fmt.Fprintf(&b, " %s", f.Dur)
		case FaultDup:
			fmt.Fprintf(&b, " %s %d", f.Target, f.N)
		case FaultJournalTamper:
			fmt.Fprintf(&b, " %d", f.N)
		case FaultCoalesce:
			fmt.Fprintf(&b, " %s %s %d", f.Target, f.Peer, f.N)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DecodeSchedule parses the text form. Blank lines and #-comments are
// skipped. Every numeric and duration field is bounds-checked, so the
// decoder is safe on adversarial input (FuzzScheduleDecode's property).
func DecodeSchedule(text string) ([]Schedule, error) {
	var out []Schedule
	lines := strings.Split(text, "\n")
	if len(lines) > maxScheduleLines {
		return nil, fmt.Errorf("simtest: schedule too long (%d lines > %d)", len(lines), maxScheduleLines)
	}
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "@") {
			return nil, fmt.Errorf("simtest: line %d: want '@<offset> <fault> ...'", ln+1)
		}
		at, err := parseDur(strings.TrimPrefix(fields[0], "@"), maxScheduleAt)
		if err != nil {
			return nil, fmt.Errorf("simtest: line %d: offset: %v", ln+1, err)
		}
		f := Fault{}
		args := fields[2:]
		switch fields[1] {
		case "crash", "join", "leave", "shard-split", "shard-merge":
			switch fields[1] {
			case "crash":
				f.Kind = FaultCrash
			case "join":
				f.Kind = FaultJoin
			case "leave":
				f.Kind = FaultLeave
			case "shard-split":
				f.Kind = FaultShardSplit
			case "shard-merge":
				f.Kind = FaultShardMerge
			}
			if len(args) != 1 {
				return nil, fmt.Errorf("simtest: line %d: %s wants 1 arg", ln+1, fields[1])
			}
			if f.Target, err = parseName(args[0]); err != nil {
				return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
			}
		case "heal", "tamper":
			// Both take an optional target: bare heal lifts every cut,
			// bare tamper turns tampering off.
			if fields[1] == "heal" {
				f.Kind = FaultHeal
			} else {
				f.Kind = FaultTamper
			}
			switch len(args) {
			case 0:
			case 1:
				if f.Target, err = parseName(args[0]); err != nil {
					return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
				}
			default:
				return nil, fmt.Errorf("simtest: line %d: %s wants 0 or 1 args", ln+1, fields[1])
			}
		case "partition":
			f.Kind = FaultPartition
			if len(args) != 2 {
				return nil, fmt.Errorf("simtest: line %d: partition wants 2 args", ln+1)
			}
			if f.Target, err = parseName(args[0]); err != nil {
				return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
			}
			if f.Peer, err = parseName(args[1]); err != nil {
				return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
			}
		case "delay":
			f.Kind = FaultDelay
			if len(args) != 4 {
				return nil, fmt.Errorf("simtest: line %d: delay wants 'seed pct dur n'", ln+1)
			}
			seed, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("simtest: line %d: seed: %v", ln+1, err)
			}
			f.Seed = seed
			if f.Pct, err = parseInt(args[1], 100); err != nil {
				return nil, fmt.Errorf("simtest: line %d: pct: %v", ln+1, err)
			}
			if f.Dur, err = parseDur(args[2], maxScheduleAt); err != nil {
				return nil, fmt.Errorf("simtest: line %d: dur: %v", ln+1, err)
			}
			if f.N, err = parseInt(args[3], maxScheduleN); err != nil {
				return nil, fmt.Errorf("simtest: line %d: n: %v", ln+1, err)
			}
		case "skew":
			f.Kind = FaultSkew
			if len(args) != 1 {
				return nil, fmt.Errorf("simtest: line %d: skew wants 1 arg", ln+1)
			}
			if f.Dur, err = parseDur(args[0], maxScheduleAt); err != nil {
				return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
			}
		case "dup":
			f.Kind = FaultDup
			if len(args) != 2 {
				return nil, fmt.Errorf("simtest: line %d: dup wants 2 args", ln+1)
			}
			if f.Target, err = parseName(args[0]); err != nil {
				return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
			}
			if f.N, err = parseInt(args[1], maxScheduleN); err != nil {
				return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
			}
		case "journal-tamper":
			f.Kind = FaultJournalTamper
			if len(args) != 1 {
				return nil, fmt.Errorf("simtest: line %d: journal-tamper wants 1 arg", ln+1)
			}
			if f.N, err = parseInt(args[0], maxScheduleN); err != nil {
				return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
			}
		case "coalesce":
			f.Kind = FaultCoalesce
			if len(args) != 3 {
				return nil, fmt.Errorf("simtest: line %d: coalesce wants 'target mode n'", ln+1)
			}
			if f.Target, err = parseName(args[0]); err != nil {
				return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
			}
			if args[1] != "drop" && args[1] != "tamper" {
				return nil, fmt.Errorf("simtest: line %d: coalesce mode %q (want drop or tamper)", ln+1, args[1])
			}
			f.Peer = args[1]
			if f.N, err = parseInt(args[2], maxScheduleN); err != nil {
				return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
			}
		default:
			return nil, fmt.Errorf("simtest: line %d: unknown fault %q", ln+1, fields[1])
		}
		out = append(out, Schedule{At: at, Fault: f})
	}
	return out, nil
}

// Validate checks a schedule built in code against the same bounds the
// decoder enforces, so Encode/Decode roundtrips exactly.
func Validate(sched []Schedule) error {
	if len(sched) > maxScheduleLines {
		return fmt.Errorf("simtest: schedule too long")
	}
	enc := EncodeSchedule(sched)
	dec, err := DecodeSchedule(enc)
	if err != nil {
		return err
	}
	if EncodeSchedule(dec) != enc {
		return fmt.Errorf("simtest: schedule does not roundtrip")
	}
	return nil
}

// SortSchedule orders entries by At (stable, so same-instant faults keep
// their script order). The explorer requires sorted schedules.
func SortSchedule(sched []Schedule) {
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
}

func parseDur(s string, max time.Duration) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 || d > max {
		return 0, fmt.Errorf("duration %s out of range [0, %s]", d, max)
	}
	return d, nil
}

func parseInt(s string, max int) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n < 0 || n > max {
		return 0, fmt.Errorf("count %d out of range [0, %d]", n, max)
	}
	return n, nil
}

func parseName(s string) (string, error) {
	if len(s) > maxScheduleName {
		return "", fmt.Errorf("name too long (%d > %d)", len(s), maxScheduleName)
	}
	for _, r := range s {
		if r == '#' || r == '@' || r <= ' ' || r > '~' {
			return "", fmt.Errorf("name %q has invalid characters", s)
		}
	}
	return s, nil
}
