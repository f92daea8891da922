package experiments

import (
	"fmt"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/journal"
)

// E26Rolling validates the dynamic-membership story (E26): an attested
// anonymizer fleet is replaced member by member — join a fresh machine,
// drain and retire an original, twice over — while meter readings stream
// through it, with a crash thrown in after the last transition. Every
// transition is a config epoch: the whole fleet re-attests and rekeys at
// the new epoch, so a session keyed to an older configuration cannot
// authenticate another record anywhere, and a client whose hello stamps a
// stale epoch is refused outright. The journal anchors each transition
// (epoch-begin) and its resulting membership (epoch-member), so an
// auditor holding only the export replays the fleet's entire membership
// history. Zero accepted readings may be lost across all of it.
func E26Rolling() (Table, error) {
	t := Table{
		ID:     "E26",
		Title:  "rolling replace under config epochs",
		Anchor: "§III-D elastic attested fleets; §V membership as auditable history",
		Header: []string{"scenario", "epoch", "detail"},
	}

	signer := cryptoutil.NewSigner("e26-auditor")
	counter := &journal.MemCounter{}
	jnl, err := journal.New(journal.Config{
		Name:            "anonymizer",
		Signer:          signer,
		Counter:         counter,
		CheckpointEvery: 16,
	})
	if err != nil {
		return t, err
	}
	d, err := BuildJournaledFleetDemo(3, 0, nil, jnl)
	if err != nil {
		return t, err
	}

	// A side client keyed at epoch 0, connected before any transition: it
	// works now, and must stop working the moment the fleet rekeys.
	pre, err := d.Dial("anon-3", "side-pre", d.Pool.Epoch)
	if err != nil {
		return t, err
	}
	if err := pre.Connect(); err != nil {
		return t, fmt.Errorf("e26: pre-epoch side client refused while fleet at epoch 0: %w", err)
	}
	if _, err := pre.Handle(core.Envelope{Msg: core.Message{
		Op: "reading", Data: []byte("meter-pre=\x05"),
	}}); err != nil {
		return t, fmt.Errorf("e26: pre-epoch side client call failed at epoch 0: %w", err)
	}

	// The rolling replace: anon-1..3 becomes anon-3..5 across four epoch
	// transitions threaded through the reading stream, then anon-3 crashes
	// and recovers — chaos on the brand-new configuration.
	const meters, rounds = 60, 3
	total := meters * rounds
	var transitionErrs []error
	accepted, lost := e19Drive(d, meters, rounds, func(i int) {
		var err error
		switch i {
		case total / 6:
			err = d.Join("anon-4")
		case total / 3:
			err = d.Pool.Leave("anon-1")
		case total / 2:
			err = d.Join("anon-5")
		case 2 * total / 3:
			err = d.Pool.Leave("anon-2")
		case 5 * total / 6:
			d.Part.Isolate("anon-3")
		case 11 * total / 12:
			d.Part.Heal("anon-3")
			d.Pool.CheckNow()
		}
		if err != nil {
			transitionErrs = append(transitionErrs, fmt.Errorf("at reading %d: %w", i, err))
		}
	})
	epoch := d.Pool.Epoch()
	rollOK := accepted == total && lost == 0 && len(transitionErrs) == 0 &&
		epoch == 4 && d.Pool.Healthy() == 3
	t.AddRow("rolling replace, zero loss", epoch,
		fmt.Sprintf("%d/%d accepted, %d lost, %d healthy", accepted, total, lost, d.Pool.Healthy()))
	t.Check("rolling replace, zero loss", rollOK,
		fmt.Sprintf("want every reading accepted, none lost, epoch 4, 3 healthy (%d transition errors)", len(transitionErrs)))
	if len(transitionErrs) > 0 {
		return t, fmt.Errorf("e26: transitions failed: %v", transitionErrs)
	}

	// The pre-epoch session was evicted at the first rekey: its next
	// record authenticates nowhere, the call must fail.
	_, staleErr := pre.Handle(core.Envelope{Msg: core.Message{
		Op: "reading", Data: []byte("meter-pre=\x05"),
	}})
	t.AddRow("stale session refused", epoch, "epoch-0 keys against epoch-4 fleet")
	t.Check("stale session refused", staleErr != nil, "want the epoch-0 session's call to fail")

	// A replayed pre-epoch hello is refused at the handshake, while a
	// client stamping the live epoch (and passing attestation) connects.
	replay, err := d.Dial("anon-3", "side-replay", func() uint64 { return 0 })
	if err != nil {
		return t, err
	}
	replayErr := replay.Connect()
	fresh, err := d.Dial("anon-3", "side-fresh", d.Pool.Epoch)
	if err != nil {
		return t, err
	}
	freshErr := fresh.Connect()
	t.AddRow("stale hello refused, live hello accepted", epoch, "hello epochs 0 and 4")
	t.Check("stale hello refused, live hello accepted", replayErr != nil && freshErr == nil,
		fmt.Sprintf("stale refused=%s, live accepted=%s", boolCell(replayErr != nil), boolCell(freshErr == nil)))

	// The auditor replays the full membership history from the exported
	// journal alone: four transitions, in order, ending at the live state.
	if err := jnl.Checkpoint(); err != nil {
		return t, err
	}
	trusted, err := counter.Value()
	if err != nil {
		return t, err
	}
	audit, err := journal.Replay(jnl.Export(), signer.Public(), trusted)
	auditOK := err == nil && len(audit.Epochs) == 4
	if auditOK {
		wantReasons := []string{"join anon-4", "leave anon-1", "join anon-5", "leave anon-2"}
		for i, rec := range audit.Epochs {
			if rec.Epoch != uint64(i+1) || rec.Reason != wantReasons[i] {
				auditOK = false
			}
		}
		last := audit.Epochs[3].Members
		_, hasDeparted := last["anonymizer/anon-1"]
		auditOK = auditOK && !hasDeparted && len(audit.Diff(d.Pool.States())) == 0
	}
	t.AddRow("auditor replays membership history", epoch, fmt.Sprintf("%d epoch records", len(audit.Epochs)))
	t.Check("auditor replays membership history", auditOK,
		"want 4 epoch records in order, ending at the live membership")

	t.Notes = append(t.Notes,
		fmt.Sprintf("%d meters × %d readings; transitions at 1/6, 1/3, 1/2, 2/3 of the stream; anon-3 crashed at 5/6 and recovered", meters, rounds),
		"every transition re-attests and rekeys the whole fleet; drained members finish in-flight calls, they are never errored",
		"loss counted per meter across original and replacement members, so failover duplicates cannot mask a lost reading",
	)
	return t, nil
}
