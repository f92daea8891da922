package experiments

import (
	"fmt"

	"lateral/internal/cryptoutil"
	"lateral/internal/journal"
)

// E24Audit validates the fleet black box: a journaled anonymizer fleet
// runs the E19 chaos scenario (mid-run crash with re-attested recovery,
// plus a tampered build refused at admission), and an auditor who holds
// only the exported journal, the checkpoint public key, and the trusted
// monotonic counter re-derives the exact live trust state. The adversary
// rows then prove the black box is tamper-evident: every single-byte flip
// anywhere in the export, any rollback to a stale export, and any
// regression of the trusted counter must fail verification — and the
// quarantine must have left a flight-recorder dump behind for the
// post-mortem. The paper's trustworthy-apps argument needs exactly this:
// trust decisions that are not merely made but provable after the fact.
func E24Audit() (Table, error) {
	t := Table{
		ID:     "E24",
		Title:  "fleet black box: auditor replay and tamper evidence",
		Anchor: "§III-B remote attestation as evidence; §V trustworthy operation over time",
		Header: []string{"scenario", "entries", "ckpts", "detected"},
	}

	signer := cryptoutil.NewSigner("e24-auditor")
	counter := &journal.MemCounter{}
	flight := journal.NewFlightRecorder(journal.FlightConfig{Spans: 32})
	jnl, err := journal.New(journal.Config{
		Name:            "anonymizer",
		Signer:          signer,
		Counter:         counter,
		CheckpointEvery: 16,
		Flight:          flight,
	})
	if err != nil {
		return t, err
	}

	d, err := BuildJournaledFleetDemo(5, 5, nil, jnl)
	if err != nil {
		return t, err
	}
	d.SetTracer(flight)
	const meters, rounds = 60, 2
	total := meters * rounds
	accepted, lost := e19Drive(d, meters, rounds, func(i int) {
		switch i {
		case total / 3:
			d.Part.Isolate("anon-2")
		case 2 * total / 3:
			d.Part.Heal("anon-2")
			d.Pool.CheckNow()
		}
	})
	if accepted != total || lost != 0 {
		return t, fmt.Errorf("e24: chaos run accepted %d/%d, lost %d", accepted, total, lost)
	}
	staleExport := jnl.Export() // pre-final-checkpoint, for the rollback row
	if err := jnl.Checkpoint(); err != nil {
		return t, err
	}
	export := jnl.Export()
	trusted, _ := counter.Value()
	entries, ckpts := len(jnl.Entries()), len(jnl.Checkpoints())

	// Row 1: honest replay reconstructs the live pool's trust state.
	audit, err := journal.Replay(export, signer.Public(), trusted)
	replayOK := err == nil && len(audit.Diff(d.Pool.States())) == 0
	t.AddRow("auditor replay == live fleet", entries, ckpts, "-")
	t.Check("auditor replay == live fleet", replayOK, "want a clean replay with no divergence from the live pool")

	// Row 2: every single byte flip in the export fails verification.
	flips, caught := 0, 0
	for i := range export {
		mut := append([]byte(nil), export...)
		mut[i] ^= 0x55
		flips++
		if _, err := journal.Replay(mut, signer.Public(), trusted); err != nil {
			caught++
		}
	}
	sweep := fmt.Sprintf("all %d single-byte flips", flips)
	t.AddRow(sweep, entries, ckpts, fmt.Sprintf("%d/%d", caught, flips))
	t.Check(sweep, caught == flips, "want every flip detected")
	// The sweep must have exercised a non-trivial export.
	t.Check("chaos run journaled entries", entries > 0 && flips > 0,
		fmt.Sprintf("%d entries, %d-byte export", entries, flips))

	// Row 3: serving a stale export against the current counter is a
	// detected rollback, as is regressing the trusted counter itself.
	_, errStale := journal.Replay(staleExport, signer.Public(), trusted)
	_, errReg := journal.Replay(export, signer.Public(), trusted-1)
	detected := 0
	for _, err := range []error{errStale, errReg} {
		if err != nil {
			detected++
		}
	}
	t.AddRow("rollback: stale export / counter-1", entries, ckpts, fmt.Sprintf("%d/2", detected))
	t.Check("rollback: stale export / counter-1", detected == 2, "want both refused")

	// Row 4: the admission-time quarantine tripped the flight recorder.
	dumps := flight.Dumps()
	dumpOK := false
	for _, dump := range dumps {
		if dump.Trigger == "quarantine" {
			dumpOK = true
		}
	}
	t.AddRow("flight dump on quarantine", entries, ckpts, len(dumps))
	t.Check("flight dump on quarantine", dumpOK, "want a dump triggered by the quarantine")

	t.Notes = append(t.Notes,
		fmt.Sprintf("chaos run: %d meters × %d readings, anon-2 crashed and re-admitted, tampered anon-5 quarantined at admission", meters, rounds),
		fmt.Sprintf("auditor inputs: exported journal (%d bytes), checkpoint public key, trusted counter=%d — nothing from the live pool", len(export), trusted),
		"detection = typed error from Replay: chain break, bad checkpoint, rollback, or trust-state divergence",
	)
	return t, nil
}
