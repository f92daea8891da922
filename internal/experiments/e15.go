package experiments

import (
	"fmt"

	"lateral/internal/attest"
	"lateral/internal/cryptoutil"
	"lateral/internal/ftpm"
	"lateral/internal/tpm"
	"lateral/internal/trustzone"
)

// E15Interchangeability reproduces §II-C: "isolation technologies are
// partially interchangeable: Microsoft Surface tablets implement TPM
// functionality not using dedicated TPM security chips, but as software
// running within TrustZone."
//
// One authenticated-boot + verification flow runs, unmodified, against a
// discrete TPM chip and against the fTPM hosted in the TrustZone secure
// world; a third row shows that a rogue fTPM on an SoC whose vendor the
// verifier does not trust is rejected — interchangeability does not mean
// gullibility.
func E15Interchangeability() (Table, error) {
	t := Table{
		ID:     "E15",
		Title:  "the same boot-attestation flow over discrete TPM and fTPM",
		Anchor: "§II-C 'What Is Hardware?' interchangeability",
		Header: []string{"implementation", "anchor root", "boot-log verifies"},
	}
	vendor := cryptoutil.NewSigner("platform-vendor")
	chain := []attest.Stage{
		attest.SignStage(vendor, "bootloader", []byte("bl-1.0")),
		attest.SignStage(vendor, "kernel", []byte("krn-5.4")),
	}

	// The flow is written once against the common Service interface.
	flow := func(svc ftpm.Service, trustRoot []byte) (bool, error) {
		svc.Reset()
		var log attest.BootLog
		for _, st := range chain {
			m := st.Measurement()
			if err := svc.Extend(0, m); err != nil {
				return false, err
			}
			log.Entries = append(log.Entries, attest.BootLogEntry{Name: st.Name, Measurement: m})
		}
		nonce := []byte("e15")
		q, err := svc.Quote([]int{0}, nonce)
		if err != nil {
			return false, err
		}
		return attest.VerifyBootLog(q, nonce, trustRoot, log) == nil, nil
	}

	// Row 1: discrete chip, trust rooted in the TPM manufacturer.
	mfr := cryptoutil.NewSigner("tpm-mfr")
	discrete := tpm.New("e15-chip", mfr)
	ok, err := flow(discrete, mfr.Public())
	if err != nil {
		return t, err
	}
	t.AddRow("discrete TPM chip", "TPM manufacturer key", boolCell(ok))
	t.Check("discrete TPM chip verifies", ok, "boot-log verifies="+boolCell(ok))

	// Row 2: fTPM in the TrustZone secure world, trust rooted in the SoC
	// vendor who certified the fused key.
	socVendor := cryptoutil.NewSigner("soc-vendor")
	tz, err := trustzone.New(trustzone.Config{DeviceSeed: "e15-soc", Vendor: socVendor})
	if err != nil {
		return t, err
	}
	fw, err := ftpm.New(tz, socVendor)
	if err != nil {
		return t, err
	}
	ok, err = flow(fw, socVendor.Public())
	if err != nil {
		return t, err
	}
	t.AddRow("fTPM in TrustZone", "SoC vendor key (fused)", boolCell(ok))
	t.Check("fTPM in TrustZone verifies", ok, "boot-log verifies="+boolCell(ok))

	// Row 3: an fTPM certified by a vendor the verifier does NOT trust.
	rogueVendor := cryptoutil.NewSigner("rogue-vendor")
	tz2, err := trustzone.New(trustzone.Config{DeviceSeed: "e15-rogue", Vendor: rogueVendor})
	if err != nil {
		return t, err
	}
	rogue, err := ftpm.New(tz2, rogueVendor)
	if err != nil {
		return t, err
	}
	ok, err = flow(rogue, socVendor.Public()) // verifier still trusts socVendor only
	if err != nil {
		return t, err
	}
	t.AddRow("fTPM, untrusted vendor", "rogue vendor key", boolCell(ok))
	t.Check("fTPM, untrusted vendor is rejected", !ok, "boot-log verifies="+boolCell(ok))

	t.Notes = append(t.Notes,
		fmt.Sprintf("one flow, two anchors: quote wire format and verifier code are shared (%d boot stages)", len(chain)))
	return t, nil
}
