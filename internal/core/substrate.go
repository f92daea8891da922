package core

import (
	"crypto/ed25519"
	"fmt"

	"lateral/internal/cryptoutil"
)

// Properties describes what one isolation substrate defends against and
// what it costs. It is the machine-readable form of the paper's Section II
// comparison: "different solutions address different attacker models".
type Properties struct {
	// Substrate is the substrate's name.
	Substrate string

	// SpatialIsolation: domains cannot read or write each other's memory.
	SpatialIsolation bool

	// TemporalIsolation: the substrate can schedule domains with fixed
	// time partitions, mitigating scheduling covert channels (§II-C).
	TemporalIsolation bool

	// PhysicalMemoryProtection: domain memory survives a DRAM bus tap
	// (memory encryption or physically separate/on-chip memory, §II-D).
	PhysicalMemoryProtection bool

	// SecureLaunch: an unchangeable trust anchor oversees what code is
	// started (§II-D "Secure Launch").
	SecureLaunch bool

	// Attestation: the substrate holds a restricted-access secret and can
	// prove code identity to remote parties (§II-D "Software Attestation").
	Attestation bool

	// MaxTrustedDomains caps protected domains (TrustZone: the secure
	// world is a single environment; SEP: one coprocessor). 0 = unlimited.
	MaxTrustedDomains int

	// ConcurrentTrusted: trusted domains can execute concurrently (SGX
	// enclaves yes; TPM late launch no — Flicker sessions serialize).
	ConcurrentTrusted bool

	// SecondaryIsolation: trusted domains share one protected environment
	// and rely on a substrate-provided OS for sub-isolation (TrustZone
	// secure world, §II-B).
	SecondaryIsolation bool

	// SideChannelLeaky marks substrates the paper calls out for cache
	// side channels and starvation issues (SGX, §II-C).
	SideChannelLeaky bool

	// InvokeCostNs is the modeled cost of one cross-domain invocation in
	// nanoseconds, at the order of magnitude published for the mechanism
	// (function call ≈ 2, microkernel IPC ≈ 1e3, SMC ≈ 4e3, enclave
	// transition ≈ 8e3, SEP mailbox ≈ 1e5, TPM late launch ≈ 1e8).
	InvokeCostNs int64

	// TCBUnits is the complexity the substrate adds to every hosted
	// component's trusted computing base, in abstract code-size units
	// (see internal/metrics for the scale).
	TCBUnits int
}

// DomainSpec describes a domain to be created on a substrate.
type DomainSpec struct {
	// Name is unique per system.
	Name string

	// Code is the binary image measured at launch; use CodeOf for
	// component-backed domains.
	Code []byte

	// Trusted requests placement in the substrate's protected environment
	// (secure world, enclave, PAL, SEP). Untrusted domains model legacy
	// codebases and live in ordinary memory.
	Trusted bool

	// MemPages is the domain memory size; 0 means one page.
	MemPages int
}

// DomainHandle is the unified handle every substrate returns for a loaded
// domain. It exposes exactly the operations core needs: memory access
// within the domain, the launch measurement, and the compromise view.
type DomainHandle interface {
	// DomainName returns the spec name.
	DomainName() string

	// Measurement returns the hash of the code image taken at launch.
	// Runtime subversion does not change it; relaunching different code does.
	Measurement() [32]byte

	// Trusted reports whether the domain lives in the protected environment.
	Trusted() bool

	// MemSize returns the domain memory size in bytes.
	MemSize() int

	// Write stores bytes at an offset inside the domain's memory.
	Write(off int, p []byte) error

	// Read loads bytes from an offset inside the domain's memory.
	Read(off, n int) ([]byte, error)

	// CompromiseView returns every byte range an attacker in full control
	// of this domain could read: its own memory plus anything the
	// substrate fails to isolate from it. This is where substrates differ
	// most — a no-isolation substrate returns the whole arena.
	CompromiseView() [][]byte

	// Destroy releases the domain's resources.
	Destroy() error
}

// Substrate is the unified isolation interface (Fig. 2's "isolation
// substrate"). Five hardware-technology simulators and one deliberate
// non-substrate (Monolith) implement it.
type Substrate interface {
	// Name returns the substrate name.
	Name() string

	// Properties returns the substrate's attacker-model coverage and costs.
	Properties() Properties

	// CreateDomain loads a domain. It enforces the substrate's structural
	// limits (e.g. returns ErrTooManyTrusted past MaxTrustedDomains).
	CreateDomain(spec DomainSpec) (DomainHandle, error)

	// Anchor returns the substrate's trust anchor, or nil if it has none
	// (then Attestation in Properties is false).
	Anchor() TrustAnchor
}

// Quote is attestation evidence: a signed statement by a trust anchor that
// a domain with the given measurement runs under it. The anchor's device
// key signs; the vendor's certificate over the device key lets remote
// verifiers build the trust chain without knowing individual devices.
type Quote struct {
	AnchorKind  string   // e.g. "tpm", "sgx-qe", "tz-rom", "sep"
	Measurement [32]byte // launch measurement of the quoted domain
	Nonce       []byte   // verifier freshness
	DevicePub   ed25519.PublicKey
	DeviceSig   []byte // device key signature over (kind, measurement, nonce)
	VendorCert  []byte // vendor signature over DevicePub
}

// quoteBody serializes the signed portion of a quote.
func quoteBody(kind string, meas [32]byte, nonce []byte) []byte {
	out := make([]byte, 0, len(kind)+len(meas)+len(nonce)+2)
	out = append(out, []byte(kind)...)
	out = append(out, 0)
	out = append(out, meas[:]...)
	out = append(out, 0)
	out = append(out, nonce...)
	return out
}

// SignQuote builds a quote signed by the device key, including the vendor
// certificate. Substrate trust anchors call this.
func SignQuote(kind string, meas [32]byte, nonce []byte, device *cryptoutil.Signer, vendorCert []byte) Quote {
	return Quote{
		AnchorKind:  kind,
		Measurement: meas,
		Nonce:       append([]byte(nil), nonce...),
		DevicePub:   device.Public(),
		DeviceSig:   device.Sign(quoteBody(kind, meas, nonce)),
		VendorCert:  append([]byte(nil), vendorCert...),
	}
}

// VerifyQuote checks a quote against the verifier's expectations: the
// vendor key certifies the device key, the device key signed the quote,
// the nonce is the verifier's, and the measurement matches wantMeasurement
// (skip the measurement check by passing the zero hash).
func VerifyQuote(q Quote, nonce []byte, vendorPub ed25519.PublicKey, wantMeasurement [32]byte) error {
	if !cryptoutil.Verify(vendorPub, q.DevicePub, q.VendorCert) {
		return fmt.Errorf("vendor certificate invalid: %w", ErrQuote)
	}
	if !cryptoutil.Verify(q.DevicePub, quoteBody(q.AnchorKind, q.Measurement, q.Nonce), q.DeviceSig) {
		return fmt.Errorf("device signature invalid: %w", ErrQuote)
	}
	if string(q.Nonce) != string(nonce) {
		return fmt.Errorf("nonce mismatch (replay?): %w", ErrQuote)
	}
	var zero [32]byte
	if wantMeasurement != zero && q.Measurement != wantMeasurement {
		return fmt.Errorf("measurement mismatch: got %x want %x: %w",
			q.Measurement[:4], wantMeasurement[:4], ErrQuote)
	}
	return nil
}

// VerifyEvidence decodes handshake evidence as a quote and verifies it
// (VerifyQuote): the check an attested handshake's verifier runs on the
// peer's evidence, with the transcript hash as the nonce.
func VerifyEvidence(evidence, nonce []byte, vendor ed25519.PublicKey, want [32]byte) error {
	q, err := DecodeQuote(evidence)
	if err != nil {
		return err
	}
	return VerifyQuote(q, nonce, vendor, want)
}

// Encode serializes the quote for transport over untrusted networks.
func (q Quote) Encode() []byte {
	var out []byte
	put := func(b []byte) {
		out = append(out, byte(len(b)>>8), byte(len(b)))
		out = append(out, b...)
	}
	put([]byte(q.AnchorKind))
	put(q.Measurement[:])
	put(q.Nonce)
	put(q.DevicePub)
	put(q.DeviceSig)
	put(q.VendorCert)
	return out
}

// DecodeQuote parses a quote serialized by Encode. It accepts only the
// canonical form Encode produces for a SignQuote quote: ed25519-sized
// device key and signature, nothing after the last field. Every refusal
// wraps ErrQuote.
func DecodeQuote(b []byte) (Quote, error) {
	var q Quote
	next := func() ([]byte, error) {
		if len(b) < 2 {
			return nil, fmt.Errorf("decode quote: truncated length: %w", ErrQuote)
		}
		n := int(b[0])<<8 | int(b[1])
		b = b[2:]
		if len(b) < n {
			return nil, fmt.Errorf("decode quote: truncated field: %w", ErrQuote)
		}
		f := b[:n]
		b = b[n:]
		return f, nil
	}
	kind, err := next()
	if err != nil {
		return q, err
	}
	q.AnchorKind = string(kind)
	meas, err := next()
	if err != nil {
		return q, err
	}
	if len(meas) != 32 {
		return q, fmt.Errorf("decode quote: measurement must be 32 bytes, got %d: %w", len(meas), ErrQuote)
	}
	copy(q.Measurement[:], meas)
	if q.Nonce, err = next(); err != nil {
		return q, err
	}
	var pub []byte
	if pub, err = next(); err != nil {
		return q, err
	}
	if len(pub) != ed25519.PublicKeySize {
		return q, fmt.Errorf("decode quote: device key must be %d bytes, got %d: %w", ed25519.PublicKeySize, len(pub), ErrQuote)
	}
	q.DevicePub = ed25519.PublicKey(pub)
	if q.DeviceSig, err = next(); err != nil {
		return q, err
	}
	if len(q.DeviceSig) != ed25519.SignatureSize {
		return q, fmt.Errorf("decode quote: device signature must be %d bytes, got %d: %w", ed25519.SignatureSize, len(q.DeviceSig), ErrQuote)
	}
	if q.VendorCert, err = next(); err != nil {
		return q, err
	}
	if len(b) != 0 {
		return q, fmt.Errorf("decode quote: %d trailing bytes: %w", len(b), ErrQuote)
	}
	return q, nil
}

// TrustAnchor is the unified attestation interface (§II-D): quote a
// domain's code identity and seal data to it.
type TrustAnchor interface {
	// AnchorKind identifies the anchor type in quotes.
	AnchorKind() string

	// Quote attests the domain's launch measurement with verifier
	// freshness.
	Quote(d DomainHandle, nonce []byte) (Quote, error)

	// Seal encrypts data so only a domain with the same measurement can
	// recover it.
	Seal(d DomainHandle, plaintext []byte) ([]byte, error)

	// Unseal recovers sealed data if the domain's measurement matches.
	Unseal(d DomainHandle, sealed []byte) ([]byte, error)
}

// IssueVendorCert signs a device public key with the vendor key, modeling
// the manufacturer provisioning step (Intel signing quoting keys, the TPM
// manufacturer signing endorsement keys, the SoC vendor fusing device keys).
func IssueVendorCert(vendor *cryptoutil.Signer, devicePub ed25519.PublicKey) []byte {
	return vendor.Sign(devicePub)
}
