// Package experiments implements the reproduction harness: one function
// per experiment in DESIGN.md's per-experiment index (E1–E27 plus the
// ablations folded into their tables). Each returns a Table whose rows the
// command-line harness prints and whose numbers the benchmark suite and
// tests assert on.
//
// The paper is a vision paper without quantitative tables; these
// experiments validate every falsifiable claim it makes instead, each
// pinned to the paper passage in its doc comment.
package experiments

import (
	"fmt"
	"strings"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/kernel"
	"lateral/internal/noc"
	"lateral/internal/sep"
	"lateral/internal/sgx"
	"lateral/internal/tpm"
	"lateral/internal/trustzone"
)

// Table is one experiment's result in printable form.
type Table struct {
	ID     string
	Title  string
	Anchor string // paper passage the experiment reproduces
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders an aligned text table.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Anchor != "" {
		fmt.Fprintf(&b, "   (reproduces: %s)\n", t.Anchor)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one registered experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func() (Table, error)
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "containment (Fig. 1)", Run: E1Containment},
		{ID: "E2", Name: "unified interface portability (Fig. 2)", Run: E2Portability},
		{ID: "E3", Name: "smart meter end-to-end (Fig. 3)", Run: E3SmartMeter},
		{ID: "E4", Name: "invocation cost of decomposition", Run: E4Invocation},
		{ID: "E5", Name: "TCB size", Run: E5TCB},
		{ID: "E6", Name: "scheduling covert channel", Run: E6Covert},
		{ID: "E7", Name: "VPFS trusted wrapper", Run: E7VPFS},
		{ID: "E8", Name: "confused deputy vs capabilities", Run: E8Deputy},
		{ID: "E9", Name: "phishing resistance", Run: E9Phishing},
		{ID: "E10", Name: "gateway DDoS containment", Run: E10Gateway},
		{ID: "E11", Name: "secure vs authenticated boot", Run: E11Boot},
		{ID: "E12", Name: "physical DRAM bus attacker", Run: E12BusTap},
		{ID: "E13", Name: "secure GUI phishing overlay", Run: E13GUI},
		{ID: "E14", Name: "trusted-component concurrency", Run: E14Concurrency},
		{ID: "E15", Name: "substrate interchangeability (fTPM)", Run: E15Interchangeability},
		{ID: "E16", Name: "IOMMU vs malicious device DMA", Run: E16IOMMU},
		{ID: "E17", Name: "distributed confidence domains", Run: E17Distributed},
		{ID: "E18", Name: "automatic partitioning", Run: E18AutoPartition},
		{ID: "E19", Name: "attested replica fleet (cluster)", Run: E19Cluster},
		{ID: "E20", Name: "stall containment under deadlines", Run: E20Stall},
		{ID: "E21", Name: "deterministic fleet simulation", Run: E21Simulation},
		{ID: "E22", Name: "pipelined secure-channel RPC", Run: E22Pipelining},
		{ID: "E23", Name: "million-client sharded fleet", Run: E23Sharding},
		{ID: "E24", Name: "fleet black box (auditor replay)", Run: E24Audit},
		{ID: "E25", Name: "chain-aware policy (mosaic denial)", Run: E25Policy},
		{ID: "E26", Name: "rolling replace under config epochs", Run: E26Rolling},
		{ID: "E27", Name: "wire-level frame coalescing", Run: E27Coalescing},
	}
}

// SubstrateNames lists the substrates the portability and cost experiments
// sweep: the monolith baseline, the five isolation technologies the paper
// analyzes in depth, and the M3-style NoC mesh it mentions for
// heterogeneous manycores.
func SubstrateNames() []string {
	return []string{"monolith", "microkernel", "trustzone", "sgx", "sep", "tpm-latelaunch", "noc"}
}

// NewSubstrate constructs a fresh substrate by name, with deterministic
// vendor/device identities.
func NewSubstrate(name string) (core.Substrate, error) {
	switch name {
	case "monolith":
		return core.NewMonolith(4 << 20), nil
	case "microkernel":
		return kernel.New(kernel.Config{}), nil
	case "microkernel-tdma":
		return kernel.New(kernel.Config{TimePartitioned: true}), nil
	case "trustzone":
		return trustzone.New(trustzone.Config{
			DeviceSeed:  "exp-tz",
			Vendor:      cryptoutil.NewSigner("soc-vendor"),
			Hypervisor:  true,
			SecurePages: 256,
		})
	case "trustzone-scratchpad":
		return trustzone.New(trustzone.Config{
			DeviceSeed:       "exp-tzs",
			Vendor:           cryptoutil.NewSigner("soc-vendor"),
			Hypervisor:       true,
			ScratchpadCrypto: true,
		})
	case "sgx":
		return sgx.New(sgx.Config{DeviceSeed: "exp-sgx", Vendor: cryptoutil.NewSigner("cpu-vendor")})
	case "sep":
		return sep.New(sep.Config{DeviceSeed: "exp-sep", Vendor: cryptoutil.NewSigner("sep-vendor")})
	case "tpm-latelaunch":
		return tpm.NewSubstrate(tpm.New("exp-tpm", cryptoutil.NewSigner("tpm-mfr"))), nil
	case "noc":
		// 64 KiB scratchpads (M3-scale) so colocated variants also fit.
		return noc.New(noc.Config{Tiles: 32, SPMBytes: 64 << 10}), nil
	default:
		return nil, fmt.Errorf("experiments: unknown substrate %q", name)
	}
}

func boolCell(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
