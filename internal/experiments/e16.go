package experiments

import (
	"bytes"
	"errors"
	"fmt"

	"lateral/internal/core"
	"lateral/internal/hw"
	"lateral/internal/kernel"
)

// e16Setup builds one machine with a driver domain (owning a NIC) and a
// victim domain holding the secret. The victim's frame is the second
// allocated page.
func e16Setup(secret []byte) (*hw.Machine, core.DomainHandle, error) {
	m := hw.NewMachine(hw.MachineConfig{})
	sub := kernel.New(kernel.Config{Machine: m})
	if _, err := sub.CreateDomain(core.DomainSpec{Name: "driver"}); err != nil {
		return nil, nil, err
	}
	victim, err := sub.CreateDomain(core.DomainSpec{Name: "victim"})
	if err != nil {
		return nil, nil, err
	}
	if err := victim.Write(0, secret); err != nil {
		return nil, nil, err
	}
	if err := sub.AssignDevice("driver", hw.NewNIC("nic0")); err != nil {
		return nil, nil, err
	}
	return m, victim, nil
}

// E16IOMMU reproduces §II-D's DMA argument: "peripheral devices are also
// capable of direct DRAM access in the form of DMA transfers. This
// property indirectly allows the driver software controlling those devices
// to manipulate arbitrary DRAM content, including page tables ... To
// defend against malicious devices and malicious device drivers, IOMMUs
// control memory access by the device the same way MMUs control memory
// access by the CPU."
//
// A malicious NIC tries to read and to corrupt a victim domain's memory:
// first as an unfiltered bus master (raw physical access), then behind an
// IOMMU that maps only the driver domain's frames for it.
func E16IOMMU() (Table, error) {
	t := Table{
		ID:     "E16",
		Title:  "malicious device DMA vs IOMMU",
		Anchor: "§II-D basic access control (IOMMU)",
		Header: []string{"configuration", "dma-read-victim", "dma-corrupt-victim"},
	}
	secret := []byte("E16-VICTIM-SECRET")
	victimPA := hw.PhysAddr(hw.PageSize)

	// Configuration A: no IOMMU in the DMA path — bus mastering reaches
	// raw physical memory.
	m, victim, err := e16Setup(secret)
	if err != nil {
		return t, err
	}
	readOK := bytes.Equal(m.Mem.PeekRaw(victimPA, len(secret)), secret)
	m.Mem.PokeRaw(victimPA, []byte("CORRUPTED-BY-DMA!"))
	after, err := victim.Read(0, len(secret))
	if err != nil {
		return t, err
	}
	corruptOK := !bytes.Equal(after, secret)
	t.AddRow("bus-mastering device, no IOMMU", boolCell(readOK), boolCell(corruptOK))
	t.Check("bus-mastering device, no IOMMU is exploitable, as predicted", readOK && corruptOK,
		fmt.Sprintf("read=%s, corrupt=%s", boolCell(readOK), boolCell(corruptOK)))

	// Configuration B: the same attack through the IOMMU. The device's
	// address space contains only the driver's page; the victim's frame
	// is unaddressable and every access faults.
	m2, victim2, err := e16Setup(secret)
	if err != nil {
		return t, err
	}
	_, rerr := m2.IOMMU.DMARead("nic0", hw.VirtAddr(hw.PageSize), len(secret))
	readBlocked := errors.Is(rerr, hw.ErrFault)
	werr := m2.IOMMU.DMAWrite("nic0", hw.VirtAddr(hw.PageSize), []byte("CORRUPTED-BY-DMA!"))
	writeBlocked := errors.Is(werr, hw.ErrFault)
	after2, err := victim2.Read(0, len(secret))
	if err != nil {
		return t, err
	}
	intact := bytes.Equal(after2, secret)
	t.AddRow("same device behind IOMMU", boolCell(!readBlocked), boolCell(!writeBlocked))
	t.Check("same device behind IOMMU is contained", readBlocked && writeBlocked && intact,
		fmt.Sprintf("read faulted=%s, write faulted=%s, victim intact=%s",
			boolCell(readBlocked), boolCell(writeBlocked), boolCell(intact)))
	t.Notes = append(t.Notes,
		"the IOMMU maps only the driver domain's frames for the device; the victim is unaddressable")
	return t, nil
}
