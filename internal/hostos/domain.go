// Package hostos models the host operating system (hypervisor) of a
// multi-tenant machine: trust domains (VMs/processes), page allocation
// policies — including the isolation-centric ones of §2.2/§4.1 of "Stop!
// Hammer Time" — page tables, page migration, and enclave integrity
// semantics (§4.4).
package hostos

import "fmt"

// PageSize is the host page size in bytes.
const PageSize = 4096

// HostDomain is the ASID of the trusted host OS itself (never enforced
// against a subarray group, always allowed the refresh instruction).
const HostDomain = 0

// Domain is a trust domain: a VM, process or enclave.
type Domain struct {
	ID   int
	Name string
	// Enclave marks domains whose memory the host is not trusted with
	// (SGX/TDX/SEV-style, §4.4).
	Enclave bool
	// IntegrityChecked marks enclave memory that is integrity-verified on
	// access: Rowhammer flips cause a detectable failure (machine lockup,
	// i.e., denial of service) instead of silent corruption.
	IntegrityChecked bool
}

// PageTable maps a domain's virtual page numbers to physical frames.
// Domains map their pages densely from VPN 0, so the table is a slice
// indexed by VPN holding frame+1 (0 = unmapped): a translation is one
// bounds check and one load. Memory grows with the highest mapped VPN.
type PageTable struct {
	frames []uint64
	size   int
	gen    uint64 // see Gen
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable { return &PageTable{} }

// Map installs vpn -> frame, replacing any existing mapping.
func (pt *PageTable) Map(vpn, frame uint64) {
	if vpn >= uint64(len(pt.frames)) {
		if vpn < uint64(cap(pt.frames)) {
			// Slots past len were never written: still unmapped.
			pt.frames = pt.frames[:vpn+1]
		} else {
			grown := make([]uint64, vpn+1, 2*vpn+1)
			copy(grown, pt.frames)
			pt.frames = grown
		}
	}
	if pt.frames[vpn] == 0 {
		pt.size++
	}
	pt.frames[vpn] = frame + 1
	pt.gen++
}

// Grow makes room for mappings at VPNs below n, so mapping them does
// not reallocate the table.
func (pt *PageTable) Grow(n int) {
	if n > cap(pt.frames) {
		grown := make([]uint64, len(pt.frames), n)
		copy(grown, pt.frames)
		pt.frames = grown
	}
}

// Unmap removes vpn's mapping.
func (pt *PageTable) Unmap(vpn uint64) {
	if vpn < uint64(len(pt.frames)) && pt.frames[vpn] != 0 {
		pt.frames[vpn] = 0
		pt.size--
	}
	pt.gen++
}

// Gen returns the table's mapping generation. Every Map and Unmap moves
// it, so a translation taken at one generation still holds while Gen
// returns the same value.
func (pt *PageTable) Gen() uint64 { return pt.gen }

// Frame returns the frame mapped at vpn.
func (pt *PageTable) Frame(vpn uint64) (uint64, bool) {
	if vpn >= uint64(len(pt.frames)) || pt.frames[vpn] == 0 {
		return 0, false
	}
	return pt.frames[vpn] - 1, true
}

// Translate converts a virtual byte address to a physical byte address.
func (pt *PageTable) Translate(va uint64) (uint64, error) {
	frame, ok := pt.Frame(va / PageSize)
	if !ok {
		return 0, fmt.Errorf("hostos: page fault at va %#x (vpn %d unmapped)", va, va/PageSize)
	}
	return frame*PageSize + va%PageSize, nil
}

// VPNs returns the mapped virtual page numbers in ascending order.
func (pt *PageTable) VPNs() []uint64 {
	out := make([]uint64, 0, pt.size)
	for v, f := range pt.frames {
		if f != 0 {
			out = append(out, uint64(v))
		}
	}
	return out
}

// Size returns the number of mapped pages.
func (pt *PageTable) Size() int { return pt.size }
