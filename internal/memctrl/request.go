// Package memctrl models the CPU's integrated memory controller: address
// mapping, per-bank scheduling with an analytic latency model, periodic
// refresh, and — the contribution of "Stop! Hammer Time" (HotOS '21) —
// the three proposed Rowhammer-management primitives:
//
//   - domain enforcement for subarray-isolated interleaving (§4.1),
//   - precise ACT-counter overflow interrupts that report the physical
//     address triggering the latest activation (§4.2),
//   - a host-privileged targeted refresh instruction (§4.3).
//
// It also hosts the in-controller hardware baselines the paper compares
// against as one ordered plugin chain (Plugin): PARA-style probabilistic
// neighbor refresh, Graphene-style Misra-Gries tracking, and
// BlockHammer-style admission control.
package memctrl

import "fmt"

// SourceKind distinguishes request originators. The distinction matters
// for defenses: CPU requests are visible to per-core performance counters
// (what ANVIL samples), DMA requests are not (§1) — DMA-based Rowhammer
// bypasses counter-based software defenses.
type SourceKind uint8

const (
	// SourceCPU marks requests from a CPU core (cache miss path).
	SourceCPU SourceKind = iota
	// SourceDMA marks direct memory accesses from devices.
	SourceDMA
	// SourceKernel marks host-OS maintenance traffic (page migration).
	SourceKernel
)

// String returns the kind's name.
func (k SourceKind) String() string {
	switch k {
	case SourceCPU:
		return "cpu"
	case SourceDMA:
		return "dma"
	case SourceKernel:
		return "kernel"
	default:
		return fmt.Sprintf("SourceKind(%d)", uint8(k))
	}
}

// Source identifies the agent issuing a request.
type Source struct {
	Kind SourceKind
	ID   int
}

// Request is one cache-line-sized memory access presented to the
// controller (a cache miss, writeback, or DMA transfer).
type Request struct {
	// Line is the physical address at cache-line granularity.
	Line uint64
	// Write marks stores/writebacks.
	Write bool
	// Domain is the trust-domain tag (ASID) of the issuing context.
	Domain int
	// Source identifies the issuing agent.
	Source Source
}

// ServiceResult reports how one request was served.
type ServiceResult struct {
	// Start is the cycle service began (after queuing and throttling).
	Start uint64
	// Completion is the cycle data transfer finished.
	Completion uint64
	// RowHit is true when the request hit the open row buffer.
	RowHit bool
	// Activated is true when service required an ACT command.
	Activated bool
	// ThrottleDelay is the extra delay imposed by admission control.
	ThrottleDelay uint64
	// Violation is true when domain enforcement flagged the request as
	// touching a subarray group not owned by the request's domain.
	Violation bool
}
