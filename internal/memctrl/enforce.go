package memctrl

import (
	"fmt"

	"hammertime/internal/addr"
)

// DomainEnforcer implements the memory-controller side of subarray-
// isolated interleaving (§4.1): the host OS registers each trust domain's
// subarray group (the "direct specification" via ASID the paper
// describes), and the controller verifies on every request that the
// touched row belongs to the issuing domain's group.
//
// A failed check is surfaced as ServiceResult.Violation and counted in
// mc.domain_violations; a real implementation would raise a
// machine-check or fault. Domains with no registered group (e.g., the
// host itself) are unconstrained.
type DomainEnforcer struct {
	part    *addr.Partition
	groupOf map[int]int
}

// NewDomainEnforcer returns an enforcer over the given subarray partition.
func NewDomainEnforcer(part *addr.Partition) *DomainEnforcer {
	return &DomainEnforcer{part: part, groupOf: make(map[int]int)}
}

// AssignDomain registers domain as owning the given subarray group.
func (e *DomainEnforcer) AssignDomain(domain, group int) error {
	if group < 0 || group >= e.part.Groups() {
		return fmt.Errorf("memctrl: group %d out of range [0,%d)", group, e.part.Groups())
	}
	e.groupOf[domain] = group
	return nil
}

// Allowed reports whether a request by domain touching the bank-local
// row is within the domain's subarray group. Unregistered domains always
// pass. It has no side effects, so shadow models (the invariant auditor)
// re-derive the controller's verdicts with it.
func (e *DomainEnforcer) Allowed(domain, row int) bool {
	group, ok := e.groupOf[domain]
	return !ok || e.part.GroupOfRow(row) == group
}
