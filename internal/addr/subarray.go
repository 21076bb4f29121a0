package addr

import (
	"fmt"

	"hammertime/internal/dram"
)

// Partition assigns every subarray index to a subarray group — Fig. 2's
// groups A, B, C. A group is the same set of subarray indices in every
// bank, so a domain confined to one group still interleaves its lines
// across all banks (full bank-level parallelism) while staying
// electromagnetically isolated from other groups.
type Partition struct {
	geom   dram.Geometry
	groups int
}

// NewPartition divides g's subarrays round-robin into n groups: subarray s
// belongs to group s % n. SubarraysPerBank must be divisible by n so every
// group gets equal capacity.
func NewPartition(g dram.Geometry, n int) (*Partition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("addr: partition needs > 0 groups, got %d", n)
	}
	if n > g.SubarraysPerBank {
		return nil, fmt.Errorf("addr: partition of %d groups exceeds %d subarrays per bank",
			n, g.SubarraysPerBank)
	}
	if g.SubarraysPerBank%n != 0 {
		return nil, fmt.Errorf("addr: %d subarrays per bank not divisible by %d groups",
			g.SubarraysPerBank, n)
	}
	return &Partition{geom: g, groups: n}, nil
}

// Groups returns the number of subarray groups.
func (p *Partition) Groups() int { return p.groups }

// Geometry returns the geometry the partition was built for.
func (p *Partition) Geometry() dram.Geometry { return p.geom }

// GroupOfSubarray returns the group owning the given subarray index.
func (p *Partition) GroupOfSubarray(sub int) int { return sub % p.groups }

// GroupOfRow returns the group owning the given bank-local row.
func (p *Partition) GroupOfRow(row int) int {
	return p.GroupOfSubarray(p.geom.SubarrayOf(row))
}

// SubarraysPerGroup returns how many subarrays of each bank one group owns.
func (p *Partition) SubarraysPerGroup() int { return p.geom.SubarraysPerBank / p.groups }

// SubarraysInGroup returns the subarray indices belonging to group.
func (p *Partition) SubarraysInGroup(group int) []int {
	var subs []int
	for s := group; s < p.geom.SubarraysPerBank; s += p.groups {
		subs = append(subs, s)
	}
	return subs
}

// SubarrayIsolated wraps a base interleaving scheme with the paper's §4.1
// primitive: full cache-line interleaving across banks, with the subarray
// bits of the row permuted so that each contiguous 1/groups slice of the
// physical address space (a "region") lands entirely in one subarray
// group. The host allocator's job becomes trivial — give trust domain d
// frames from region g(d) — while every domain still spreads consecutive
// lines across all banks. The memory controller additionally enforces
// domain/group ownership on every request (see memctrl.DomainEnforcer).
type SubarrayIsolated struct {
	base       Mapper
	part       *Partition
	geom       dram.Geometry
	rowsPerSA  int
	subsPerGrp int
}

// NewSubarrayIsolated wraps base with the region-to-group row permutation.
func NewSubarrayIsolated(base Mapper, part *Partition) (*SubarrayIsolated, error) {
	g := base.Geometry()
	if part.geom != g {
		return nil, fmt.Errorf("addr: partition geometry does not match mapper geometry")
	}
	return &SubarrayIsolated{
		base:       base,
		part:       part,
		geom:       g,
		rowsPerSA:  g.RowsPerSubarray,
		subsPerGrp: part.SubarraysPerGroup(),
	}, nil
}

// Name implements Mapper.
func (m *SubarrayIsolated) Name() string {
	return fmt.Sprintf("subarray-isolated(%s,%d)", m.base.Name(), m.part.groups)
}

// Geometry implements Mapper.
func (m *SubarrayIsolated) Geometry() dram.Geometry { return m.geom }

// permuteRow maps a dense "logical" row index to a physical row such that
// logical region r (a contiguous run of subsPerGrp logical subarrays)
// occupies exactly the subarrays of group r: logical subarray
// ls = region*subsPerGrp + k goes to physical subarray k*groups + region.
func (m *SubarrayIsolated) permuteRow(row int) int {
	ls := row / m.rowsPerSA
	within := row % m.rowsPerSA
	region := ls / m.subsPerGrp
	k := ls % m.subsPerGrp
	physSub := k*m.part.groups + region
	return physSub*m.rowsPerSA + within
}

// unpermuteRow inverts permuteRow.
func (m *SubarrayIsolated) unpermuteRow(row int) int {
	physSub := row / m.rowsPerSA
	within := row % m.rowsPerSA
	region := physSub % m.part.groups
	k := physSub / m.part.groups
	ls := region*m.subsPerGrp + k
	return ls*m.rowsPerSA + within
}

// Map implements Mapper.
func (m *SubarrayIsolated) Map(line uint64) DDR {
	d := m.base.Map(line)
	d.Row = m.permuteRow(d.Row)
	return d
}

// Unmap implements Mapper.
func (m *SubarrayIsolated) Unmap(d DDR) uint64 {
	d.Row = m.unpermuteRow(d.Row)
	return m.base.Unmap(d)
}

// Partition returns the subarray partition the mapper isolates by.
func (m *SubarrayIsolated) Partition() *Partition { return m.part }

// GroupOfLine returns the subarray group a physical line maps into.
func (m *SubarrayIsolated) GroupOfLine(line uint64) int {
	return m.part.GroupOfRow(m.Map(line).Row)
}

// RegionBounds returns the half-open physical line range [lo, hi) whose
// lines map into the given subarray group — the region a host allocator
// assigns to the domains of that group.
func (m *SubarrayIsolated) RegionBounds(group int) (lo, hi uint64, err error) {
	if group < 0 || group >= m.part.groups {
		return 0, 0, fmt.Errorf("addr: group %d out of range [0,%d)", group, m.part.groups)
	}
	linesPerRegion := m.geom.TotalLines() / uint64(m.part.groups)
	return uint64(group) * linesPerRegion, uint64(group+1) * linesPerRegion, nil
}
