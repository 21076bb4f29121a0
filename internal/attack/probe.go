package attack

import (
	"fmt"

	"hammertime/internal/addr"
	"hammertime/internal/core"
	"hammertime/internal/dram"
	"hammertime/internal/memctrl"
)

// Prober implements the inference methods of §2.1/§4.1: an attacker (or a
// defender without vendor documentation) uses the success or failure of
// Rowhammer itself to reveal physical row adjacency, subarray boundaries
// and the blast radius. The prober writes patterns into its own lines,
// hammers, and reads them back — it never needs another domain's data.
type Prober struct {
	machine *core.Machine
	domain  int
	// HammerFactor scales how hard each probe hammers: the aggressor
	// receives HammerFactor * MAC activations (default 3).
	HammerFactor int

	now uint64
}

// NewProber returns a prober for the given domain.
func NewProber(m *core.Machine, domain int) *Prober {
	return &Prober{machine: m, domain: domain, HammerFactor: 3}
}

// ownLines returns the domain's lines in the given bank-local row.
func (p *Prober) ownLines(bank, row int) []uint64 {
	g := p.machine.Mapper.Geometry()
	var lines []uint64
	for col := 0; col < g.ColumnsPerRow; col++ {
		line := p.machine.Mapper.Unmap(ddr(bank, row, col))
		if owner, ok := p.machine.Kernel.OwnerOfLine(line); ok && owner == p.domain {
			lines = append(lines, line)
		}
	}
	return lines
}

func ddr(bank, row, col int) addr.DDR { return addr.DDR{Bank: bank, Row: row, Column: col} }

// hammer drives raw alternating accesses to two rows of one bank until
// the primary aggressor has absorbed the requested activations.
func (p *Prober) hammer(bank, row int, acts int) error {
	companion, err := p.companionRow(bank, row)
	if err != nil {
		return err
	}
	lineA := p.machine.Mapper.Unmap(ddr(bank, row, 0))
	lineB := p.machine.Mapper.Unmap(ddr(bank, companion, 0))
	for i := 0; i < acts; i++ {
		for _, line := range [2]uint64{lineA, lineB} {
			res, err := p.machine.MC.ServeRequest(memctrl.Request{
				Line:   line,
				Domain: p.domain,
				Source: memctrl.Source{Kind: memctrl.SourceCPU},
			}, p.now)
			if err != nil {
				return err
			}
			p.now = res.Completion
		}
	}
	return nil
}

// companionRow picks a row far from the probe target (preferably another
// subarray) to force row-buffer conflicts without polluting the probe.
func (p *Prober) companionRow(bank, row int) (int, error) {
	g := p.machine.Mapper.Geometry()
	half := g.RowsPerBank() / 2
	companion := (row + half) % g.RowsPerBank()
	if g.SameSubarray(companion, row) {
		return 0, fmt.Errorf("attack: prober cannot find an isolated companion for row %d", row)
	}
	return companion, nil
}

// pattern fills the domain's lines of (bank, row) with 0xA5 and returns
// how many lines were written. Zero means the probe has no visibility
// into that row.
func (p *Prober) pattern(bank, row int) (int, error) {
	g := p.machine.Mapper.Geometry()
	lines := p.ownLines(bank, row)
	buf := make([]byte, g.LineBytes)
	for i := range buf {
		buf[i] = 0xA5
	}
	for _, line := range lines {
		d := p.machine.Mapper.Map(line)
		if err := p.machine.DRAM.WriteLine(dram.LineAddr{Bank: d.Bank, Row: d.Row, Column: d.Column}, buf); err != nil {
			return 0, err
		}
	}
	return len(lines), nil
}

// corrupted reports whether any of the domain's lines in (bank, row)
// deviate from the written pattern.
func (p *Prober) corrupted(bank, row int) (bool, error) {
	lines := p.ownLines(bank, row)
	for _, line := range lines {
		d := p.machine.Mapper.Map(line)
		data, err := p.machine.DRAM.ReadLine(dram.LineAddr{Bank: d.Bank, Row: d.Row, Column: d.Column})
		if err != nil {
			return false, err
		}
		for _, b := range data {
			if b != 0xA5 {
				return true, nil
			}
		}
	}
	return false, nil
}

// ProbePair hammers probe row `aggressor` and reports whether `victim`
// flipped — i.e., whether the two rows are electromagnetically adjacent
// (same subarray, within the blast radius). Requires the domain to own
// at least one line in the victim row for visibility.
func (p *Prober) ProbePair(bank, aggressor, victim int) (bool, error) {
	g := p.machine.Mapper.Geometry()
	if !g.ValidRow(aggressor) || !g.ValidRow(victim) {
		return false, fmt.Errorf("attack: probe rows %d/%d out of range", aggressor, victim)
	}
	n, err := p.pattern(bank, victim)
	if err != nil {
		return false, err
	}
	if n == 0 {
		return false, fmt.Errorf("attack: domain %d owns no lines in bank %d row %d", p.domain, bank, victim)
	}
	factor := p.HammerFactor
	if factor <= 0 {
		factor = 3
	}
	acts := int(p.machine.Spec.Profile.MAC) * factor
	if err := p.hammer(bank, aggressor, acts); err != nil {
		return false, err
	}
	return p.corrupted(bank, victim)
}

// InferSubarrayBoundaries scans consecutive row pairs of a bank and
// returns the rows r where (r, r+1) showed no disturbance — the §4.1
// method for discovering subarray boundaries without vendor cooperation.
// Rows the domain cannot see into are skipped.
func (p *Prober) InferSubarrayBoundaries(bank, fromRow, toRow int) ([]int, error) {
	var boundaries []int
	for r := fromRow; r < toRow; r++ {
		adjacent, err := p.ProbePair(bank, r, r+1)
		if err != nil {
			return nil, fmt.Errorf("attack: boundary probe at row %d: %w", r, err)
		}
		if !adjacent {
			boundaries = append(boundaries, r)
		}
	}
	return boundaries, nil
}

// InferBlastRadius hammers one aggressor row and probes victims at growing
// distance until flips stop, returning the inferred radius.
func (p *Prober) InferBlastRadius(bank, aggressor, maxProbe int) (int, error) {
	g := p.machine.Mapper.Geometry()
	radius := 0
	for dist := 1; dist <= maxProbe; dist++ {
		victim := aggressor + dist
		if !g.ValidRow(victim) || !g.SameSubarray(aggressor, victim) {
			break
		}
		flipped, err := p.ProbePair(bank, aggressor, victim)
		if err != nil {
			return 0, err
		}
		if !flipped {
			break
		}
		radius = dist
	}
	return radius, nil
}
