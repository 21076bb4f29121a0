package defense

import (
	"hammertime/internal/core"
	"hammertime/internal/dram"
	"hammertime/internal/hostos"
	"hammertime/internal/memctrl"
)

// ECCScrub combines SECDED ECC with a patrol scrubber: a daemon that
// cycles through physical memory, reading each line so ECC can repair
// single-bit flips before a second flip in the same word makes them
// uncorrectable. It narrows — but cannot close — the Rowhammer window:
// words that collect two flips between patrol visits still machine-check,
// and multi-flip aliases still launder silent corruption (E9 measures
// both). This is the strongest deployed in-DRAM-adjacent baseline short
// of real mitigations.
type ECCScrub struct {
	// Interval is the daemon's wake period in cycles (0 means 100_000).
	Interval uint64
	// LinesPerPass is how many lines one wake scrubs (0 means 64). The
	// module counts outcomes in dram.scrub_corrected/_detected.
	LinesPerPass int
}

// Name implements core.Defense.
func (d *ECCScrub) Name() string { return "ecc+scrub" }

// Class implements core.Defense.
func (*ECCScrub) Class() core.Class { return core.ClassInDRAM }

// Configure implements core.Defense.
func (d *ECCScrub) Configure(spec *core.MachineSpec) error {
	spec.ECC = true
	if d.Interval == 0 {
		d.Interval = 100_000
	}
	if d.LinesPerPass == 0 {
		d.LinesPerPass = 64
	}
	return nil
}

// Attach implements core.Defense.
func (d *ECCScrub) Attach(m *core.Machine) error {
	m.AddDaemon(&scrubDaemon{defense: d, machine: m})
	return nil
}

type scrubDaemon struct {
	defense *ECCScrub
	machine *core.Machine
	next    uint64 // next physical line in the patrol cycle
}

// Done implements core.Agent.
func (s *scrubDaemon) Done() bool { return false }

// Step implements core.Agent: scrub the next batch of lines. Each scrub
// is a real read (memory traffic and row activations are paid), followed
// by the ECC repair.
func (s *scrubDaemon) Step(now uint64) (uint64, bool, error) {
	d := s.defense
	m := s.machine
	total := m.Spec.Geometry.TotalLines()
	t := now
	for i := 0; i < d.LinesPerPass; i++ {
		line := s.next % total
		s.next++
		// Patrol scrubs only visit allocated memory (the host knows its
		// own frame map); untouched frames hold no data to protect.
		if _, owned := m.Kernel.OwnerOfLine(line); !owned {
			continue
		}
		res, err := m.MC.ServeRequest(memctrl.Request{
			Line:   line,
			Domain: hostos.HostDomain,
			Source: memctrl.Source{Kind: memctrl.SourceKernel},
		}, t)
		if err != nil {
			return now, false, err
		}
		t = res.Completion
		dd := m.Mapper.Map(line)
		if _, _, err := m.DRAM.ScrubLine(dram.LineAddr{Bank: dd.Bank, Row: dd.Row, Column: dd.Column}); err != nil {
			return now, false, err
		}
	}
	next := now + d.Interval
	if t > next {
		next = t
	}
	return next, true, nil
}
