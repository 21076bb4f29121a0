package defense

import (
	"slices"

	"hammertime/internal/addr"
	"hammertime/internal/core"
	"hammertime/internal/cpu"
	"hammertime/internal/memctrl"
)

// SWRefresh is the paper's §4.3 refresh-centric software defense: the
// precise ACT interrupt identifies probable aggressors, and the host
// refreshes their potential victims with the proposed host-privileged
// refresh instruction — no loads, no cache manipulation, no bus data.
// With UseRefNeighbors it instead issues the optional REF_NEIGHBORS DDR
// command, letting DRAM refresh all victims in one shot.
type SWRefresh struct {
	Randomize       bool
	UseRefNeighbors bool

	refreshes uint64
}

// Name implements core.Defense.
func (d *SWRefresh) Name() string {
	if d.UseRefNeighbors {
		return "swrefresh(ref-neighbors)"
	}
	return "swrefresh"
}

// Class implements core.Defense.
func (*SWRefresh) Class() core.Class { return core.ClassRefresh }

// Configure implements core.Defense.
func (d *SWRefresh) Configure(*core.MachineSpec) error {
	d.Randomize = true
	return nil
}

// Attach implements core.Defense.
func (d *SWRefresh) Attach(m *core.Machine) error {
	det := newDetector(m, d.Randomize)
	radius := m.Spec.Profile.BlastRadius
	geom := m.Mapper.Geometry()
	handler := func(ev memctrl.ACTEvent) uint64 {
		flagged, reset := det.observe(ev)
		if !flagged {
			return reset
		}
		if d.UseRefNeighbors {
			if _, err := m.MC.RefreshNeighborsCmd(ev.Line, radius, 0, ev.Cycle); err == nil {
				d.refreshes++
			}
			return reset
		}
		// Refresh every potential victim row with one refresh
		// instruction each (row adjacency known per §2.1).
		for dist := 1; dist <= radius; dist++ {
			for _, victim := range [2]int{ev.Row - dist, ev.Row + dist} {
				if !geom.ValidRow(victim) || !geom.SameSubarray(ev.Row, victim) {
					continue
				}
				line := m.Mapper.Unmap(addr.DDR{Bank: ev.Bank, Row: victim, Column: 0})
				if _, err := m.Kernel.RefreshLine(line, true, ev.Cycle); err == nil {
					d.refreshes++
				}
			}
		}
		return reset
	}
	return m.MC.EnableACTCounter(true, det.threshold(), handler)
}

// Refreshes returns how many targeted refreshes the defense issued.
func (d *SWRefresh) Refreshes() uint64 { return d.refreshes }

// ANVIL approximates Aweke et al.'s ASPLOS'16 defense on today's
// hardware: a daemon samples per-core LLC-miss counters and PEBS-style
// miss addresses, flags hot rows, and "refreshes" their neighbors the
// only way current machines allow — by issuing loads and hoping they
// activate the victim rows (§4.3's convoluted path).
//
// Its structural blind spot (§1): DMA traffic never appears in core
// performance counters, so DMA hammering sails through.
type ANVIL struct {
	// Interval is the sampling period in cycles (0 means 50_000).
	Interval uint64
	// HotSamples flags a row seen this many times in one sampling period.
	HotSamples int

	cores []*cpu.Core
}

// Name implements core.Defense.
func (d *ANVIL) Name() string { return "anvil" }

// Class implements core.Defense.
func (*ANVIL) Class() core.Class { return core.ClassRefresh }

// Configure implements core.Defense.
func (d *ANVIL) Configure(*core.MachineSpec) error {
	if d.Interval == 0 {
		d.Interval = 50_000
	}
	if d.HotSamples == 0 {
		d.HotSamples = 8
	}
	return nil
}

// Attach implements core.Defense.
func (d *ANVIL) Attach(m *core.Machine) error {
	m.AddDaemon(&anvilDaemon{defense: d, machine: m})
	return nil
}

// ObserveCores registers the cores whose PMUs the daemon samples and
// turns their sampling on. The harness calls this after creating the
// cores and before running them (the real ANVIL equally only sees CPU
// cores).
func (d *ANVIL) ObserveCores(cores []*cpu.Core) {
	for _, c := range cores {
		c.EnableSampling()
	}
	d.cores = cores
}

type anvilDaemon struct {
	defense *ANVIL
	machine *core.Machine
	// hot is the period's scratch: the sampled lines, then their
	// (bank, row) keys. It is kept across periods.
	hot []uint64
}

// Done implements core.Agent.
func (a *anvilDaemon) Done() bool { return false }

// Step implements core.Agent.
func (a *anvilDaemon) Step(now uint64) (uint64, bool, error) {
	d := a.defense
	m := a.machine
	geom := m.Mapper.Geometry()
	radius := m.Spec.Profile.BlastRadius
	hot := a.hot[:0]
	for _, c := range d.cores {
		hot = c.AppendSamples(hot)
	}
	// The refresh loads below advance the bank clocks, so the order the
	// hot rows are serviced in is simulation-visible: sort the samples'
	// keys into (bank, row) order and service each run of equal keys.
	for i, line := range hot {
		dd := m.Mapper.Map(line)
		hot[i] = uint64(dd.Bank)<<32 | uint64(dd.Row)
	}
	slices.Sort(hot)
	a.hot = hot
	t := now
	for i := 0; i < len(hot); {
		key := hot[i]
		n := 1
		for i+n < len(hot) && hot[i+n] == key {
			n++
		}
		i += n
		if n < d.HotSamples {
			continue
		}
		bank, row := int(key>>32), int(key&(1<<32-1))
		for dist := 1; dist <= radius; dist++ {
			for _, victim := range [2]int{row - dist, row + dist} {
				if !geom.ValidRow(victim) || !geom.SameSubarray(row, victim) {
					continue
				}
				// Legacy refresh path: a plain read that (if the row is
				// closed) activates — and thereby recharges — the victim.
				line := m.Mapper.Unmap(addr.DDR{Bank: bank, Row: victim, Column: 0})
				res, err := m.MC.ServeRequest(memctrl.Request{
					Line:   line,
					Domain: 0,
					Source: memctrl.Source{Kind: memctrl.SourceKernel},
				}, t)
				if err != nil {
					return now, false, err
				}
				t = res.Completion
			}
		}
	}
	next := now + d.Interval
	if t > next {
		next = t
	}
	return next, true, nil
}
