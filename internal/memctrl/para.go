package memctrl

import (
	"fmt"

	"hammertime/internal/sim"
)

// PARA is probabilistic adjacent-row activation (Kim et al., ISCA'14):
// each ACT refreshes one uniformly chosen neighbor within the radius with
// a fixed probability. Stateless apart from its private RNG.
type PARA struct {
	prob   float64
	radius int
	rng    *sim.RNG
}

// NewPARA returns a PARA plugin refreshing a neighbor within radius
// (0 means 1) with probability prob per ACT. seed seeds its coin flips.
func NewPARA(prob float64, radius int, seed uint64) (*PARA, error) {
	if prob < 0 || prob > 1 {
		return nil, fmt.Errorf("memctrl: PARA probability %g out of [0,1]", prob)
	}
	if radius == 0 {
		radius = 1
	}
	return &PARA{prob: prob, radius: radius, rng: sim.NewRNG(seed ^ 0x5bd1e995cafef00d)}, nil
}

// Admit implements Plugin: PARA never delays a request.
func (*PARA) Admit(Request, int, int, bool, uint64) uint64 { return 0 }

// OnACT implements Plugin: a neighbor refresh occupies the bank for tRC.
func (p *PARA) OnACT(c *Controller, bank, row int, _ uint64) (uint64, error) {
	if p.prob == 0 || !p.rng.Bool(p.prob) {
		return 0, nil
	}
	off := 1 + p.rng.Intn(p.radius)
	if p.rng.Bool(0.5) {
		off = -off
	}
	victim := row + off
	if !c.geom.ValidRow(victim) || !c.geom.SameSubarray(row, victim) {
		return 0, nil
	}
	if err := c.dram.RefreshRow(bank, victim); err != nil {
		return 0, err
	}
	c.stats.Inc("mc.para_refreshes")
	return c.timing.TRC, nil
}

// OnWindow implements Plugin (PARA keeps no window state).
func (*PARA) OnWindow() {}

// NextEvent implements Plugin (PARA never changes state on its own).
func (*PARA) NextEvent(uint64, uint64) uint64 { return ^uint64(0) }
