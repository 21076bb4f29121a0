package harness

import (
	"context"
	"fmt"

	"hammertime/internal/core"
	"hammertime/internal/defense"
	"hammertime/internal/memctrl"
	"hammertime/internal/report"
	"hammertime/internal/telemetry"
)

// IdleDefenses is the defense grid of the idle fast-forward experiment:
// the undefended baseline plus one representative of each defense shape
// that contributes to the controller event horizon (admission throttle,
// sampling daemon, in-DRAM tracker, counter table with window resets).
var IdleDefenses = []string{"none", "blockhammer", "anvil", "trr", "graphene"}

// idleCell is one defense's outcome on the idle-heavy workload.
type idleCell struct {
	Steps uint64
	Acts  int64
	Refs  int64
	Flips uint64
}

// idleBurstAgent hammers a double-sided pair for a fixed number of
// accesses, then goes idle for the remainder of the horizon. The long
// quiet tail is the point: almost all simulated time passes with no
// agent scheduled, which is what the controller's refresh fast-forward
// and the next-event scheduler accelerate.
type idleBurstAgent struct {
	mc        *memctrl.Controller
	line      uint64
	stripe    uint64
	remaining int
	i         int
}

func (a *idleBurstAgent) Done() bool { return a.remaining == 0 }

func (a *idleBurstAgent) Step(now uint64) (uint64, bool, error) {
	if a.remaining == 0 {
		return 0, false, nil
	}
	a.remaining--
	line := a.line + uint64(a.i%2)*2*a.stripe
	a.i++
	res, err := a.mc.ServeRequest(memctrl.Request{Line: line, Domain: 0}, now)
	if err != nil {
		return 0, false, err
	}
	return res.Completion, true, nil
}

// IdleFastForward runs the idle-heavy grid: per defense, a short hammer
// burst followed by a long quiet tail to the horizon. The table reports
// the deterministic simulation outcomes (identical with the fast-forward
// on or off — see TestDefendedIdleFastForwardEquivalence); wall-clock
// throughput lands in the BENCH_harness.json report via the Run's
// BenchCollector, which records simulated events/sec per cell. horizon 0
// means 400_000_000 cycles (~5 refresh windows of idle tail).
func IdleFastForward(ctx context.Context, horizon uint64) (*report.Table, error) {
	if horizon == 0 {
		horizon = 400_000_000
	}
	tb := report.NewTable("IDLE: idle-heavy runs through the event-driven core",
		"defense", "steps", "acts", "refs", "flips")
	run := runGrid(ctx, GridSpec{
		ID:     "idle",
		Config: fmt.Sprintf("horizon=%d;defenses=%v", horizon, IdleDefenses),
	}, len(IdleDefenses), func(ctx context.Context, i int) (idleCell, error) {
		d, err := defense.New(IdleDefenses[i])
		if err != nil {
			return idleCell{}, err
		}
		m, err := core.BuildWithDefense(core.DefaultSpec(), d)
		if err != nil {
			return idleCell{}, err
		}
		defer m.Release()
		geom := m.Spec.Geometry
		stripe := uint64(geom.ColumnsPerRow) * uint64(geom.Banks)
		agent := &idleBurstAgent{mc: m.MC, line: 512 * stripe, stripe: stripe, remaining: 4000}
		res, err := m.RunCtx(ctx, []core.Agent{agent}, horizon)
		if err != nil {
			return idleCell{}, fmt.Errorf("harness: idle %s: %w", IdleDefenses[i], err)
		}
		events := uint64(res.Stats.Counter("mc.requests") +
			res.Stats.Counter("dram.act") + res.Stats.Counter("dram.ref"))
		if c := RunFrom(ctx).Bench; c != nil {
			c.addEvents(events)
		}
		telemetry.CountEvents(ctx, events)
		return idleCell{
			Steps: res.Steps[0],
			Acts:  res.Stats.Counter("dram.act"),
			Refs:  res.Stats.Counter("mc.ref"),
			Flips: res.Flips,
		}, nil
	})
	if err := run.Err(); err != nil {
		return nil, err
	}
	for i, name := range IdleDefenses {
		if ce := run.Failed(i); ce != nil {
			tb.AddRow(name, report.ErrCellN(ce.Reason(), ce.Attempts), "-", "-", "-")
			continue
		}
		c := run.Results[i]
		tb.AddRow(name,
			fmt.Sprintf("%d", c.Steps),
			fmt.Sprintf("%d", c.Acts),
			fmt.Sprintf("%d", c.Refs),
			fmt.Sprintf("%d", c.Flips))
	}
	return tb, nil
}
