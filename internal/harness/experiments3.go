package harness

import (
	"context"
	"fmt"

	"hammertime/internal/core"
	"hammertime/internal/cpu"
	"hammertime/internal/memctrl"
	"hammertime/internal/report"
	"hammertime/internal/sim"
)

// E7Method names one way software can try to refresh a victim row (§4.3).
type E7Method string

const (
	// E7RefreshInstr is the paper's proposed host-privileged instruction.
	E7RefreshInstr E7Method = "refresh-instruction"
	// E7RefNeighbors is the optional DRAM-side REF_NEIGHBORS command.
	E7RefNeighbors E7Method = "ref-neighbors-cmd"
	// E7LoadPath is today's convoluted path: CLFLUSH + fence + load and
	// hope the load activates (and thereby recharges) the row.
	E7LoadPath E7Method = "clflush+load"
)

// E7Result is one measured cell of the refresh-path comparison.
type E7Result struct {
	Method E7Method
	// BankState describes the row buffer when the refresh was attempted.
	BankState string
	// Cycles is the end-to-end latency of the refresh attempt.
	Cycles uint64
	// ACTs and BusTransfers are the DRAM command/bus cost.
	ACTs         uint64
	BusTransfers uint64
	// Refreshed reports whether the victim row's disturbance was in fact
	// cleared — the precision half of the §4.3 argument.
	Refreshed bool
}

// E7RefreshPath compares the three refresh mechanisms in both bank states.
// The load path silently fails when the victim row is already open (a
// row-buffer hit recharges nothing the software can rely on and issues no
// ACT), and always costs a bus transfer and cache fill; the refresh
// instruction is unconditional and data-free.
func E7RefreshPath(ctx context.Context) (*report.Table, []E7Result, error) {
	methods := []E7Method{E7RefreshInstr, E7RefNeighbors, E7LoadPath}
	tb, run, err := experiment[E7Result]{
		spec:    GridSpec{ID: "e7", Config: "v1"},
		title:   "E7: targeted-refresh mechanisms (§4.3)",
		headers: []string{"method", "bank state", "cycles", "ACT cmds", "bus transfers", "victim refreshed"},
		rows:    2 * len(methods), cols: 1, // odd cells open the victim row
		label: func(r int) (lead, tail []any) {
			return []any{methods[r/2], e7BankState(r%2 == 1)}, nil
		},
		cell: func(ctx context.Context, i int) (E7Result, error) {
			method, victimOpen := methods[i/2], i%2 == 1
			r, err := runE7(ctx, method, victimOpen)
			if err != nil {
				return E7Result{}, fmt.Errorf("harness: E7 %s: %w", method, err)
			}
			return r, nil
		},
		render: func(run *GridRun[E7Result], i int) []any {
			r := run.Results[i]
			return []any{r.Cycles, r.ACTs, r.BusTransfers, r.Refreshed}
		},
	}.table(ctx)
	if err != nil {
		return nil, nil, err
	}
	return tb, run.Results, nil
}

// e7BankState names the row-buffer state a refresh is attempted in.
func e7BankState(victimOpen bool) string {
	if victimOpen {
		return "victim row open"
	}
	return "other row open"
}

// runE7 drives the controller directly, not through runMachine, so it
// counts its simulated events itself.
func runE7(ctx context.Context, method E7Method, victimOpen bool) (E7Result, error) {
	spec := core.DefaultSpec()
	m, err := core.NewMachine(spec)
	if err != nil {
		return E7Result{}, err
	}
	defer m.Release()
	tenants, err := SetupTenants(m, 1, 32)
	if err != nil {
		return E7Result{}, err
	}
	defer ReleaseTenants(tenants)
	domain := tenants[0].Domain.ID
	g := m.Mapper.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)

	// Disturb victim row 1 of bank 0 by alternating aggressor rows 0 and
	// 2 (lines 0 and 2*stripe) below the MAC.
	aggA, aggB := uint64(0), 2*stripe
	victimLine := stripe // row 1, bank 0, column 0
	now := uint64(0)
	for i := 0; i < 400; i++ {
		line := aggA
		if i%2 == 1 {
			line = aggB
		}
		res, err := m.MC.ServeRequest(memctrl.Request{Line: line, Domain: domain}, now)
		if err != nil {
			return E7Result{}, err
		}
		now = res.Completion
	}
	victimDDR := m.Mapper.Map(victimLine)
	if m.DRAM.Disturbance(victimDDR.Bank, victimDDR.Row) == 0 {
		return E7Result{}, fmt.Errorf("harness: E7 setup produced no disturbance")
	}

	// Arrange the bank state: open the victim row itself, or leave the
	// last aggressor row open.
	if victimOpen {
		// Read the victim line once; this activates (and recharges) row 1,
		// so re-disturb it afterwards while keeping it open... impossible —
		// activating another row would close it. Instead: open the victim
		// row first, then disturb cannot run. So emulate the §4.3 hazard
		// directly: open the victim row, then re-charge its disturbance via
		// neighbor ACTs in a DIFFERENT subarray? Disturbance only comes from
		// neighbors in the same bank, which would steal the row buffer.
		//
		// The physically consistent scenario: the victim row was opened by
		// a third party AFTER accumulating disturbance — which is exactly an
		// ACT and recharges it. The dangerous case on real hardware is a
		// row buffer hit on a row whose restore was interrupted; our model
		// conservatively represents it by re-seeding disturbance while the
		// row is open (the memory controller does not expose buffer state
		// to software, so software cannot tell the difference — §4.3).
		res, err := m.MC.ServeRequest(memctrl.Request{Line: victimLine, Domain: domain}, now)
		if err != nil {
			return E7Result{}, err
		}
		now = res.Completion
		m.DRAM.SeedDisturbance(victimDDR.Bank, victimDDR.Row, 400)
	}

	actsBefore := m.MC.Stats().Counter("mc.acts")
	reqBefore := m.MC.Stats().Counter("mc.requests")
	var start, completion uint64
	switch method {
	case E7RefreshInstr:
		res, err := m.MC.RefreshInstruction(victimLine, true, 0, now)
		if err != nil {
			return E7Result{}, err
		}
		start, completion = now, res.Completion
	case E7RefNeighbors:
		// Issued against the aggressor row; DRAM refreshes its victims.
		res, err := m.MC.RefreshNeighborsCmd(aggA, spec.Profile.BlastRadius, 0, now)
		if err != nil {
			return E7Result{}, err
		}
		start, completion = now, res.Completion
	case E7LoadPath:
		prog := cpu.ProgramFunc(func() (cpu.Access, bool) {
			return cpu.Access{Line: victimLine, Flush: true}, true
		})
		c, err := cpu.NewCore(0, 0, prog, m.Cache, m.MC)
		if err != nil {
			return E7Result{}, err
		}
		next, _, err := c.Step(now)
		if err != nil {
			return E7Result{}, err
		}
		start, completion = now, next
	default:
		return E7Result{}, fmt.Errorf("harness: unknown E7 method %q", method)
	}

	// E7 drives the controller directly (no m.Run), so verify the
	// invariant auditor's shadow state explicitly before reporting.
	if err := m.CheckInvariants(); err != nil {
		return E7Result{}, err
	}
	var stats sim.Stats
	stats.Merge(m.DRAM.Stats())
	stats.Merge(m.MC.Stats())
	countEvents(ctx, &stats)
	return E7Result{
		Method:       method,
		BankState:    e7BankState(victimOpen),
		Cycles:       completion - start,
		ACTs:         uint64(m.MC.Stats().Counter("mc.acts") - actsBefore),
		BusTransfers: uint64(m.MC.Stats().Counter("mc.requests") - reqBefore),
		Refreshed:    m.DRAM.Disturbance(victimDDR.Bank, victimDDR.Row) == 0,
	}, nil
}
