package harness

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"hammertime/internal/addr"
	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/cpu"
	"hammertime/internal/defense"
	"hammertime/internal/dram"
	"hammertime/internal/hostos"
	"hammertime/internal/memctrl"
	"hammertime/internal/report"
)

// E5TRRBypass sweeps the aggressor count of a many-sided attack against
// in-DRAM TRR trackers of different sizes — the TRRespass reproduction.
// Expected shape: a tracker with n entries stops attacks up to roughly n
// aggressors and is bypassed beyond; very large counts starve themselves
// of per-row ACT budget and stop flipping even undefended.
func E5TRRBypass(ctx context.Context, horizon uint64, sides []int, trackers []int) (*report.Table, error) {
	if horizon == 0 {
		horizon = 16_000_000
	}
	if len(sides) == 0 {
		sides = []int{1, 2, 4, 8, 12, 16, 24}
	}
	if len(trackers) == 0 {
		trackers = []int{4, 8, 16}
	}
	headers := []string{"aggressors", "flips(none)"}
	for _, n := range trackers {
		headers = append(headers, fmt.Sprintf("flips(trr n=%d)", n))
	}
	spec := core.DefaultSpec()
	spec.Profile = dram.DDR4Old()
	opts := AttackOpts{Horizon: horizon}
	nC := 1 + len(trackers) // columns per row: undefended + one per tracker size
	tb, _, err := experiment[string]{
		spec: GridSpec{
			ID:     "e5",
			Config: fmt.Sprintf("horizon=%d;sides=%v;trackers=%v", horizon, sides, trackers),
		},
		title:   "E5: TRRespass sweep, cross-domain flips vs aggressor count (DDR4-old)",
		headers: headers,
		rows:    len(sides), cols: nC,
		label: func(r int) (lead, tail []any) { return []any{sides[r]}, nil },
		cell: func(ctx context.Context, i int) (string, error) {
			k, ci := sides[i/nC], i%nC
			kind := attack.Kind{Name: fmt.Sprintf("many-sided(%d)", k), Sided: k}
			var d core.Defense = defense.None{}
			if ci > 0 {
				cfg := dram.DefaultTRR()
				cfg.TrackerEntries = trackers[ci-1]
				d = defense.TRR{Config: cfg}
			}
			out, err := RunAttackCtx(ctx, spec, d, kind, opts)
			if err != nil {
				return "", fmt.Errorf("harness: E5 %s/%d: %w", d.Name(), k, err)
			}
			return fmt.Sprint(out.CrossFlips), nil
		},
		render: func(run *GridRun[string], i int) []any { return []any{run.Results[i]} },
	}.table(ctx)
	return tb, err
}

// E6Mode is one configuration of the ACT-interrupt experiment.
type E6Mode struct {
	Name string
	// Precise reports the triggering address (the §4.2 primitive);
	// legacy mode reproduces today's address-less ACT_COUNT event.
	Precise bool
	// RandomReset jitters the counter reset value (§4.2 anti-evasion).
	RandomReset bool
}

// E6Result is one row of the ACT-interrupt experiment.
type E6Result struct {
	Mode           string
	Overflows      uint64
	AggressorFlags uint64
	FirstFlagCycle uint64
	CrossFlips     uint64
}

// E6ActInterrupt pits an evasive double-sided attacker against the three
// counter designs of §4.2. The attacker knows the overflow threshold and
// schedules a decoy activation on exactly every N-th ACT:
//
//   - legacy (no address): nothing to act on; the attack wins;
//   - precise + fixed reset: every overflow reports the decoy; the
//     attack wins;
//   - precise + randomized reset: overflow points are unpredictable, the
//     aggressor rows get reported and refreshed; the attack loses.
func E6ActInterrupt(ctx context.Context, horizon uint64) (*report.Table, []E6Result, error) {
	if horizon == 0 {
		horizon = 4_000_000
	}
	modes := []E6Mode{
		{Name: "legacy(no-addr)", Precise: false},
		{Name: "precise+fixed-reset", Precise: true},
		{Name: "precise+random-reset", Precise: true, RandomReset: true},
	}
	tb, run, err := experiment[E6Result]{
		spec:  GridSpec{ID: "e6", Config: fmt.Sprintf("horizon=%d", horizon)},
		title: "E6: precise ACT interrupt vs evasive attacker (LPDDR4)",
		headers: []string{"counter mode", "overflows", "aggressor flags", "first flag cycle",
			"cross flips", "attack"},
		rows: len(modes), cols: 1,
		label: func(r int) (lead, tail []any) { return []any{modes[r].Name}, nil },
		cell: func(ctx context.Context, i int) (E6Result, error) {
			res, err := runE6(ctx, modes[i], horizon)
			if err != nil {
				return E6Result{}, fmt.Errorf("harness: E6 %s: %w", modes[i].Name, err)
			}
			return res, nil
		},
		render: func(run *GridRun[E6Result], i int) []any {
			res := run.Results[i]
			outcome := "DEFEATED"
			if res.CrossFlips > 0 {
				outcome = "SUCCEEDS"
			}
			var first any = "-"
			if res.FirstFlagCycle > 0 {
				first = res.FirstFlagCycle
			}
			return []any{res.Overflows, res.AggressorFlags, first, res.CrossFlips, outcome}
		},
	}.table(ctx)
	if err != nil {
		return nil, nil, err
	}
	return tb, run.Results, nil
}

func runE6(ctx context.Context, mode E6Mode, horizon uint64) (E6Result, error) {
	spec := E1Spec()
	m, err := core.NewMachine(spec)
	if err != nil {
		return E6Result{}, err
	}
	defer m.Release()
	tenants, err := SetupTenants(m, 3, 170)
	if err != nil {
		return E6Result{}, err
	}
	defer ReleaseTenants(tenants)
	attacker := tenants[0].Domain.ID
	radius := spec.Profile.BlastRadius
	plan, err := attack.PlanDoubleSided(m.Kernel, m.Mapper, attacker, 1, radius)
	if err != nil {
		return E6Result{}, err
	}

	// The defense: a detector-driven neighbor refresh via the refresh
	// instruction, wired to the configured counter mode.
	threshold := spec.Profile.MAC / 16
	aggressorRows := make(map[[2]int]bool)
	for _, a := range plan.Aggressors {
		aggressorRows[[2]int{a.Bank, a.Row}] = true
	}
	res := E6Result{Mode: mode.Name}
	hits := make(map[[2]int]uint64)
	rng := m.RNG.Fork()
	geom := m.Mapper.Geometry()
	handler := func(ev memctrl.ACTEvent) uint64 {
		res.Overflows++
		reset := uint64(0)
		if mode.RandomReset {
			reset = rng.Uint64n(threshold / 2)
		}
		if !ev.HasAddr {
			return reset
		}
		key := [2]int{ev.Bank, ev.Row}
		hits[key]++
		if hits[key] < 4 {
			return reset
		}
		delete(hits, key)
		if aggressorRows[key] {
			res.AggressorFlags++
			if res.FirstFlagCycle == 0 {
				res.FirstFlagCycle = ev.Cycle
			}
		}
		for dist := 1; dist <= radius; dist++ {
			for _, victim := range [2]int{ev.Row - dist, ev.Row + dist} {
				if !geom.ValidRow(victim) || !geom.SameSubarray(ev.Row, victim) {
					continue
				}
				line := m.Mapper.Unmap(addr.DDR{Bank: ev.Bank, Row: victim})
				if _, err := m.Kernel.RefreshLine(line, true, ev.Cycle); err != nil {
					// Refresh failures here are simulator bugs.
					panic(err)
				}
			}
		}
		return reset
	}
	if err := m.MC.EnableACTCounter(mode.Precise, threshold, handler); err != nil {
		return E6Result{}, err
	}

	prog, err := evasiveHammer(m, attacker, plan, int(threshold))
	if err != nil {
		return E6Result{}, err
	}
	c, err := cpu.NewCore(0, attacker, prog, m.Cache, m.MC)
	if err != nil {
		return E6Result{}, err
	}
	if _, err := runMachine(ctx, m, []core.Agent{c}, horizon); err != nil {
		return E6Result{}, err
	}
	res.CrossFlips = m.CrossDomainFlips()
	return res, nil
}

// evasiveHammer hammers the plan's aggressors but schedules a decoy
// activation on exactly every period-th access, so a fixed-threshold
// counter always overflows on a decoy. The decoys rotate over a large
// pool of rows in a bank the attack does not otherwise touch, so no
// decoy row ever accumulates enough evidence to be flagged (which would
// trigger defender refreshes and de-align the counter).
func evasiveHammer(m *core.Machine, domain int, plan attack.Plan, period int) (cpu.Program, error) {
	if period < 2 {
		return nil, fmt.Errorf("harness: evasive hammer needs period >= 2")
	}
	decoys, err := decoyLines(m, domain, plan, 64)
	if err != nil {
		return nil, err
	}
	i := 0
	di := 0
	ai := 0
	return cpu.ProgramFunc(func() (cpu.Access, bool) {
		i++
		if i%period == 0 {
			line := decoys[di%len(decoys)]
			di++
			return cpu.Access{Line: line, Flush: true}, true
		}
		// A dedicated aggressor index keeps strict row alternation across
		// decoy insertions: repeating a row would produce a row-buffer hit
		// (no ACT) and silently desynchronize the attacker's counter model.
		va := plan.AggressorVAs[ai%len(plan.AggressorVAs)]
		ai++
		line, err := m.Kernel.Translate(domain, va)
		if err != nil {
			return cpu.Access{}, false
		}
		return cpu.Access{Line: line, Flush: true}, true
	}), nil
}

// decoyLines picks up to n attacker-owned lines in distinct rows of one
// bank the plan does not hammer, so consecutive decoy accesses conflict
// in the row buffer and always activate. Each row is represented by its
// lowest owned line; the bank with the most such rows wins, the lowest
// bank on ties.
func decoyLines(m *core.Machine, domain int, plan attack.Plan, n int) ([]uint64, error) {
	g := m.Mapper.Geometry()
	avoid := make([]bool, g.Banks)
	for _, a := range plan.Aggressors {
		avoid[a.Bank] = true
	}
	lpp := hostos.LinesPerPage(g)
	var rows []addr.RowLine
	m.Kernel.EachPage(func(owner int, frame uint64) {
		if owner == domain {
			rows = addr.AppendRows(rows, m.Mapper, frame*lpp, lpp)
		}
	})
	rows = slices.DeleteFunc(rows, func(r addr.RowLine) bool { return avoid[r.Bank] })
	slices.SortFunc(rows, func(a, b addr.RowLine) int {
		return cmp.Or(cmp.Compare(a.Bank, b.Bank), cmp.Compare(a.Row, b.Row), cmp.Compare(a.Line, b.Line))
	})
	rows = slices.CompactFunc(rows, func(a, b addr.RowLine) bool { return a.Bank == b.Bank && a.Row == b.Row })
	var best []addr.RowLine
	for len(rows) > 0 {
		k := 1
		for k < len(rows) && rows[k].Bank == rows[0].Bank {
			k++
		}
		if k > len(best) {
			best = rows[:k]
		}
		rows = rows[k:]
	}
	if len(best) < 2 {
		return nil, fmt.Errorf("harness: no decoy rows available")
	}
	lines := make([]uint64, len(best))
	for i, r := range best {
		lines[i] = r.Line
	}
	slices.Sort(lines)
	return lines[:min(n, len(lines))], nil
}

// E8Enclave contrasts the §4.4 enclave outcomes: the same double-sided
// attack silently corrupts a normal victim, but merely denies service
// (machine lockup) when the victim's memory is integrity-checked.
func E8Enclave(ctx context.Context, horizon uint64) (*report.Table, error) {
	if horizon == 0 {
		horizon = 4_000_000
	}
	tb, _, err := experiment[e8Cell]{
		spec:    GridSpec{ID: "e8", Config: fmt.Sprintf("horizon=%d", horizon)},
		title:   "E8: enclave integrity semantics under attack (LPDDR4, no defense)",
		headers: []string{"victim memory", "cross flips", "machine locked up", "outcome"},
		rows:    2, cols: 1, // cell 1 checks the victims' integrity
		label: func(r int) (lead, tail []any) {
			return []any{[]string{"plain", "integrity-checked enclave"}[r]}, nil
		},
		cell: func(ctx context.Context, i int) (e8Cell, error) {
			out, err := RunAttackCtx(ctx, E1Spec(), defense.None{}, attack.Kind{Name: "double-sided", Sided: 2},
				AttackOpts{Horizon: horizon, VictimIntegrity: i == 1})
			if err != nil {
				return e8Cell{}, fmt.Errorf("harness: E8 integrity=%v: %w", i == 1, err)
			}
			return e8Cell{CrossFlips: out.CrossFlips, LockedUp: out.LockedUp}, nil
		},
		render: func(run *GridRun[e8Cell], i int) []any {
			out := run.Results[i]
			outcome := "silent cross-domain corruption"
			if i == 1 {
				outcome = "detected: denial of service only"
				if !out.LockedUp {
					outcome = "UNEXPECTED: no lockup"
				}
			}
			return []any{out.CrossFlips, out.LockedUp, outcome}
		},
	}.table(ctx)
	return tb, err
}

// e8Cell is E8's checkpointable cell result.
type e8Cell struct {
	CrossFlips uint64 `json:"cross_flips"`
	LockedUp   bool   `json:"locked_up"`
}
