package harness

import (
	"context"
	"fmt"
	"sort"

	"hammertime/internal/addr"
	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/cpu"
	"hammertime/internal/defense"
	"hammertime/internal/dram"
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
	tb := report.NewTable("E5: TRRespass sweep, cross-domain flips vs aggressor count (DDR4-old)", headers...)
	spec := core.DefaultSpec()
	spec.Profile = dram.DDR4Old()
	opts := AttackOpts{Horizon: horizon}
	nC := 1 + len(trackers) // columns per row: undefended + one per tracker size
	run := runGrid(ctx, GridSpec{
		ID:     "e5",
		Config: fmt.Sprintf("horizon=%d;sides=%v;trackers=%v", horizon, sides, trackers),
	}, len(sides)*nC, func(ctx context.Context, i int) (string, error) {
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
	})
	if err := run.Err(); err != nil {
		return nil, err
	}
	for si, k := range sides {
		row := []string{fmt.Sprint(k)}
		for ci := 0; ci < nC; ci++ {
			row = append(row, run.Cell(si*nC+ci, func(s string) string { return s }))
		}
		tb.AddRow(row...)
	}
	return tb, nil
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
	tb := report.NewTable("E6: precise ACT interrupt vs evasive attacker (LPDDR4)",
		"counter mode", "overflows", "aggressor flags", "first flag cycle", "cross flips", "attack")
	run := runGrid(ctx, GridSpec{ID: "e6", Config: fmt.Sprintf("horizon=%d", horizon)},
		len(modes), func(ctx context.Context, i int) (E6Result, error) {
			res, err := runE6(ctx, modes[i], horizon)
			if err != nil {
				return E6Result{}, fmt.Errorf("harness: E6 %s: %w", modes[i].Name, err)
			}
			return res, nil
		})
	if err := run.Err(); err != nil {
		return nil, nil, err
	}
	results := run.Results
	for i, res := range results {
		if ce := run.Failed(i); ce != nil {
			errCell := report.ErrCellN(ce.Reason(), ce.Attempts)
			tb.AddRow(modes[i].Name, errCell, errCell, "-", errCell, "-")
			continue
		}
		outcome := "DEFEATED"
		if res.CrossFlips > 0 {
			outcome = "SUCCEEDS"
		}
		first := "-"
		if res.FirstFlagCycle > 0 {
			first = fmt.Sprint(res.FirstFlagCycle)
		}
		tb.AddRow(res.Mode, fmt.Sprint(res.Overflows), fmt.Sprint(res.AggressorFlags),
			first, fmt.Sprint(res.CrossFlips), outcome)
	}
	return tb, results, nil
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
				line := m.Mapper.Unmap(addrDDR(ev.Bank, victim))
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
// in the row buffer and always activate.
func decoyLines(m *core.Machine, domain int, plan attack.Plan, n int) ([]uint64, error) {
	avoid := make(map[int]bool)
	for _, a := range plan.Aggressors {
		avoid[a.Bank] = true
	}
	g := m.Mapper.Geometry()
	rows := make(map[[2]int]uint64)
	lpp := uint64(4096 / g.LineBytes)
	totalFrames := g.TotalBytes() / 4096
	for frame := uint64(0); frame < totalFrames; frame++ {
		owner, ok := m.Kernel.OwnerOfLine(frame * lpp)
		if !ok || owner != domain {
			continue
		}
		for l := uint64(0); l < lpp; l++ {
			line := frame*lpp + l
			d := m.Mapper.Map(line)
			if avoid[d.Bank] {
				continue
			}
			key := [2]int{d.Bank, d.Row}
			if _, have := rows[key]; !have {
				rows[key] = line
			}
		}
	}
	// Pick the bank with the most candidate rows, deterministically.
	byBank := make(map[int][]uint64)
	for key, line := range rows {
		byBank[key[0]] = append(byBank[key[0]], line)
	}
	bestBank, best := -1, 0
	for b, lines := range byBank {
		if len(lines) > best || (len(lines) == best && (bestBank == -1 || b < bestBank)) {
			bestBank, best = b, len(lines)
		}
	}
	if best < 2 {
		return nil, fmt.Errorf("harness: no decoy rows available")
	}
	lines := byBank[bestBank]
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	if len(lines) > n {
		lines = lines[:n]
	}
	return lines, nil
}

// addrDDR builds a column-0 DDR address for a bank-local row.
func addrDDR(bank, row int) addr.DDR { return addr.DDR{Bank: bank, Row: row} }

// E8Enclave contrasts the §4.4 enclave outcomes: the same double-sided
// attack silently corrupts a normal victim, but merely denies service
// (machine lockup) when the victim's memory is integrity-checked.
func E8Enclave(ctx context.Context, horizon uint64) (*report.Table, error) {
	if horizon == 0 {
		horizon = 4_000_000
	}
	tb := report.NewTable("E8: enclave integrity semantics under attack (LPDDR4, no defense)",
		"victim memory", "cross flips", "machine locked up", "outcome")
	run := runGrid(ctx, GridSpec{ID: "e8", Config: fmt.Sprintf("horizon=%d", horizon)},
		2, func(ctx context.Context, i int) (e8Cell, error) {
			out, err := RunAttackCtx(ctx, E1Spec(), defense.None{}, attack.Kind{Name: "double-sided", Sided: 2},
				AttackOpts{Horizon: horizon, VictimIntegrity: i == 1})
			if err != nil {
				return e8Cell{}, fmt.Errorf("harness: E8 integrity=%v: %w", i == 1, err)
			}
			return e8Cell{CrossFlips: out.CrossFlips, LockedUp: out.LockedUp}, nil
		})
	if err := run.Err(); err != nil {
		return nil, err
	}
	for i, integrity := range []bool{false, true} {
		label := "plain"
		if integrity {
			label = "integrity-checked enclave"
		}
		if ce := run.Failed(i); ce != nil {
			errCell := report.ErrCellN(ce.Reason(), ce.Attempts)
			tb.AddRow(label, errCell, errCell, "-")
			continue
		}
		out := run.Results[i]
		outcome := "silent cross-domain corruption"
		if integrity {
			outcome = "detected: denial of service only"
			if !out.LockedUp {
				outcome = "UNEXPECTED: no lockup"
			}
		}
		tb.AddRow(label, fmt.Sprint(out.CrossFlips), fmt.Sprint(out.LockedUp), outcome)
	}
	return tb, nil
}

// e8Cell is E8's checkpointable cell result.
type e8Cell struct {
	CrossFlips uint64 `json:"cross_flips"`
	LockedUp   bool   `json:"locked_up"`
}
