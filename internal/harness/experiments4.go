package harness

import (
	"context"
	"fmt"

	"hammertime/internal/addr"
	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/cpu"
	"hammertime/internal/defense"
	"hammertime/internal/dram"
	"hammertime/internal/ecc"
	"hammertime/internal/report"
)

// ECCOutcome classifies the cross-domain damage of one attack run on an
// ECC-protected module: every word of every victim-owned line that
// absorbed flips, bucketed by what the SECDED decode would deliver.
type ECCOutcome struct {
	RawFlips uint64
	// Word-level outcomes over cross-domain victim lines:
	Corrected uint64 // single flips repaired on read
	Detected  uint64 // uncorrectable: machine check (DoS)
	Silent    uint64 // multi-flip words that decode wrong — the bypass
}

// scanECC classifies flipped lines belonging to domains other than the
// attacker.
func scanECC(m *core.Machine, attacker int) (ECCOutcome, error) {
	out := ECCOutcome{RawFlips: m.Flips()}
	for _, la := range m.DRAM.FlippedLines() {
		line := m.Mapper.Unmap(addr.DDR{Bank: la.Bank, Row: la.Row, Column: la.Column})
		owner, ok := m.Kernel.OwnerOfLine(line)
		if !ok || owner == attacker {
			continue
		}
		classes, err := m.DRAM.ClassifyLine(la)
		if err != nil {
			return ECCOutcome{}, err
		}
		for _, c := range classes {
			switch c {
			case ecc.CorrectedOK:
				out.Corrected++
			case ecc.DetectedError:
				out.Detected++
			case ecc.SilentCorruption:
				out.Silent++
			}
		}
	}
	return out, nil
}

// E9ECC runs double-sided attacks of increasing intensity against an
// ECC-protected LPDDR4 module and tabulates the Cojocar et al. outcome
// hierarchy: light attacks are fully corrected, heavier ones trip
// machine checks (DoS), and sustained hammering produces words whose
// multi-bit flips silently bypass SECDED.
func E9ECC(ctx context.Context, horizons []uint64) (*report.Table, []ECCOutcome, error) {
	if len(horizons) == 0 {
		horizons = []uint64{2_000_000, 6_000_000, 16_000_000}
	}
	tb, run, err := experiment[ECCOutcome]{
		spec:  GridSpec{ID: "e9", Config: fmt.Sprintf("horizons=%v", horizons)},
		title: "E9: SECDED ECC outcomes under double-sided attack (LPDDR4)",
		headers: []string{"config", "horizon (cycles)", "raw flips", "words corrected",
			"words detected (DoS)", "words silent-corrupt"},
		rows: 2 * len(horizons), cols: 1, // odd cells add the patrol scrubber
		label: func(r int) (lead, tail []any) {
			return []any{[]string{"ecc", "ecc+scrub"}[r%2], horizons[r/2]}, nil
		},
		cell: func(ctx context.Context, i int) (ECCOutcome, error) {
			return runE9(ctx, horizons[i/2], i%2 == 1)
		},
		render: func(run *GridRun[ECCOutcome], i int) []any {
			out := run.Results[i]
			return []any{out.RawFlips, out.Corrected, out.Detected, out.Silent}
		},
	}.table(ctx)
	if err != nil {
		return nil, nil, err
	}
	return tb, run.Results, nil
}

func runE9(ctx context.Context, h uint64, scrub bool) (ECCOutcome, error) {
	spec := E1Spec()
	var d core.Defense = defense.ECC{}
	if scrub {
		// A fast patrol (full pass ~8M cycles) so the scrubber gets
		// several passes within the attack window.
		d = &defense.ECCScrub{Interval: 25_000, LinesPerPass: 100}
	}
	m, err := core.BuildWithDefense(spec, d)
	if err != nil {
		return ECCOutcome{}, err
	}
	defer m.Release()
	tenants, err := SetupTenants(m, 3, 170)
	if err != nil {
		return ECCOutcome{}, err
	}
	defer ReleaseTenants(tenants)
	// Victims fill their memory with real data so corruption is
	// measured against known ground truth.
	if err := fillTenantData(m, tenants[1:]); err != nil {
		return ECCOutcome{}, err
	}
	attacker := tenants[0].Domain.ID
	plan, err := attack.PlanDoubleSided(m.Kernel, m.Mapper, attacker, 1, spec.Profile.BlastRadius)
	if err != nil {
		return ECCOutcome{}, err
	}
	prog, err := attack.HammerVA(m.Kernel, attacker, plan, 1<<30, true)
	if err != nil {
		return ECCOutcome{}, err
	}
	c, err := cpu.NewCore(0, attacker, prog, m.Cache, m.MC)
	if err != nil {
		return ECCOutcome{}, err
	}
	if _, err := runMachine(ctx, m, []core.Agent{c}, h); err != nil {
		return ECCOutcome{}, err
	}
	return scanECC(m, attacker)
}

// fillTenantData writes a recognizable pattern into every line of the
// given tenants (ground truth for ECC classification).
func fillTenantData(m *core.Machine, tenants []Tenant) error {
	g := m.Mapper.Geometry()
	buf := make([]byte, g.LineBytes)
	for i := range buf {
		buf[i] = byte(0x5a ^ i)
	}
	for _, t := range tenants {
		for i := range t.Lines.Len() {
			d := m.Mapper.Map(t.Lines.At(i))
			if err := m.DRAM.WriteLine(dram.LineAddr{Bank: d.Bank, Row: d.Row, Column: d.Column}, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// E10HalfDouble contrasts the two ways an in-DRAM mitigation can refresh
// victims — internal recharge vs. real activations — on a radius-1
// module. Activate-based cures relay the attacker's pressure one row
// further: flips appear beyond the module's native blast radius, caused
// by the mitigation itself (Google's Half-Double). The experiment uses a
// hypothetical dense radius-1 part so the relay converges in simulation
// time; the mechanism, not the MAC, is the subject.
func E10HalfDouble(ctx context.Context, horizon uint64) (*report.Table, error) {
	if horizon == 0 {
		horizon = 24_000_000
	}
	prof := dram.DisturbanceProfile{
		Name: "dense-r1", MAC: 1000, BlastRadius: 1, DistanceDecay: 0.5, FlipProb: 0.01,
	}
	type e10Row struct {
		Mitigations uint64 `json:"mitigations"`
		Within      uint64 `json:"within"`
		Relayed     uint64 `json:"relayed"`
	}
	tb, _, err := experiment[e10Row]{
		spec:  GridSpec{ID: "e10", Config: fmt.Sprintf("horizon=%d", horizon)},
		title: "E10: Half-Double relay through mitigation activations (radius-1 module)",
		headers: []string{"TRR cure mechanism", "mitigations", "flips within radius",
			"flips beyond radius (relayed)"},
		rows: 2, cols: 1, // cell 1 cures with real activations
		label: func(r int) (lead, tail []any) {
			return []any{[]string{"internal recharge", "activate-based"}[r]}, nil
		},
		cell: func(ctx context.Context, i int) (e10Row, error) {
			cureACT := i == 1
			spec := core.DefaultSpec()
			spec.Profile = prof
			trr := dram.DefaultTRR()
			trr.CureWithACT = cureACT
			spec.TRR = &trr
			m, err := core.NewMachine(spec)
			if err != nil {
				return e10Row{}, err
			}
			defer m.Release()
			tenants, err := SetupTenants(m, 3, 170)
			if err != nil {
				return e10Row{}, err
			}
			defer ReleaseTenants(tenants)
			attacker := tenants[0].Domain.ID
			plan, err := attack.PlanSingleSided(m.Kernel, m.Mapper, attacker, 1, 1)
			if err != nil {
				return e10Row{}, err
			}
			prog, err := attack.HammerVA(m.Kernel, attacker, plan, 1<<30, true)
			if err != nil {
				return e10Row{}, err
			}
			c, err := cpu.NewCore(0, attacker, prog, m.Cache, m.MC)
			if err != nil {
				return e10Row{}, err
			}
			if _, err := runMachine(ctx, m, []core.Agent{c}, horizon); err != nil {
				return e10Row{}, err
			}
			return e10Row{
				Mitigations: m.DRAM.TRRStats(),
				Within:      m.Flips() - m.MitigationFlips(),
				Relayed:     m.MitigationFlips(),
			}, nil
		},
		render: func(run *GridRun[e10Row], i int) []any {
			r := run.Results[i]
			return []any{r.Mitigations, r.Within, r.Relayed}
		},
	}.table(ctx)
	return tb, err
}
