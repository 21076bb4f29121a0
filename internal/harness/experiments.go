package harness

import (
	"context"
	"fmt"
	"strings"

	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/cpu"
	"hammertime/internal/defense"
	"hammertime/internal/dram"
	"hammertime/internal/memctrl"
	"hammertime/internal/report"
	"hammertime/internal/workload"
)

// E1Defenses is the defense lineup of the protection matrix.
var E1Defenses = []string{
	"none", "trr", "para", "graphene", "blockhammer",
	"zebram", "bankpart", "subarray",
	"actremap", "actlock", "swrefresh", "anvil",
}

// E1Spec returns the machine configuration of the protection matrix: an
// LPDDR4-class module, the emerging-DRAM regime §3 is worried about.
func E1Spec() core.MachineSpec {
	spec := core.DefaultSpec()
	spec.Profile = dram.LPDDR4()
	return spec
}

// E1Matrix runs every attack in the catalog against every named defense
// and tabulates cross-domain flips — the reproduction of Table 1's claim
// that each primitive enables a working defense of its class. The
// (defense, attack) cells are independent simulations and run on the
// worker pool (Run.Workers); each cell constructs its own defense
// instance because several defenses are stateful software daemons.
func E1Matrix(ctx context.Context, defenses []string, manySided int, opts AttackOpts) (*report.Table, error) {
	if len(defenses) == 0 {
		defenses = E1Defenses
	}
	attacks := attack.Catalog(manySided)
	headers := []string{"defense", "class"}
	for _, a := range attacks {
		headers = append(headers, a.Name)
	}
	tb := report.NewTable("E1: cross-domain flips, attack x defense (LPDDR4)", headers...)
	nA := len(attacks)
	spec := GridSpec{
		ID:     "e1",
		Config: fmt.Sprintf("defenses=%s;sided=%d;%s", strings.Join(defenses, ","), manySided, opts.configString()),
	}
	run := runGrid(ctx, spec, len(defenses)*nA, func(ctx context.Context, i int) (string, error) {
		name, kind := defenses[i/nA], attacks[i%nA]
		d, err := defense.New(name)
		if err != nil {
			return "", err
		}
		out, err := RunAttackCtx(ctx, E1Spec(), d, kind, opts)
		if err != nil {
			return "", fmt.Errorf("harness: E1 %s vs %s: %w", name, kind.Name, err)
		}
		cell := fmt.Sprintf("%d", out.CrossFlips)
		if !out.PlannedCross {
			cell += " (no targets)"
		}
		return cell, nil
	})
	if err := run.Err(); err != nil {
		return nil, err
	}
	for di, name := range defenses {
		d, err := defense.New(name)
		if err != nil {
			return nil, err
		}
		row := []string{d.Name(), d.Class().String()}
		for ai := range attacks {
			row = append(row, run.Cell(di*nA+ai, func(s string) string { return s }))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// E2Scheme is one interleaving configuration of experiment E2.
type E2Scheme struct {
	Name string
	Spec core.MachineSpec
}

// E2Schemes returns the three §4.1 contenders plus the no-interleaving
// strawman.
func E2Schemes() []E2Scheme {
	full := core.DefaultSpec()

	noInter := core.DefaultSpec()
	noInter.Interleave = core.InterleaveRowRegion

	bankPart := core.DefaultSpec()
	bankPart.Interleave = core.InterleaveRowRegion
	bankPart.Alloc = core.AllocBankAware
	bankPart.BankPartitions = 4

	sub := core.DefaultSpec()
	sub.SubarrayGroups = 4
	sub.Alloc = core.AllocSubarrayAware
	sub.EnforceDomains = true

	return []E2Scheme{
		{Name: "line-interleave", Spec: full},
		{Name: "no-interleave", Spec: noInter},
		{Name: "bank-partition(4)", Spec: bankPart},
		{Name: "subarray-isolated(4)", Spec: sub},
	}
}

// E2Result is one measured cell of the interleaving experiment.
type E2Result struct {
	Scheme   string
	Workload string
	Accesses uint64
	// LossVsInterleave is the throughput loss relative to full
	// line interleaving, in percent.
	LossVsInterleave float64
}

// E2Interleaving measures single-tenant memory throughput (an MLP-8 core,
// the case where bank-level parallelism matters) under each interleaving
// scheme. The paper's §4.1 claim: disabling interleaving for bank-aware
// isolation costs double-digit percent (Tang et al. measured >18%), while
// subarray-isolated interleaving keeps the full-interleave throughput.
func E2Interleaving(ctx context.Context, horizon uint64) (*report.Table, []E2Result, error) {
	if horizon == 0 {
		horizon = 2_000_000
	}
	workloads := []string{"stream", "random"}
	tb := report.NewTable("E2: single-tenant throughput by interleaving scheme (MLP-8 core)",
		"scheme", "workload", "accesses", "loss-vs-interleave%")
	schemes := E2Schemes()
	nW := len(workloads)
	run := runGrid(ctx, GridSpec{ID: "e2", Config: fmt.Sprintf("horizon=%d", horizon)},
		len(schemes)*nW, func(ctx context.Context, i int) (uint64, error) {
			scheme, wl := schemes[i/nW], workloads[i%nW]
			m, err := core.NewMachine(scheme.Spec)
			if err != nil {
				return 0, fmt.Errorf("harness: E2 %s: %w", scheme.Name, err)
			}
			defer m.Release()
			// The working set must exceed the LLC (2 MiB) or the cache
			// absorbs the stream and no scheme differs.
			tenants, err := SetupTenants(m, 1, 768)
			if err != nil {
				return 0, err
			}
			defer ReleaseTenants(tenants)
			var prog cpu.Program
			switch wl {
			case "stream":
				prog, err = workload.Stream(tenants[0].Lines, 1<<30, 0)
			case "random":
				prog, err = workload.Random(tenants[0].Lines, 1<<30, 0, 0.2, m.RNG.Fork())
			}
			if err != nil {
				return 0, err
			}
			c, err := cpu.NewCore(0, tenants[0].Domain.ID, prog, m.Cache, m.MC)
			if err != nil {
				return 0, err
			}
			c.MLP = 8
			if _, err := runMachine(ctx, m, []core.Agent{c}, horizon); err != nil {
				return 0, err
			}
			return c.Counters().Accesses, nil
		})
	if err := run.Err(); err != nil {
		return nil, nil, err
	}
	// Loss is relative to the line-interleave scheme, which is cell row 0.
	// A failed cell degrades to an ERR() placeholder; a failed baseline
	// additionally blanks the loss column of its workload.
	var results []E2Result
	for si, scheme := range schemes {
		for wi, wl := range workloads {
			i := si*nW + wi
			if ce := run.Failed(i); ce != nil {
				tb.AddRow(scheme.Name, wl, report.ErrCellN(ce.Reason(), ce.Attempts), "-")
				continue
			}
			acc := run.Results[i]
			if scheme.Name != "line-interleave" && run.Failed(wi) != nil {
				tb.AddRowf(scheme.Name, wl, acc, "-")
				continue
			}
			loss := 0.0
			if base := run.Results[wi]; scheme.Name != "line-interleave" && base > 0 {
				loss = 100 * (1 - float64(acc)/float64(base))
			}
			results = append(results, E2Result{
				Scheme: scheme.Name, Workload: wl, Accesses: acc, LossVsInterleave: loss,
			})
			tb.AddRowf(scheme.Name, wl, acc, loss)
		}
	}
	return tb, results, nil
}

// E3DensityScaling reproduces the §3 trend across DRAM generations: the
// undefended flip count explodes as the MAC shrinks and the blast radius
// grows, vendor-style TRR keeps losing ground, the SRAM a Graphene-class
// tracker needs keeps growing — while the software defense built on the
// paper's primitives holds at constant hardware cost.
func E3DensityScaling(ctx context.Context, horizon uint64) (*report.Table, error) {
	if horizon == 0 {
		horizon = 16_000_000
	}
	tb := report.NewTable("E3: density scaling across DRAM generations",
		"generation", "MAC", "blast", "flips(none)", "flips(trr)", "flips(swrefresh)",
		"graphene-entries/bank")
	opts := AttackOpts{Horizon: horizon}
	kind := attack.Kind{Name: "double-sided", Sided: 2}
	gens := dram.Generations()
	names := []string{"none", "trr", "swrefresh"}
	run := runGrid(ctx, GridSpec{ID: "e3", Config: fmt.Sprintf("horizon=%d", horizon)},
		len(gens)*len(names), func(ctx context.Context, i int) (uint64, error) {
			prof, name := gens[i/len(names)], names[i%len(names)]
			spec := core.DefaultSpec()
			spec.Profile = prof
			d, err := defense.New(name)
			if err != nil {
				return 0, err
			}
			out, err := RunAttackCtx(ctx, spec, d, kind, opts)
			if err != nil {
				return 0, fmt.Errorf("harness: E3 %s/%s: %w", prof.Name, name, err)
			}
			return out.CrossFlips, nil
		})
	if err := run.Err(); err != nil {
		return nil, err
	}
	flipCell := func(i int) string { return run.Cell(i, func(v uint64) string { return fmt.Sprint(v) }) }
	for gi, prof := range gens {
		spec := core.DefaultSpec()
		spec.Profile = prof
		entries := memctrl.RequiredEntries(spec.Timing.MaxActsPerWindowPerBank(), prof.MAC/4)
		base := gi * len(names)
		tb.AddRowf(prof.Name, prof.MAC, prof.BlastRadius,
			flipCell(base), flipCell(base+1), flipCell(base+2), entries)
	}
	return tb, nil
}

// E4Defenses is the overhead lineup: the PARA probability sweep shows the
// §3 scaling pain (protection at small MACs costs throughput), the rest
// are the E1 defenses under purely benign load.
var E4Defenses = []string{
	"none", "para", "graphene", "blockhammer", "zebram", "bankpart",
	"subarray", "actremap", "actlock", "swrefresh", "anvil", "trr",
	"refreshx2", "refreshx4", "ecc-scrub",
}

// E4Overhead measures benign multi-tenant slowdown per defense: three
// tenants run a stream+random mix with no attacker; the metric is total
// completed accesses relative to the undefended machine.
func E4Overhead(ctx context.Context, horizon uint64, paraProbs []float64) (*report.Table, error) {
	if horizon == 0 {
		horizon = 2_000_000
	}
	if len(paraProbs) == 0 {
		paraProbs = []float64{0.0005, 0.001, 0.005, 0.02}
	}
	// Each cell builds a fresh defense instance (several are stateful
	// daemons), so entries carry factories rather than shared instances.
	type entry struct {
		name string
		mk   func() (core.Defense, error)
	}
	var entries []entry
	for _, name := range E4Defenses {
		if name == "para" {
			for _, p := range paraProbs {
				p := p
				entries = append(entries, entry{
					name: fmt.Sprintf("para(p=%g)", p),
					mk:   func() (core.Defense, error) { return defense.PARA{Prob: p}, nil },
				})
			}
			continue
		}
		name := name
		d, err := defense.New(name)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{name: d.Name(), mk: func() (core.Defense, error) { return defense.New(name) }})
	}

	tb := report.NewTable("E4: benign multi-tenant overhead by defense",
		"defense", "accesses", "slowdown%", "DRAM nJ/access")
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.name
	}
	run := runGrid(ctx, GridSpec{
		ID:     "e4",
		Config: fmt.Sprintf("horizon=%d;defenses=%s;probs=%v", horizon, strings.Join(names, ","), paraProbs),
	}, len(entries), func(ctx context.Context, i int) (e4Cell, error) {
		d, err := entries[i].mk()
		if err != nil {
			return e4Cell{}, err
		}
		cell, _, err := runBenign(ctx, d, horizon)
		if err != nil {
			return e4Cell{}, fmt.Errorf("harness: E4 %s: %w", entries[i].name, err)
		}
		return cell, nil
	})
	if err := run.Err(); err != nil {
		return nil, err
	}
	// Slowdown is relative to the undefended "none" entry, always first;
	// if that baseline cell failed, the slowdown column degrades too.
	var baseline uint64
	for i, e := range entries {
		if ce := run.Failed(i); ce != nil {
			tb.AddRow(e.name, report.ErrCellN(ce.Reason(), ce.Attempts), "-", "-")
			continue
		}
		acc := run.Results[i].Accesses
		slowdown := 0.0
		if e.name == "none" {
			baseline = acc
		}
		perAccess := 0.0
		if acc > 0 {
			perAccess = run.Results[i].Energy / 1e3 / float64(acc)
		}
		if e.name != "none" && baseline == 0 {
			tb.AddRowf(e.name, acc, "-", perAccess)
			continue
		}
		if e.name != "none" {
			slowdown = 100 * (1 - float64(acc)/float64(baseline))
		}
		tb.AddRowf(e.name, acc, slowdown, perAccess)
	}
	return tb, nil
}

// e4Cell is E4's checkpointable cell result.
type e4Cell struct {
	Accesses uint64  `json:"accesses"`
	Energy   float64 `json:"energy"`
}

// runBenign runs three benign tenants (stream + random mix, MLP 4) under
// the defense and returns their total completed accesses and DRAM energy,
// plus the run's result. The combined working set (3 x 2 MiB) exceeds the
// LLC so the memory system — where every defense lives — is actually
// exercised.
func runBenign(ctx context.Context, d core.Defense, horizon uint64) (e4Cell, core.RunResult, error) {
	fail := func(err error) (e4Cell, core.RunResult, error) { return e4Cell{}, core.RunResult{}, err }
	m, err := core.BuildWithDefense(core.DefaultSpec(), d)
	if err != nil {
		return fail(err)
	}
	defer m.Release()
	tenants, err := SetupTenants(m, 3, 512)
	if err != nil {
		return fail(err)
	}
	defer ReleaseTenants(tenants)
	var agents []core.Agent
	var cores []*cpu.Core
	for i, t := range tenants {
		st, err := workload.Stream(t.Lines, 1<<30, 0)
		if err != nil {
			return fail(err)
		}
		rd, err := workload.Random(t.Lines, 1<<30, 0, 0.3, m.RNG.Fork())
		if err != nil {
			return fail(err)
		}
		c, err := cpu.NewCore(i, t.Domain.ID, workload.Mix(st, rd), m.Cache, m.MC)
		if err != nil {
			return fail(err)
		}
		c.MLP = 4
		agents = append(agents, c)
		cores = append(cores, c)
	}
	if oc, ok := d.(interface{ ObserveCores([]*cpu.Core) }); ok {
		oc.ObserveCores(cores)
	}
	res, err := runMachine(ctx, m, agents, horizon)
	if err != nil {
		return fail(err)
	}
	var total uint64
	for _, c := range cores {
		total += c.Counters().Accesses
	}
	energy := dram.DDR4Energy().EstimateWithIO(m.DRAM, res.Stats.Counter("mc.requests"))
	return e4Cell{Accesses: total, Energy: energy}, res, nil
}
