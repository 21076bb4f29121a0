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
	// Row labels come from the defenses themselves, so a bad name fails
	// before any cell runs.
	rowLabels := make([][]any, len(defenses))
	for i, name := range defenses {
		d, err := defense.New(name)
		if err != nil {
			return nil, err
		}
		rowLabels[i] = []any{d.Name(), d.Class().String()}
	}
	nA := len(attacks)
	tb, _, err := experiment[string]{
		spec: GridSpec{
			ID:     "e1",
			Config: fmt.Sprintf("defenses=%s;sided=%d;%s", strings.Join(defenses, ","), manySided, opts.configString()),
		},
		title:   "E1: cross-domain flips, attack x defense (LPDDR4)",
		headers: headers,
		rows:    len(defenses), cols: nA,
		label: func(r int) (lead, tail []any) { return rowLabels[r], nil },
		cell: func(ctx context.Context, i int) (string, error) {
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
		},
		render: func(run *GridRun[string], i int) []any { return []any{run.Results[i]} },
	}.table(ctx)
	return tb, err
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
	schemes := E2Schemes()
	nW := len(workloads)
	// Loss is relative to the line-interleave scheme, whose cells are the
	// first nW; it is unknown when that baseline cell failed.
	loss := func(run *GridRun[uint64], i int) (float64, bool) {
		base := i % nW
		if i == base {
			return 0, true
		}
		if run.Failed(base) != nil {
			return 0, false
		}
		if b := run.Results[base]; b > 0 {
			return 100 * (1 - float64(run.Results[i])/float64(b)), true
		}
		return 0, true
	}
	tb, run, err := experiment[uint64]{
		spec:    GridSpec{ID: "e2", Config: fmt.Sprintf("horizon=%d", horizon)},
		title:   "E2: single-tenant throughput by interleaving scheme (MLP-8 core)",
		headers: []string{"scheme", "workload", "accesses", "loss-vs-interleave%"},
		rows:    len(schemes) * nW, cols: 1,
		label: func(r int) (lead, tail []any) {
			return []any{schemes[r/nW].Name, workloads[r%nW]}, nil
		},
		cell: func(ctx context.Context, i int) (uint64, error) {
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
		},
		render: func(run *GridRun[uint64], i int) []any {
			if l, ok := loss(run, i); ok {
				return []any{run.Results[i], l}
			}
			return []any{run.Results[i], "-"}
		},
	}.table(ctx)
	if err != nil {
		return nil, nil, err
	}
	var results []E2Result
	for i, acc := range run.Results {
		l, ok := loss(run, i)
		if run.Failed(i) != nil || !ok {
			continue
		}
		results = append(results, E2Result{
			Scheme: schemes[i/nW].Name, Workload: workloads[i%nW], Accesses: acc, LossVsInterleave: l,
		})
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
	opts := AttackOpts{Horizon: horizon}
	kind := attack.Kind{Name: "double-sided", Sided: 2}
	gens := dram.Generations()
	names := []string{"none", "trr", "swrefresh"}
	tb, _, err := experiment[uint64]{
		spec:  GridSpec{ID: "e3", Config: fmt.Sprintf("horizon=%d", horizon)},
		title: "E3: density scaling across DRAM generations",
		headers: []string{"generation", "MAC", "blast", "flips(none)", "flips(trr)", "flips(swrefresh)",
			"graphene-entries/bank"},
		rows: len(gens), cols: len(names),
		label: func(r int) (lead, tail []any) {
			prof := gens[r]
			// The table size the graphene defense itself configures for
			// this generation, so the column tracks its defaults.
			spec := core.DefaultSpec()
			spec.Profile = prof
			entries := any("-")
			if (defense.Graphene{}).Configure(&spec) == nil {
				entries = spec.Graphene.Entries
			}
			return []any{prof.Name, prof.MAC, prof.BlastRadius}, []any{entries}
		},
		cell: func(ctx context.Context, i int) (uint64, error) {
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
		},
		render: func(run *GridRun[uint64], i int) []any { return []any{run.Results[i]} },
	}.table(ctx)
	return tb, err
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
	// daemons), so the lineup holds factories rather than shared instances.
	var names []string
	var mks []func() (core.Defense, error)
	for _, name := range E4Defenses {
		if name == "para" {
			for _, p := range paraProbs {
				names = append(names, fmt.Sprintf("para(p=%g)", p))
				mks = append(mks, func() (core.Defense, error) { return defense.PARA{Prob: p}, nil })
			}
			continue
		}
		d, err := defense.New(name)
		if err != nil {
			return nil, err
		}
		names = append(names, d.Name())
		mks = append(mks, func() (core.Defense, error) { return defense.New(name) })
	}

	tb, _, err := experiment[e4Cell]{
		spec: GridSpec{
			ID:     "e4",
			Config: fmt.Sprintf("horizon=%d;defenses=%s;probs=%v", horizon, strings.Join(names, ","), paraProbs),
		},
		title:   "E4: benign multi-tenant overhead by defense",
		headers: []string{"defense", "accesses", "slowdown%", "DRAM nJ/access"},
		rows:    len(names), cols: 1,
		label: func(r int) (lead, tail []any) { return []any{names[r]}, nil },
		cell: func(ctx context.Context, i int) (e4Cell, error) {
			d, err := mks[i]()
			if err != nil {
				return e4Cell{}, err
			}
			cell, _, err := runBenign(ctx, d, horizon)
			if err != nil {
				return e4Cell{}, fmt.Errorf("harness: E4 %s: %w", names[i], err)
			}
			return cell, nil
		},
		// Slowdown is relative to the undefended "none" entry, cell 0;
		// it is unknown when that baseline failed or measured nothing.
		render: func(run *GridRun[e4Cell], i int) []any {
			c := run.Results[i]
			perAccess := 0.0
			if c.Accesses > 0 {
				perAccess = c.Energy / 1e3 / float64(c.Accesses)
			}
			if i == 0 {
				return []any{c.Accesses, 0.0, perAccess}
			}
			if run.Failed(0) != nil || run.Results[0].Accesses == 0 {
				return []any{c.Accesses, "-", perAccess}
			}
			slowdown := 100 * (1 - float64(c.Accesses)/float64(run.Results[0].Accesses))
			return []any{c.Accesses, slowdown, perAccess}
		},
	}.table(ctx)
	return tb, err
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
