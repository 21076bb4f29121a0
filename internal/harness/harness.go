// Package harness builds and runs the canonical experiment scenarios
// (E1-E8 in DESIGN.md) shared by cmd/hammerbench, the benchmark suite and
// the examples: multi-tenant machines under attack, benign performance
// runs, and the primitive micro-comparisons of §4.2/§4.3.
package harness

import (
	"context"
	"fmt"
	"io"

	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/cpu"
	"hammertime/internal/dma"
	"hammertime/internal/hostos"
	"hammertime/internal/obs"
	"hammertime/internal/sim"
	"hammertime/internal/telemetry"
	"hammertime/internal/trace"
	"hammertime/internal/workload"
)

// Tenant is one trust domain with its allocated memory.
type Tenant struct {
	Domain *hostos.Domain
	// Lines are the physical line indices of the tenant's pages at
	// allocation time (migration may move them later).
	Lines []uint64
}

// tenantLines recycles released tenants' line lists.
var tenantLines = sim.NewFreeList[uint64]()

// SetupTenants creates n tenant domains and allocates pagesEach pages to
// each, interleaving allocations round-robin across tenants — the
// allocation churn of a real multi-tenant host, which is what gives
// attackers cross-domain row adjacency under a policy-free allocator.
// The line lists may come from earlier cells' released tenants; a cell
// that is done with them hands them back with ReleaseTenants.
func SetupTenants(m *core.Machine, n, pagesEach int) ([]Tenant, error) {
	if n <= 0 || pagesEach <= 0 {
		return nil, fmt.Errorf("harness: need positive tenants (%d) and pages (%d)", n, pagesEach)
	}
	tenants := make([]Tenant, n)
	for i := range tenants {
		tenants[i].Domain = m.Kernel.CreateDomain(fmt.Sprintf("tenant-%d", i+1), false, false)
	}
	lpp := hostos.LinesPerPage(m.Mapper.Geometry())
	for i := range tenants {
		tenants[i].Lines, _ = tenantLines.Get(pagesEach * int(lpp))
	}
	for p := 0; p < pagesEach; p++ {
		for i := range tenants {
			frames, err := m.Kernel.AllocPages(tenants[i].Domain.ID, uint64(p), 1)
			if err != nil {
				ReleaseTenants(tenants)
				return nil, fmt.Errorf("harness: tenant %d page %d: %w", i+1, p, err)
			}
			page := tenants[i].Lines[uint64(p)*lpp : uint64(p+1)*lpp]
			for l := range page {
				page[l] = frames[0]*lpp + uint64(l)
			}
		}
	}
	return tenants, nil
}

// ReleaseTenants hands the tenants' line lists back for reuse by later
// cells and nils them, so a use after release panics. The caller must
// no longer use the lists, nor any workload built on them; releasing
// again is a no-op.
func ReleaseTenants(tenants []Tenant) {
	for i := range tenants {
		tenantLines.Put(tenants[i].Lines)
		tenants[i].Lines = nil
	}
}

// AttackOpts parametrizes RunAttack.
type AttackOpts struct {
	// Horizon is the simulation length in cycles (0 means 4_000_000).
	Horizon uint64
	// Tenants is the number of domains (0 means 3); tenant 1 attacks.
	Tenants int
	// PagesPerTenant is each domain's allocation (0 means 170; enough
	// rows for well-spaced many-sided patterns).
	PagesPerTenant int
	// BenignThink is the benign cores' inter-access think time
	// (0 means 200 cycles).
	BenignThink uint64
	// VictimIntegrity marks non-attacker tenants as integrity-checked
	// enclaves (§4.4): flips lock the machine up instead of silently
	// corrupting.
	VictimIntegrity bool
	// AttackTrace, when non-nil, records the attacker's access stream as
	// JSON lines for later replay or offline analysis.
	AttackTrace io.Writer
	// ReplayAttack, when non-nil, replaces attack planning entirely: the
	// recorded events are replayed verbatim as the attacker's stream.
	ReplayAttack []trace.Event
	// Defenses narrows the defense lineup of the experiments that take
	// one (E1 via the dispatcher): nil means the full E1Defenses lineup.
	// Part of the wire protocol of the distributed cluster — a worker
	// rebuilds the exact grid from (experiment, horizon, opts), so only
	// serializable, result-determining fields may shape a grid.
	Defenses []string
	// ManySided is the N of E1's many-sided attack column (0 means 12).
	ManySided int
	// Observer, when non-nil, is attached to each machine before the run
	// and receives the full simulator event stream (ACTs, refreshes,
	// defense triggers, flips — see internal/obs). Observer-only:
	// simulation results are byte-identical with or without it. When the
	// same recorder serves parallel grid cells, wrap its sinks in
	// obs.NewSyncSink.
	Observer *obs.Recorder
}

// configString folds the result-determining options into a stable string
// for checkpoint keys. Observer-only fields (Observer, AttackTrace) are
// excluded: they never change simulation results.
func (o AttackOpts) configString() string {
	return fmt.Sprintf("horizon=%d;tenants=%d;pages=%d;think=%d;integrity=%t;replay=%t",
		o.Horizon, o.Tenants, o.PagesPerTenant, o.BenignThink, o.VictimIntegrity, o.ReplayAttack != nil)
}

func (o *AttackOpts) applyDefaults() {
	if o.Horizon == 0 {
		o.Horizon = 4_000_000
	}
	if o.Tenants == 0 {
		o.Tenants = 3
	}
	if o.PagesPerTenant == 0 {
		o.PagesPerTenant = 170
	}
	if o.BenignThink == 0 {
		o.BenignThink = 200
	}
}

// AttackOutcome reports one attack-vs-defense run.
type AttackOutcome struct {
	Defense  string
	Attack   string
	PlanKind string
	// PlannedCross is whether the attacker even found cross-domain
	// victims to aim at (isolation defenses make this false).
	PlannedCross bool
	Flips        uint64
	CrossFlips   uint64
	// LockedUp reports an integrity-check machine halt (§4.4).
	LockedUp bool
	// BenignSteps is the total completed accesses of the benign tenants.
	BenignSteps uint64
	Result      core.RunResult
}

// Succeeded reports whether the attack corrupted another domain's data.
func (o AttackOutcome) Succeeded() bool { return o.CrossFlips > 0 }

// RunAttack builds a machine with the defense, sets up tenants, plans and
// executes the attack from tenant 1 while the other tenants run benign
// workloads, and reports the outcome.
func RunAttack(spec core.MachineSpec, d core.Defense, kind attack.Kind, opts AttackOpts) (AttackOutcome, error) {
	return RunAttackCtx(context.Background(), spec, d, kind, opts)
}

// RunAttackCtx is RunAttack under cooperative cancellation: the context
// reaches core.Machine.RunCtx, so cancelling it (a cell deadline, a CLI
// SIGTERM, a hammerd job cancel) tears the simulation down at the next
// cancellation point instead of abandoning it. The returned error wraps
// core.ErrCancelled and the context's cause.
func RunAttackCtx(ctx context.Context, spec core.MachineSpec, d core.Defense, kind attack.Kind, opts AttackOpts) (AttackOutcome, error) {
	opts.applyDefaults()
	m, err := core.BuildWithDefense(spec, d)
	if err != nil {
		return AttackOutcome{}, err
	}
	defer m.Release()
	if opts.Observer != nil {
		m.SetRecorder(opts.Observer)
	} else if rec := telemetry.ObserverFrom(ctx); rec != nil {
		// A hammerd job that requested event streaming carries its
		// recorder in the telemetry scope; explicit Observer opts win.
		m.SetRecorder(rec)
	}
	tenants, err := SetupTenants(m, opts.Tenants, opts.PagesPerTenant)
	if err != nil {
		return AttackOutcome{}, err
	}
	defer ReleaseTenants(tenants)
	if opts.VictimIntegrity {
		for _, t := range tenants[1:] {
			t.Domain.Enclave = true
			t.Domain.IntegrityChecked = true
		}
	}
	attacker := tenants[0].Domain.ID

	var plan attack.Plan
	var prog cpu.Program
	if opts.ReplayAttack != nil {
		plan = attack.Plan{Kind: "replayed-trace"}
		prog = trace.Replay(opts.ReplayAttack)
	} else {
		plan, err = planAttack(m, attacker, kind)
		if err != nil {
			return AttackOutcome{}, fmt.Errorf("harness: plan %s: %w", kind.Name, err)
		}
		prog, err = attack.HammerVA(m.Kernel, attacker, plan, 1<<30, !kind.DMA)
		if err != nil {
			return AttackOutcome{}, err
		}
	}
	if opts.AttackTrace != nil {
		prog = trace.Record(prog, trace.NewWriter(opts.AttackTrace))
	}

	var agents []core.Agent
	var cores []*cpu.Core
	if kind.DMA {
		dev, err := dma.NewDevice(0, attacker, prog, m.MC)
		if err != nil {
			return AttackOutcome{}, err
		}
		agents = append(agents, dev)
	} else {
		c, err := cpu.NewCore(0, attacker, prog, m.Cache, m.MC)
		if err != nil {
			return AttackOutcome{}, err
		}
		agents = append(agents, c)
		cores = append(cores, c)
	}
	for i, t := range tenants[1:] {
		wl, err := workload.Stream(t.Lines, 1<<30, opts.BenignThink)
		if err != nil {
			return AttackOutcome{}, err
		}
		c, err := cpu.NewCore(1+i, t.Domain.ID, wl, m.Cache, m.MC)
		if err != nil {
			return AttackOutcome{}, err
		}
		agents = append(agents, c)
		cores = append(cores, c)
	}
	// Defenses that sample CPU performance counters get the core list.
	if oc, ok := d.(interface{ ObserveCores([]*cpu.Core) }); ok {
		oc.ObserveCores(cores)
	}

	res, err := m.RunCtx(ctx, agents, opts.Horizon)
	if err != nil {
		return AttackOutcome{}, err
	}
	events := uint64(res.Stats.Counter("mc.requests") +
		res.Stats.Counter("dram.act") + res.Stats.Counter("dram.ref"))
	if c := RunFrom(ctx).Bench; c != nil {
		// Simulated-event throughput for the performance report: memory
		// requests plus DRAM commands this run processed.
		c.addEvents(events)
	}
	telemetry.CountEvents(ctx, events)
	out := AttackOutcome{
		Attack:       kind.Name,
		PlanKind:     plan.Kind,
		PlannedCross: plan.CrossDomain,
		Flips:        res.Flips,
		CrossFlips:   res.CrossFlips,
		LockedUp:     m.Kernel.LockedUp(),
		Result:       res,
	}
	if d != nil {
		out.Defense = d.Name()
	} else {
		out.Defense = "none"
	}
	for i := 1; i < 1+len(tenants)-1; i++ {
		out.BenignSteps += res.Steps[i]
	}
	return out, nil
}

// planAttack plans kind's hammering pattern from the attacker domain
// against the machine's current page ownership.
func planAttack(m *core.Machine, attacker int, kind attack.Kind) (attack.Plan, error) {
	radius := m.Spec.Profile.BlastRadius
	switch {
	case kind.Sided <= 1:
		// Concentrate the ACT budget: hammer a single aggressor row.
		return attack.PlanSingleSided(m.Kernel, m.Mapper, attacker, 1, radius)
	case kind.Sided == 2:
		return attack.PlanDoubleSided(m.Kernel, m.Mapper, attacker, 1, radius)
	default:
		return attack.PlanManySided(m.Kernel, m.Mapper, attacker, kind.Sided, radius)
	}
}
