package main

import (
	"context"
	"fmt"
	"time"

	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/cpu"
	"hammertime/internal/defense"
	"hammertime/internal/dma"
	"hammertime/internal/harness"
	"hammertime/internal/sim"
	"hammertime/internal/workload"
)

// The simulation workloads: attack-grid runs the E1 protection matrix
// (every defense against every attack), benign-mix runs the E4 overhead
// lineup (three benign tenants, no attacker). Both run one cell at a
// time in a closed loop with one caller, over machine seeds derived
// from the workload seed.

// Attack-cell parameters: the harness.AttackOpts defaults RunAttack uses.
const (
	attackTenants = 3
	attackPages   = 170
	benignThink   = 200
	iterations    = 1 << 30
	manySided     = 12
)

// e4ParaProbs are E4Overhead's default PARA probabilities.
var e4ParaProbs = []float64{0.0005, 0.001, 0.005, 0.02}

// gridCell is one simulation the caller asks for.
type gridCell struct {
	Seed  uint64 // spec.Seed of the machine
	Label string // defense name as the experiment table prints it
	Row   int    // attack-grid: defense index in E1Defenses
	Col   int    // attack-grid: attack index in attack.Catalog
	Kind  attack.Kind
	mk    func() (core.Defense, error)
}

// gridWorkload is a simulation workload's generated input.
type gridWorkload struct {
	benign  bool
	horizon uint64
	cells   []gridCell
}

// machineSeeds derives n distinct machine seeds from the workload seed;
// the first is the workload seed itself, so the default seed 1 covers
// the machine the experiment tables use.
func machineSeeds(seed uint64, n int) []uint64 {
	out := []uint64{seed}
	rng := sim.NewRNG(seed)
	for len(out) < n {
		v := rng.Uint64()
		dup := false
		for _, s := range out {
			dup = dup || s == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// attackGrid builds the attack-grid input: E1Defenses x Catalog(12) on
// each machine seed.
func attackGrid(seed uint64, seeds int, horizon uint64) gridWorkload {
	w := gridWorkload{horizon: horizon}
	kinds := attack.Catalog(manySided)
	for _, ms := range machineSeeds(seed, seeds) {
		for di, name := range harness.E1Defenses {
			name := name
			for ai, k := range kinds {
				w.cells = append(w.cells, gridCell{Seed: ms, Label: name, Row: di, Col: ai, Kind: k,
					mk: func() (core.Defense, error) { return defense.New(name) }})
			}
		}
	}
	return w
}

// benignMix builds the benign-mix input: the E4 lineup, PARA at its four
// probabilities, on each machine seed.
func benignMix(seed uint64, seeds int, horizon uint64) (gridWorkload, error) {
	w := gridWorkload{benign: true, horizon: horizon}
	var lineup []gridCell
	for _, name := range harness.E4Defenses {
		if name == "para" {
			for _, p := range e4ParaProbs {
				p := p
				lineup = append(lineup, gridCell{Label: fmt.Sprintf("para(p=%g)", p),
					mk: func() (core.Defense, error) { return defense.PARA{Prob: p}, nil }})
			}
			continue
		}
		name := name
		d, err := defense.New(name)
		if err != nil {
			return w, err
		}
		lineup = append(lineup, gridCell{Label: d.Name(), mk: func() (core.Defense, error) { return defense.New(name) }})
	}
	for _, ms := range machineSeeds(seed, seeds) {
		for _, c := range lineup {
			c.Seed = ms
			w.cells = append(w.cells, c)
		}
	}
	return w, nil
}

// spec returns the cell's machine configuration.
func (w gridWorkload) spec(c gridCell) core.MachineSpec {
	spec := core.DefaultSpec()
	if !w.benign {
		spec = harness.E1Spec()
	}
	spec.Seed = c.Seed
	return spec
}

// outcome is what a cell simulated, reduced to what the checks compare.
type outcome struct {
	digest   string
	cross    uint64
	planned  bool   // the attacker found cross-domain victims
	accesses uint64 // benign: completed core accesses
	events   int64
}

func eventsOf(st *sim.Stats) int64 {
	return st.Counter("mc.requests") + st.Counter("dram.act") + st.Counter("dram.ref")
}

// simCounts accumulates the exact per-layer counts of traced cells.
type simCounts struct {
	cells                         int
	steps                         int64
	accesses, misses, flushes     uint64
	cacheHits, cacheMiss, cacheWB uint64
	stats                         sim.Stats
}

// run executes one cell. With a nil tracer the attack grid goes through
// harness.RunAttackCtx and nothing is wrapped; with a tracer the cell is
// rebuilt from the same public calls with a span around each.
func (w gridWorkload) run(ctx context.Context, c gridCell, d core.Defense, tr *tracer, req int, sc *simCounts) (outcome, error) {
	if !w.benign && tr == nil {
		out, err := harness.RunAttackCtx(ctx, w.spec(c), d, c.Kind, harness.AttackOpts{Horizon: w.horizon})
		if err != nil {
			return outcome{}, err
		}
		st := &out.Result.Stats
		return outcome{digest: digest(st, out.Flips, out.CrossFlips), cross: out.CrossFlips,
			planned: out.PlannedCross, events: eventsOf(st)}, nil
	}
	root := tr.begin("cell", 0, req)
	defer tr.end(root)
	id := tr.begin("core.build", root, req)
	m, err := core.BuildWithDefense(w.spec(c), d)
	tr.end(id)
	if err != nil {
		return outcome{}, err
	}
	var agents []core.Agent
	var cores []*cpu.Core
	var planned bool
	if w.benign {
		agents, cores, err = benignAgents(m, tr, root, req)
	} else {
		agents, cores, planned, err = attackAgents(m, c.Kind, tr, root, req)
	}
	if err != nil {
		return outcome{}, err
	}
	if oc, ok := d.(interface{ ObserveCores([]*cpu.Core) }); ok {
		oc.ObserveCores(cores)
	}
	res, err := runAgents(ctx, m, agents, w.horizon, tr, root, req)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{cross: res.CrossFlips, planned: planned, events: eventsOf(&res.Stats)}
	for _, c := range cores {
		o.accesses += c.Counters().Accesses
	}
	if w.benign {
		o.digest = digest(&res.Stats, res.Flips, res.CrossFlips, o.accesses)
	} else {
		o.digest = digest(&res.Stats, res.Flips, res.CrossFlips)
	}
	if sc != nil {
		sc.cells++
		for _, s := range res.Steps {
			sc.steps += int64(s)
		}
		for _, c := range cores {
			pc := c.Counters()
			sc.accesses += pc.Accesses
			sc.misses += pc.LLCMisses
			sc.flushes += pc.Flushes
		}
		h, mi, _, wb := m.Cache.Stats()
		sc.cacheHits += h
		sc.cacheMiss += mi
		sc.cacheWB += wb
		sc.stats.Merge(&res.Stats)
	}
	return o, nil
}

// attackAgents mirrors harness.RunAttackCtx: tenant 1 hammers (from a
// core, or a DMA device for DMA attacks) while the others stream.
func attackAgents(m *core.Machine, kind attack.Kind, tr *tracer, parent, req int) ([]core.Agent, []*cpu.Core, bool, error) {
	id := tr.begin("hostos.setup_tenants", parent, req)
	tenants, err := harness.SetupTenants(m, attackTenants, attackPages)
	tr.end(id)
	if err != nil {
		return nil, nil, false, err
	}
	attacker := tenants[0].Domain.ID
	radius := m.Spec.Profile.BlastRadius
	id = tr.begin("attack.plan", parent, req)
	var plan attack.Plan
	switch {
	case kind.Sided <= 1:
		plan, err = attack.PlanSingleSided(m.Kernel, m.Mapper, attacker, 1, radius)
	case kind.Sided == 2:
		plan, err = attack.PlanDoubleSided(m.Kernel, m.Mapper, attacker, 1, radius)
	default:
		plan, err = attack.PlanManySided(m.Kernel, m.Mapper, attacker, kind.Sided, radius)
	}
	tr.end(id)
	if err != nil {
		return nil, nil, false, fmt.Errorf("plan %s: %w", kind.Name, err)
	}
	id = tr.begin("attack.hammer_va", parent, req)
	prog, err := attack.HammerVA(m.Kernel, attacker, plan, iterations, !kind.DMA)
	tr.end(id)
	if err != nil {
		return nil, nil, false, err
	}
	var agents []core.Agent
	var cores []*cpu.Core
	if kind.DMA {
		dev, err := dma.NewDevice(0, attacker, prog, m.MC)
		if err != nil {
			return nil, nil, false, err
		}
		agents = append(agents, dev)
	} else {
		c, err := cpu.NewCore(0, attacker, prog, m.Cache, m.MC)
		if err != nil {
			return nil, nil, false, err
		}
		agents = append(agents, c)
		cores = append(cores, c)
	}
	for i, t := range tenants[1:] {
		wl, err := workload.Stream(t.Lines, iterations, benignThink)
		if err != nil {
			return nil, nil, false, err
		}
		c, err := cpu.NewCore(1+i, t.Domain.ID, wl, m.Cache, m.MC)
		if err != nil {
			return nil, nil, false, err
		}
		agents = append(agents, c)
		cores = append(cores, c)
	}
	return agents, cores, plan.CrossDomain, nil
}

// benignAgents builds E4's cell the way harness.E4Overhead does: three
// tenants of 512 pages, each on a stream+random mix at MLP 4.
func benignAgents(m *core.Machine, tr *tracer, parent, req int) ([]core.Agent, []*cpu.Core, error) {
	id := tr.begin("hostos.setup_tenants", parent, req)
	tenants, err := harness.SetupTenants(m, 3, 512)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	var agents []core.Agent
	var cores []*cpu.Core
	for i, t := range tenants {
		st, err := workload.Stream(t.Lines, iterations, 0)
		if err != nil {
			return nil, nil, err
		}
		rd, err := workload.Random(t.Lines, iterations, 0, 0.3, m.RNG.Fork())
		if err != nil {
			return nil, nil, err
		}
		c, err := cpu.NewCore(i, t.Domain.ID, workload.Mix(st, rd), m.Cache, m.MC)
		if err != nil {
			return nil, nil, err
		}
		c.MLP = 4
		agents = append(agents, c)
		cores = append(cores, c)
	}
	return agents, cores, nil
}

// runAgents runs the machine; with a tracer each agent is wrapped to time
// its Steps, recorded as one aggregate span per agent under core.run.
func runAgents(ctx context.Context, m *core.Machine, agents []core.Agent, horizon uint64, tr *tracer, parent, req int) (core.RunResult, error) {
	if tr == nil {
		return m.RunCtx(ctx, agents, horizon)
	}
	timed := make([]*timedAgent, len(agents))
	wrapped := make([]core.Agent, len(agents))
	for i, a := range agents {
		timed[i] = &timedAgent{inner: a}
		wrapped[i] = timed[i]
	}
	id := tr.begin("core.run", parent, req)
	start := time.Now()
	res, err := m.RunCtx(ctx, wrapped, horizon)
	tr.end(id)
	for i, a := range timed {
		name := "cpu.step"
		if _, ok := agents[i].(*dma.Device); ok {
			name = "dma.step"
		}
		tr.aggregate(name, id, req, start, a.dur, a.steps)
	}
	return res, err
}

// execution is one timed cell run, kept for the checks after the loop.
type execution struct {
	cell int
	out  outcome
	err  error
}

// loopResult is what one timed loop measured.
type loopResult struct {
	cellMS, jobMS []float64
	events        int64
	elapsed       time.Duration
	execs         []execution
}

// loop runs whole passes over the cells, one at a time, until at least
// dur has passed and the p90s have enough samples. A job is the caller's
// request: building the defense, then the cell.
func (w gridWorkload) loop(ctx context.Context, dur time.Duration, tr *tracer, sc *simCounts) (loopResult, error) {
	var lr loopResult
	need := samplesFor(0.9)
	start := time.Now()
	for {
		for i, c := range w.cells {
			t0 := time.Now()
			d, err := c.mk()
			var out outcome
			var cellD time.Duration
			if err == nil {
				t1 := time.Now()
				out, err = w.run(ctx, c, d, tr, len(lr.execs)+1, sc)
				cellD = time.Since(t1)
			}
			lr.jobMS = append(lr.jobMS, ms(time.Since(t0)))
			lr.cellMS = append(lr.cellMS, ms(cellD))
			lr.events += out.events
			lr.execs = append(lr.execs, execution{cell: i, out: out, err: err})
		}
		lr.elapsed = time.Since(start)
		if lr.elapsed >= dur && len(lr.execs) >= need {
			return lr, nil
		}
		if lr.elapsed > 10*dur+time.Minute {
			return lr, fmt.Errorf("loop: %d cells in %v, need %d", len(lr.execs), lr.elapsed, need)
		}
	}
}

// reference reruns each cell once through the untraced path with the
// invariant auditor attached to every machine; a violation fails the
// cell. Returns each cell's outcome or error.
func (w gridWorkload) reference(ctx context.Context) ([]outcome, []error) {
	prev := core.CheckingEnabled()
	core.SetChecking(true)
	defer func() {
		if !prev {
			core.SetCheckingOff()
		}
	}()
	outs := make([]outcome, len(w.cells))
	errs := make([]error, len(w.cells))
	for i, c := range w.cells {
		d, err := c.mk()
		if err == nil {
			outs[i], err = w.run(ctx, c, d, nil, 0, nil)
		}
		errs[i] = err
	}
	return outs, errs
}

// tableCells returns what the repository's own experiment prints for the
// cells on the machine seed the tables use, keyed by cell index: E1's
// cross-flip cell for the attack grid, E4's accesses for the benign mix.
// Cells on other seeds have no entry.
func (w gridWorkload) tableCells(ctx context.Context) (map[int]string, error) {
	tableSeed := core.DefaultSpec().Seed
	want := make(map[int]string)
	var idx []int
	for i, c := range w.cells {
		if c.Seed == tableSeed {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return want, nil
	}
	if !w.benign {
		tb, err := harness.E1Matrix(ctx, nil, manySided, harness.AttackOpts{Horizon: w.horizon})
		if err != nil {
			return nil, err
		}
		for _, i := range idx {
			want[i] = tb.Rows[w.cells[i].Row][2+w.cells[i].Col]
		}
		return want, nil
	}
	tb, err := harness.E4Overhead(ctx, w.horizon, e4ParaProbs)
	if err != nil {
		return nil, err
	}
	byLabel := make(map[string]string)
	for _, row := range tb.Rows {
		byLabel[row[0]] = row[1]
	}
	for _, i := range idx {
		want[i] = byLabel[w.cells[i].Label]
	}
	return want, nil
}

// tableCell renders an outcome the way the experiment table does.
func (w gridWorkload) tableCell(o outcome) string {
	if w.benign {
		return fmt.Sprint(o.accesses)
	}
	s := fmt.Sprint(o.cross)
	if !o.planned {
		s += " (no targets)"
	}
	return s
}

// check compares every execution with the reference pass and the
// experiment tables; it returns the number of failed executions and the
// first few reasons.
func (w gridWorkload) check(ctx context.Context, execs []execution) (int, []string, error) {
	ref, refErr := w.reference(ctx)
	tables, err := w.tableCells(ctx)
	if err != nil {
		return 0, nil, fmt.Errorf("experiment table: %w", err)
	}
	failed := 0
	var why []string
	fail := func(format string, args ...any) {
		failed++
		if len(why) < 5 {
			why = append(why, fmt.Sprintf(format, args...))
		}
	}
	for _, e := range execs {
		c := w.cells[e.cell]
		name := fmt.Sprintf("%s/%s seed %d", c.Label, c.Kind.Name, c.Seed)
		switch {
		case e.err != nil:
			fail("%s: %v", name, e.err)
		case refErr[e.cell] != nil:
			fail("%s: reference pass: %v", name, refErr[e.cell])
		case e.out.digest != ref[e.cell].digest:
			fail("%s: digest %s, reference %s", name, e.out.digest, ref[e.cell].digest)
		default:
			if want, ok := tables[e.cell]; ok && w.tableCell(e.out) != want {
				fail("%s: %q, experiment table %q", name, w.tableCell(e.out), want)
			}
		}
	}
	return failed, why, nil
}
