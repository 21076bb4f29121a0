// Package diff holds the simulator's differential oracles: the same
// work computed two independent ways must agree exactly.
//
//   - SerialVsParallel runs an experiment grid twice through the real
//     harness — once serial, once on a worker pool — and compares the
//     rendered result tables byte for byte. It pins the parallel
//     harness's core guarantee (parallel.go): fanning cells out over
//     goroutines never changes results.
//
//   - SerialVsDistributed does the same for the distributed harness: an
//     experiment run through a grid delegate — cells sharded across
//     cluster workers, cached, or stolen back from dead nodes — must
//     render the identical table to an in-process run.
//
//   - DenseVsReference drives one deterministic, seeded request stream
//     through a real controller + module pair and, via the obs event
//     stream, through an independent naive reference model (sparse maps,
//     no hot-path tricks). At the end the dense module state — open
//     rows, per-row disturbance bit for bit, per-row ACT counts — and
//     the recorded bit flips must match the reference exactly. It pins
//     the dense hot-path state introduced for performance against the
//     obviously-correct implementation, with the invariant auditor
//     (package check) chained in for its online checks and counter
//     agreement.
package diff

import (
	"context"
	"fmt"
	"math"

	"hammertime/internal/addr"
	"hammertime/internal/check"
	"hammertime/internal/dram"
	"hammertime/internal/harness"
	"hammertime/internal/memctrl"
	"hammertime/internal/obs"
	"hammertime/internal/sim"
)

// SerialVsParallel runs the E1 protection matrix once with a single
// worker and once on a pool, and returns an error unless the two
// rendered tables are byte-identical. defenses/manySided/opts are
// passed through to harness.E1Matrix.
func SerialVsParallel(defenses []string, manySided int, opts harness.AttackOpts) error {
	st, err := harness.E1Matrix(serialRun(context.Background()), defenses, manySided, opts)
	if err != nil {
		return fmt.Errorf("diff: serial run: %w", err)
	}
	ctx := harness.WithRun(context.Background(), harness.Run{Workers: 4})
	pt, err := harness.E1Matrix(ctx, defenses, manySided, opts)
	if err != nil {
		return fmt.Errorf("diff: parallel run: %w", err)
	}
	if s, p := st.String(), pt.String(); s != p {
		return fmt.Errorf("diff: serial and parallel tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
	return nil
}

// SerialVsDistributed runs the named experiment twice — once plain and
// in-process, once with every identified grid routed through delegate
// (a cluster coordinator, or any other harness.GridDelegate) — and
// returns an error unless the rendered tables are byte-identical. It
// pins the distributed harness's core guarantee: sharding cells across
// workers, serving them from a content-addressed cache, or stealing
// them back from a dead worker never changes a single byte of the
// result. Run it with a worker killed mid-run to pin the recovery path
// too — the oracle cannot tell the difference, which is the point.
func SerialVsDistributed(ctx context.Context, delegate harness.GridDelegate, experiment string, horizon uint64, opts harness.AttackOpts) error {
	if delegate == nil {
		return fmt.Errorf("diff: nil grid delegate")
	}
	st, err := harness.Experiment(serialRun(ctx), experiment, horizon, opts)
	if err != nil {
		return fmt.Errorf("diff: serial run: %w", err)
	}
	dt, err := harness.Experiment(harness.WithGridDelegate(ctx, delegate), experiment, horizon, opts)
	if err != nil {
		return fmt.Errorf("diff: distributed run: %w", err)
	}
	if s, d := st.String(), dt.String(); s != d {
		return fmt.Errorf("diff: serial and distributed tables differ:\n--- serial ---\n%s\n--- distributed ---\n%s", s, d)
	}
	return nil
}

// serialRun returns ctx carrying its Run with one worker and no
// delegate: the in-process, serial reference run.
func serialRun(ctx context.Context) context.Context {
	r := harness.RunFrom(ctx)
	r.Workers, r.Delegate = 1, nil
	return harness.WithRun(ctx, r)
}

// StreamConfig parametrizes one DenseVsReference run.
type StreamConfig struct {
	// Seed drives every random choice in the stream (and the module and
	// controller RNGs); the run is a pure function of it.
	Seed uint64
	// Requests is the stream length (0 means 4000 operations).
	Requests int
	// Defense selects the controller-side mitigation under the stream:
	// "none", "para", "graphene", "blockhammer" (which also switches the
	// controller to closed-page to exercise that path), or "stacked" (all
	// three plus the ACT counter, whose handler refreshes neighbors).
	Defense string
}

// stressProfile is a deliberately fragile disturbance profile so a short
// stream crosses the MAC and generates flips for the flip-record diff.
func stressProfile() dram.DisturbanceProfile {
	return dram.DisturbanceProfile{Name: "diff-stress", MAC: 64, BlastRadius: 2, DistanceDecay: 0.5, FlipProb: 0.05}
}

// DenseVsReference runs the configured request stream and returns the
// first divergence between the dense module/controller and the naive
// reference model, or nil when they agree exactly. It also returns the
// controller and module it drove, for tests that pin their final state.
func DenseVsReference(cfg StreamConfig) (*memctrl.Controller, *dram.Module, error) {
	if cfg.Requests == 0 {
		cfg.Requests = 4000
	}
	geom := dram.DefaultGeometry()
	tim := dram.DDR4Timing()
	prof := stressProfile()
	if err := prof.Validate(); err != nil {
		return nil, nil, err
	}
	mod, err := dram.NewModule(dram.Config{Geometry: geom, Timing: tim, Profile: prof, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	mapper := addr.NewLineInterleave(geom)
	mcfg := memctrl.Config{Mapper: mapper, DRAM: mod, OpenPage: true}
	paraProb := 0.3
	if cfg.Defense == "stacked" {
		paraProb = 0.05 // leaves a few flips for the record diff
	}
	para, err := memctrl.NewPARA(paraProb, 2, cfg.Seed+1)
	if err != nil {
		return nil, nil, err
	}
	switch cfg.Defense {
	case "", "none":
	case "para":
		mcfg.Plugins = []memctrl.Plugin{para}
	case "graphene":
		mcfg.Plugins = []memctrl.Plugin{memctrl.NewGraphene(geom.Banks, 64, 96, 2)}
	case "blockhammer":
		mcfg.Plugins = []memctrl.Plugin{memctrl.NewRateLimiter(geom, 96, 200_000, 48)}
		mcfg.OpenPage = false
	case "stacked":
		// core.NewMachine's order, at settings where every hook fires.
		mcfg.Plugins = []memctrl.Plugin{para,
			memctrl.NewGraphene(geom.Banks, 64, 60, 2),
			memctrl.NewRateLimiter(geom, 96, 2_000_000, 32)}
	default:
		return nil, nil, fmt.Errorf("diff: unknown defense %q", cfg.Defense)
	}
	mc, err := memctrl.NewController(mcfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Defense == "stacked" {
		// The handler's refresh instructions activate inside the
		// triggering ACT, so every mitigation runs nested under another.
		err := mc.EnableACTCounter(true, 64, func(ev memctrl.ACTEvent) uint64 {
			for _, victim := range [2]int{ev.Row - 1, ev.Row + 1} {
				if geom.ValidRow(victim) && geom.SameSubarray(ev.Row, victim) {
					line := mapper.Unmap(addr.DDR{Bank: ev.Bank, Row: victim})
					_, _ = mc.RefreshInstruction(line, true, 0, ev.Cycle)
				}
			}
			return 0
		})
		if err != nil {
			return nil, nil, err
		}
	}

	// Reference model and invariant auditor both consume the event
	// stream; the auditor forwards into the reference's recorder.
	ref := newRefModel(geom, tim, prof)
	aud := check.New(check.Config{Geometry: geom, Timing: tim, Profile: prof})
	rec := aud.Chain(obs.NewRecorder(ref))
	mod.SetRecorder(rec)
	mc.SetRecorder(rec)

	// The stream hammers a cluster of adjacent rows in one bank (enough
	// pressure to cross the stress MAC) with background traffic, idle
	// jumps across refresh epochs and whole refresh windows, targeted
	// refreshes, and direct disturbance injection.
	rng := sim.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15)
	baseRow := 3 + rng.Intn(geom.RowsPerBank()-8)
	hot := make([]uint64, 4)
	for i := range hot {
		hot[i] = mapper.Unmap(addr.DDR{Bank: 0, Row: baseRow + 2*i, Column: rng.Intn(geom.ColumnsPerRow)})
	}
	now := uint64(0)
	total := geom.TotalLines()
	for i := 0; i < cfg.Requests; i++ {
		op := rng.Intn(100)
		switch {
		case op < 1:
			// Idle across a whole refresh window (thousands of REFs and a
			// Graphene window reset in one catch-up).
			now += tim.RefreshWindow + uint64(rng.Intn(int(tim.TREFI)))
			mc.AdvanceTo(now)
		case op < 3:
			// Idle across a handful of refresh epochs.
			now += tim.TREFI * uint64(1+rng.Intn(20))
			mc.AdvanceTo(now)
		case op < 5:
			res, err := mc.RefreshInstruction(hot[rng.Intn(len(hot))], rng.Intn(2) == 0, 0, now)
			if err != nil {
				return nil, nil, fmt.Errorf("diff: op %d refresh instruction: %w", i, err)
			}
			now = res.Completion
		case op < 6:
			res, err := mc.RefreshNeighborsCmd(hot[rng.Intn(len(hot))], 2, 0, now)
			if err != nil {
				return nil, nil, fmt.Errorf("diff: op %d ref-neighbors: %w", i, err)
			}
			now = res.Completion
		case op < 8:
			mod.SeedDisturbance(rng.Intn(geom.Banks), rng.Intn(geom.RowsPerBank()), float64(rng.Intn(50)))
		default:
			line := hot[rng.Intn(len(hot))]
			if op >= 80 {
				line = rng.Uint64n(total)
			}
			res, err := mc.ServeRequest(memctrl.Request{Line: line, Domain: rng.Intn(3)}, now)
			if err != nil {
				return nil, nil, fmt.Errorf("diff: op %d request: %w", i, err)
			}
			if rng.Bool(0.5) {
				now = res.Completion
			} else {
				now += uint64(rng.Intn(300))
			}
		}
	}
	mc.AdvanceTo(now + tim.TREFI)

	if err := aud.Verify(mod, mc); err != nil {
		return nil, nil, fmt.Errorf("diff: invariant auditor: %w", err)
	}
	if err := ref.diff(mod); err != nil {
		return nil, nil, err
	}
	return mc, mod, nil
}

// rowKey addresses one row of one bank in the reference maps.
type rowKey struct{ bank, row int }

// refModel is the naive reference DRAM model: event-driven, sparse maps,
// no dense arrays, no incremental counters — the implementation you
// would write first and trust. It implements obs.Sink.
type refModel struct {
	geom dram.Geometry
	prof dram.DisturbanceProfile

	open    map[int]int // bank -> open row; absent = precharged
	disturb map[rowKey]float64
	acts    map[rowKey]uint64
	flips   []obs.Event

	// Periodic-sweep mirror (same fractional scheme as the module).
	sweepPtr, sweepAcc, sweepDen int
}

func newRefModel(g dram.Geometry, t dram.Timing, p dram.DisturbanceProfile) *refModel {
	den := t.RefreshCommandsPerWindow()
	if den <= 0 {
		den = 1
	}
	return &refModel{
		geom:     g,
		prof:     p,
		open:     make(map[int]int),
		disturb:  make(map[rowKey]float64),
		acts:     make(map[rowKey]uint64),
		sweepDen: den,
	}
}

// Flush implements obs.Sink (no-op).
func (*refModel) Flush() error { return nil }

// Record implements obs.Sink.
func (r *refModel) Record(ev obs.Event) {
	switch ev.Kind {
	case obs.KindACT:
		r.open[ev.Bank] = ev.Row
		if ev.Arg == 1 {
			r.acts[rowKey{ev.Bank, ev.Row}]++
		}
		// Same float-addition order as the module: self-recharge, then
		// victims per distance, lower row first.
		r.clearRow(ev.Bank, ev.Row)
		sub := r.geom.SubarrayOf(ev.Row)
		for dist := 1; dist <= r.prof.BlastRadius; dist++ {
			amount := r.prof.DisturbanceAt(dist)
			for _, victim := range [2]int{ev.Row - dist, ev.Row + dist} {
				if r.geom.ValidRow(victim) && r.geom.SubarrayOf(victim) == sub {
					r.disturb[rowKey{ev.Bank, victim}] += amount
				}
			}
		}
	case obs.KindPRE:
		delete(r.open, ev.Bank)
	case obs.KindREF:
		rows := r.geom.RowsPerBank()
		r.sweepAcc += rows
		for r.sweepAcc >= r.sweepDen {
			r.sweepAcc -= r.sweepDen
			for b := 0; b < r.geom.Banks; b++ {
				r.clearRow(b, r.sweepPtr)
				delete(r.acts, rowKey{b, r.sweepPtr})
			}
			r.sweepPtr = (r.sweepPtr + 1) % rows
		}
	case obs.KindTargetedRefresh:
		r.clearRow(ev.Bank, ev.Row)
		delete(r.acts, rowKey{ev.Bank, ev.Row})
	case obs.KindRefNeighbors:
		sub := r.geom.SubarrayOf(ev.Row)
		for dist := 1; dist <= int(ev.Arg); dist++ {
			for _, victim := range [2]int{ev.Row - dist, ev.Row + dist} {
				if r.geom.ValidRow(victim) && r.geom.SubarrayOf(victim) == sub {
					r.clearRow(ev.Bank, victim)
					delete(r.acts, rowKey{ev.Bank, victim})
				}
			}
		}
	case obs.KindSeedDisturb:
		r.disturb[rowKey{ev.Bank, ev.Row}] = math.Float64frombits(ev.Arg)
	case obs.KindBitFlip:
		r.flips = append(r.flips, ev)
	}
}

func (r *refModel) clearRow(bank, row int) {
	delete(r.disturb, rowKey{bank, row})
}

// diff compares the reference's final state against the dense module,
// exhaustively over every (bank, row), and the flip records in order.
func (r *refModel) diff(mod *dram.Module) error {
	for b := 0; b < r.geom.Banks; b++ {
		wantOpen := -1
		if row, ok := r.open[b]; ok {
			wantOpen = row
		}
		if got := mod.OpenRow(b); got != wantOpen {
			return fmt.Errorf("diff: bank %d open row: dense %d, reference %d", b, got, wantOpen)
		}
		for row := 0; row < r.geom.RowsPerBank(); row++ {
			if got, want := mod.Disturbance(b, row), r.disturb[rowKey{b, row}]; got != want {
				return fmt.Errorf("diff: row (%d,%d) disturbance: dense %g, reference %g", b, row, got, want)
			}
			if got, want := mod.ActCount(b, row), r.acts[rowKey{b, row}]; got != want {
				return fmt.Errorf("diff: row (%d,%d) ACT count: dense %d, reference %d", b, row, got, want)
			}
		}
	}

	real := mod.Flips()
	if mod.FlipCount() != uint64(len(real)) {
		return fmt.Errorf("diff: stream produced %d flips, beyond the module's %d-record bound; shrink the stream",
			mod.FlipCount(), len(real))
	}
	if len(real) != len(r.flips) {
		return fmt.Errorf("diff: dense module recorded %d flips, reference saw %d flip events", len(real), len(r.flips))
	}
	for i, f := range real {
		ev := r.flips[i]
		if f.Bank != ev.Bank || f.Row != ev.Row || f.Cycle != ev.Cycle ||
			f.ActorDomain != ev.Domain || uint64(f.Bit) != ev.Arg {
			return fmt.Errorf("diff: flip %d: dense %+v, reference event %+v", i, f, ev)
		}
	}
	return nil
}
