// Package hammertime's root benchmark suite regenerates every experiment
// table/figure of the reproduction (one benchmark per experiment; see
// DESIGN.md's index) and measures the simulator's own hot paths. The
// experiment benchmarks run reduced parameter sets suitable for
// `go test -bench`; `cmd/hammerbench` produces the full tables.
package hammertime

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"hammertime/internal/addr"
	"hammertime/internal/attack"
	"hammertime/internal/cache"
	"hammertime/internal/cluster"
	"hammertime/internal/core"
	"hammertime/internal/cpu"
	"hammertime/internal/defense"
	"hammertime/internal/dram"
	"hammertime/internal/harness"
	"hammertime/internal/memctrl"
	"hammertime/internal/serve"
	"hammertime/internal/sim"
	"hammertime/internal/telemetry"
	"hammertime/internal/workload"
)

// --- Experiment benchmarks (E1-E8) ---

// BenchmarkE1ProtectionMatrix regenerates a slice of the Table 1 matrix:
// one defense per taxonomy class against the full attack catalog.
func BenchmarkE1ProtectionMatrix(b *testing.B) {
	var cross uint64
	for i := 0; i < b.N; i++ {
		tb, err := harness.E1Matrix(context.Background(),
			[]string{"none", "trr", "subarray", "actremap", "swrefresh", "anvil"},
			12, harness.AttackOpts{Horizon: 2_000_000})
		if err != nil {
			b.Fatal(err)
		}
		cross += uint64(len(tb.Rows))
	}
	b.ReportMetric(float64(cross)/float64(b.N), "defenses/op")
}

// BenchmarkE2Interleaving regenerates the interleaving-throughput figure.
func BenchmarkE2Interleaving(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		_, results, err := harness.E2Interleaving(context.Background(), 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Scheme == "bank-partition(4)" && r.Workload == "stream" {
				loss = r.LossVsInterleave
			}
		}
	}
	b.ReportMetric(loss, "bankpart-stream-loss-%")
}

// BenchmarkE3DensityScaling regenerates the generation sweep.
func BenchmarkE3DensityScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E3DensityScaling(context.Background(), 6_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Overhead regenerates the benign-slowdown table.
func BenchmarkE4Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E4Overhead(context.Background(), 600_000, []float64{0.001, 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5TRRBypass regenerates the TRRespass sweep (reduced points).
func BenchmarkE5TRRBypass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E5TRRBypass(context.Background(), 16_000_000, []int{2, 12}, []int{4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6ActInterrupt regenerates the counter-design comparison.
func BenchmarkE6ActInterrupt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.E6ActInterrupt(context.Background(), 3_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7RefreshInstr regenerates the refresh-path micro-comparison
// and reports the headline numbers: cycles per targeted refresh by path.
func BenchmarkE7RefreshInstr(b *testing.B) {
	var instr, load float64
	for i := 0; i < b.N; i++ {
		_, results, err := harness.E7RefreshPath(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.BankState != "other row open" {
				continue
			}
			switch r.Method {
			case harness.E7RefreshInstr:
				instr = float64(r.Cycles)
			case harness.E7LoadPath:
				load = float64(r.Cycles)
			}
		}
	}
	b.ReportMetric(instr, "refresh-instr-cycles")
	b.ReportMetric(load, "clflush+load-cycles")
}

// BenchmarkE8Enclave regenerates the enclave-semantics table.
func BenchmarkE8Enclave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E8Enclave(context.Background(), 2_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9ECC regenerates the SECDED outcome hierarchy.
func BenchmarkE9ECC(b *testing.B) {
	var silent uint64
	for i := 0; i < b.N; i++ {
		_, outs, err := harness.E9ECC(context.Background(), []uint64{2_000_000, 8_000_000})
		if err != nil {
			b.Fatal(err)
		}
		silent = outs[len(outs)-1].Silent
	}
	b.ReportMetric(float64(silent), "silent-corruptions")
}

// BenchmarkE10HalfDouble regenerates the mitigation-relay comparison.
func BenchmarkE10HalfDouble(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E10HalfDouble(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationUncoreMove contrasts page-migration cost with and
// without the §4.2 uncore move instruction.
func BenchmarkAblationUncoreMove(b *testing.B) {
	for _, uncore := range []bool{false, true} {
		name := "kernel-copy"
		if uncore {
			name = "uncore-move"
		}
		b.Run(name, func(b *testing.B) {
			m, err := core.NewMachine(core.DefaultSpec())
			if err != nil {
				b.Fatal(err)
			}
			d := m.Kernel.CreateDomain("d", false, false)
			// A fixed pool: every migration frees its old frame, so the
			// footprint stays constant no matter how large b.N grows.
			const pool = 64
			if _, err := m.Kernel.AllocPages(d.ID, 0, pool); err != nil {
				b.Fatal(err)
			}
			if uncore {
				m.Kernel.EnableUncoreMove()
			}
			var cycles uint64
			now := uint64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := m.Kernel.MigratePage(d.ID, uint64(i%pool), now)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Completion - now
				now = res.Completion
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/migration")
		})
	}
}

// BenchmarkAblationPagePolicy contrasts open- vs closed-page row-buffer
// policy under an attack run: closed-page slows the attacker (every
// access activates — but so does every benign access).
func BenchmarkAblationPagePolicy(b *testing.B) {
	for _, closed := range []bool{false, true} {
		name := "open-page"
		if closed {
			name = "closed-page"
		}
		b.Run(name, func(b *testing.B) {
			var acts uint64
			for i := 0; i < b.N; i++ {
				spec := core.DefaultSpec()
				spec.Profile = dram.LPDDR4()
				spec.ClosedPage = closed
				out, err := harness.RunAttack(spec, defense.None{},
					attack.Kind{Name: "double-sided", Sided: 2},
					harness.AttackOpts{Horizon: 1_000_000})
				if err != nil {
					b.Fatal(err)
				}
				acts += uint64(out.Result.Stats.Counter("mc.acts"))
			}
			b.ReportMetric(float64(acts)/float64(b.N), "acts/run")
		})
	}
}

// BenchmarkAblationDetectorRandomization contrasts fixed vs randomized
// counter resets against the evasive attacker (E6's core ablation).
func BenchmarkAblationDetectorRandomization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.E6ActInterrupt(context.Background(), 2_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulator hot-path micro-benchmarks ---

func BenchmarkDRAMActivate(b *testing.B) {
	m, err := dram.NewModule(dram.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Activate(i%8, (i*7)%1024, uint64(i), -1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMCServeRowHit(b *testing.B) {
	mod, err := dram.NewModule(dram.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	mc, err := memctrl.NewController(memctrl.Config{
		Mapper: addr.NewLineInterleave(mod.Geometry()), DRAM: mod, OpenPage: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mc.ServeRequest(memctrl.Request{Line: uint64(i % 8)}, now)
		if err != nil {
			b.Fatal(err)
		}
		now = res.Completion
	}
}

func BenchmarkMCServeRowConflict(b *testing.B) {
	mod, err := dram.NewModule(dram.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	mc, err := memctrl.NewController(memctrl.Config{
		Mapper: addr.NewLineInterleave(mod.Geometry()), DRAM: mod, OpenPage: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mc.ServeRequest(memctrl.Request{Line: uint64(i%2) * stripe}, now)
		if err != nil {
			b.Fatal(err)
		}
		now = res.Completion
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c, err := cache.New(cache.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%100000), i%3 == 0)
	}
}

func BenchmarkMapperLineInterleave(b *testing.B) {
	m := addr.NewLineInterleave(dram.DefaultGeometry())
	total := m.Geometry().TotalLines()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := m.Map(uint64(i) % total)
		if m.Unmap(d) != uint64(i)%total {
			b.Fatal("bijection broken")
		}
	}
}

func BenchmarkMapperSubarrayIsolated(b *testing.B) {
	g := dram.DefaultGeometry()
	part, err := addr.NewPartition(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := addr.NewSubarrayIsolated(addr.NewLineInterleave(g), part)
	if err != nil {
		b.Fatal(err)
	}
	total := g.TotalLines()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := m.Map(uint64(i) % total)
		if m.Unmap(d) != uint64(i)%total {
			b.Fatal("bijection broken")
		}
	}
}

// BenchmarkHammerThroughput measures simulated attacker throughput — how
// many hammering accesses per wall-clock second the simulator sustains.
// The machine runs unaudited, as every non-test run does: under `go test`
// the invariant auditor would otherwise take half of each iteration.
// Steady state is 0 allocs/op.
func BenchmarkHammerThroughput(b *testing.B) {
	core.SetCheckingOff()
	defer core.SetChecking(false)
	spec := core.DefaultSpec()
	m, err := core.NewMachine(spec)
	if err != nil {
		b.Fatal(err)
	}
	d := m.Kernel.CreateDomain("attacker", false, false)
	if _, err := m.Kernel.AllocPages(d.ID, 0, 8); err != nil {
		b.Fatal(err)
	}
	g := spec.Geometry
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.MC.ServeRequest(memctrl.Request{Line: uint64(i%2) * 2 * stripe, Domain: d.ID}, now)
		if err != nil {
			b.Fatal(err)
		}
		now = res.Completion
	}
}

// BenchmarkProgramFill measures benign access generation: one op fills
// a core's buffer from Mix(Stream, Random), built as E4's benign tenants
// build it, over a 512-page working set. Steady state is 0 allocs/op.
func BenchmarkProgramFill(b *testing.B) {
	frames := make([]uint64, 512)
	for i := range frames {
		frames[i] = uint64(3*i + 1)
	}
	lines := workload.Lines{Frames: frames, Shift: 6}
	st, err := workload.Stream(lines, 1<<30, 0)
	if err != nil {
		b.Fatal(err)
	}
	rd, err := workload.Random(lines, 1<<30, 0, 0.3, sim.NewRNG(1).Fork())
	if err != nil {
		b.Fatal(err)
	}
	p := workload.Mix(st, rd)
	buf := make([]cpu.Access, cpu.BatchLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Fill(buf) != cpu.BatchLen {
			b.Fatal("short fill")
		}
	}
	b.ReportMetric(float64(b.N)*cpu.BatchLen/b.Elapsed().Seconds(), "accesses/s")
}

// --- ACT hot-path benchmarks (dense per-bank state) ---

// BenchmarkActHotPath measures the per-activation cost of the DRAM module
// with its dense disturbance/ACT-count slices, plain and with the in-DRAM
// TRR tracker engaged. The stride-7 row walk (as in BenchmarkDRAMActivate)
// spreads disturbance so the path is pure bookkeeping; steady state is
// 0 allocs/op.
func BenchmarkActHotPath(b *testing.B) {
	for _, v := range []struct {
		name string
		trr  bool
	}{{"plain", false}, {"trr", true}} {
		b.Run(v.name, func(b *testing.B) {
			cfg := dram.Config{Seed: 1}
			if v.trr {
				trr := dram.DefaultTRR()
				cfg.TRR = &trr
			}
			m, err := dram.NewModule(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Activate(i%8, (i*7)%1024, uint64(i), -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMCActCounterHotPath measures the controller's full per-ACT
// bookkeeping stack — the ACT counter, then a plugin chain of the
// Graphene Misra-Gries tracker and the BlockHammer rate limiter — under
// row-conflict traffic where every request activates. All three index
// dense per-bank state; steady state is 0 allocs/op. Its ns/op relative
// to BenchmarkMCServeRowConflict (no counter, no plugins) is the cost of
// the chain's dispatch, gated in bench_baseline.json.
func BenchmarkMCActCounterHotPath(b *testing.B) {
	mod, err := dram.NewModule(dram.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := mod.Geometry()
	mc, err := memctrl.NewController(memctrl.Config{
		Mapper:   addr.NewLineInterleave(g),
		DRAM:     mod,
		OpenPage: true,
		Plugins: []memctrl.Plugin{
			memctrl.NewGraphene(g.Banks, 16, 1<<20, 1),
			memctrl.NewRateLimiter(g, 1<<20, 64_000_000, 0),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := mc.EnableACTCounter(true, 1<<20, func(memctrl.ACTEvent) uint64 { return 0 }); err != nil {
		b.Fatal(err)
	}
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	now := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64((i*7)%1024)*stripe + uint64(i%8)*uint64(g.ColumnsPerRow)
		res, err := mc.ServeRequest(memctrl.Request{Line: line}, now)
		if err != nil {
			b.Fatal(err)
		}
		now = res.Completion
	}
}

// --- Event-driven core benchmarks ---

// BenchmarkIdleFastForward measures pure idle time: no agents, no
// requests, just the controller catching its refresh schedule up across
// a 2^32-cycle horizon. The burst variant collapses each catch-up into a
// closed-form sweep (the event-driven core's fast path); per-ref is the
// reference schedule walked one REF at a time. Checking is forced off so
// the unobserved fast path is actually reachable, as in CLI runs.
func BenchmarkIdleFastForward(b *testing.B) {
	core.SetCheckingOff()
	defer core.SetChecking(false)
	for _, v := range []struct {
		name  string
		burst bool
	}{{"burst", true}, {"per-ref", false}} {
		b.Run(v.name, func(b *testing.B) {
			m, err := core.NewMachine(core.DefaultSpec())
			if err != nil {
				b.Fatal(err)
			}
			if m.Auditor() != nil {
				b.Fatal("auditor attached despite SetCheckingOff")
			}
			m.MC.SetRefreshBurst(v.burst)
			const horizon = uint64(1) << 32
			now := uint64(0)
			before := m.MC.Stats().Counter("mc.ref")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += horizon
				m.MC.AdvanceTo(now)
			}
			b.StopTimer()
			refs := m.MC.Stats().Counter("mc.ref") - before
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(refs)/secs, "refs/s")
				b.ReportMetric(float64(horizon)*float64(b.N)/secs, "cycles/s")
			}
		})
	}
}

// benchStrideAgent is a pure compute agent: it never touches the memory
// controller, so scheduling it exercises only the run loop itself.
type benchStrideAgent struct {
	stride    uint64
	remaining int
}

func (a *benchStrideAgent) Done() bool { return a.remaining == 0 }

func (a *benchStrideAgent) Step(now uint64) (uint64, bool, error) {
	if a.remaining == 0 {
		return 0, false, nil
	}
	a.remaining--
	return now + a.stride, true, nil
}

// BenchmarkSchedulerManyAgents measures the run loop's per-step dispatch
// cost with a wide agent set: 128 pure agents with coprime strides, so
// the indexed heap is churned on every step. Reported as scheduled agent
// steps per wall-clock second.
func BenchmarkSchedulerManyAgents(b *testing.B) {
	core.SetCheckingOff()
	defer core.SetChecking(false)
	m, err := core.NewMachine(core.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	const (
		nAgents = 128
		perStep = 2000
	)
	var steps uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agents := make([]core.Agent, nAgents)
		for j := range agents {
			agents[j] = &benchStrideAgent{stride: uint64(13 + j%41), remaining: perStep}
		}
		res, err := m.Run(agents, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Steps {
			steps += s
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(steps)/secs, "steps/s")
	}
}

// BenchmarkTelemetryGrid measures the span/progress telemetry's
// overhead on a real experiment grid: the same reduced E1 matrix with
// no scope in the context (off — the shipping CLI default) and with a
// full tracer + hub scope threaded through (on — what hammerd gives
// every job). The benchgate baseline pins on/off ns/op within a fixed
// ratio, so telemetry cost is gated relative to the machine's own
// speed rather than as an absolute time.
func BenchmarkTelemetryGrid(b *testing.B) {
	defenses := []string{"none", "trr", "anvil"}
	run := func(b *testing.B, ctx context.Context) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.E1Matrix(ctx, defenses, 12,
				harness.AttackOpts{Horizon: 400_000}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, context.Background())
	})
	b.Run("on", func(b *testing.B) {
		// A fresh tracer per iteration, as hammerd allocates per job; the
		// hub has no subscribers, matching a job nobody is streaming.
		for i := 0; i < b.N; i++ {
			ctx := telemetry.NewContext(context.Background(), &telemetry.Scope{
				Tracer: telemetry.NewTracer(),
				Hub:    telemetry.NewHub(),
			})
			if _, err := harness.E1Matrix(ctx, defenses, 12,
				harness.AttackOpts{Horizon: 400_000}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE1CellAlloc measures what a whole E1 grid allocates per cell
// at a 100 000-cycle horizon — the short cells hammerd serves — on one
// worker with the invariant auditor off, as shipped binaries run. Cells
// recycle their machine arrays, survey tables and tracker counters, so
// the benchgate baseline caps the bytes per cell: a per-cell array that
// stops being recycled, or per-row planner slices, fail CI.
func BenchmarkE1CellAlloc(b *testing.B) {
	core.SetCheckingOff()
	defer core.SetChecking(false)
	ctx := harness.WithRun(context.Background(), harness.Run{Workers: 1})
	cells := len(harness.E1Defenses) * len(attack.Catalog(12))
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < b.N; i++ {
		if _, err := harness.Experiment(ctx, "e1", 100_000, harness.AttackOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.TotalAlloc-before)/float64(b.N*cells), "B/cell")
}

// BenchmarkFrozenTrace measures what a finished job's trace costs once
// frozen. It records a real E1 job trace — job and run spans around the
// grid, its 48 cells and their machine phases, at a 100 000-cycle
// horizon — and reports the frozen encoding's bytes per span, which the
// benchgate baseline caps. Each iteration grafts the trace into a fresh
// tracer, as a coordinator imports a worker's spans, and freezes it.
func BenchmarkFrozenTrace(b *testing.B) {
	tr := telemetry.NewTracer()
	ctx := telemetry.NewContext(context.Background(), &telemetry.Scope{Tracer: tr})
	ctx, job := telemetry.StartSpan(ctx, "job")
	ctx, run := telemetry.StartSpan(ctx, "run")
	if _, err := harness.Experiment(ctx, "e1", 100_000, harness.AttackOpts{}); err != nil {
		b.Fatal(err)
	}
	run.End()
	job.End()
	snaps := tr.Snapshot()
	spans, size := tr.Freeze()
	if spans != len(snaps) {
		b.Fatalf("froze %d of %d spans", spans, len(snaps))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := telemetry.NewTracer()
		t.ImportRemote(job.ID(), snaps)
		t.Freeze()
	}
	b.ReportMetric(float64(size)/float64(spans), "B/span")
	b.ReportMetric(float64(spans), "spans")
}

// BenchmarkResultCache measures what the coordinator's result cache
// costs per cached cell. Each iteration puts 30 000 CellKey entries with
// e1-shaped results (a short JSON string) into a fresh cache, making the
// keys and values as it goes as the coordinator does, and the benchmark
// reports the live heap the cache grew by per entry. The benchgate
// baseline caps it: an entry layout with per-entry pointers and
// allocations (list element, entry struct, string-keyed map slot, kept
// key and value) costs about twice the cap.
func BenchmarkResultCache(b *testing.B) {
	const n = 30_000
	spec := harness.GridSpec{ID: "e1", Config: "bench"}
	var before, after runtime.MemStats
	var grown int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		c := cluster.NewResultCache(0)
		for j := 0; j < n; j++ {
			c.Put(harness.CellKey(spec, j), json.RawMessage(fmt.Sprintf(`"%d (%d%%)"`, j%53, j%100)))
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		grown = int64(after.HeapAlloc) - int64(before.HeapAlloc)
		runtime.KeepAlive(c)
		b.StartTimer()
	}
	b.ReportMetric(float64(grown)/n, "B/entry")
}

// BenchmarkRetainedJob measures what a finished job costs a daemon for
// as long as its retention window keeps it. Each iteration runs 1000
// jobs through a serve.Manager whose stub Run ends spans until the job's
// trace holds 186, the span count of a fresh e1 job on a coordinator
// plus worker, and returns a freshly rendered e1 table (1.4 KB), as a
// served job does. The benchmark reports the live heap the manager grew
// by per job, after a forced GC: the job record, its hub, its frozen
// trace and its table. The benchgate baseline caps it, so a finished job
// that keeps its *Span objects fails CI.
func BenchmarkRetainedJob(b *testing.B) {
	const jobs, spans = 1000, 186
	tb, err := harness.Experiment(context.Background(), "e1", 100_000, harness.AttackOpts{})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"grid:e1", "cell", "machine.build", "machine.run"}
	run := func(ctx context.Context, req serve.JobRequest) (string, error) {
		for i := 0; i < spans-3; i++ { // the manager opens job, queued and run
			_, s := telemetry.StartSpan(ctx, names[i%len(names)])
			s.SetAttrs(telemetry.Int("cell", int64(i)), telemetry.String("defense", "trr"))
			s.End()
		}
		return tb.String(), nil
	}
	var before, after runtime.MemStats
	var grown int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		m := serve.NewManager(serve.Config{QueueDepth: jobs, RatePerSec: -1, Run: run})
		for j := 0; j < jobs; j++ {
			job, err := m.Submit("bench", serve.JobRequest{Experiment: "e1", Horizon: 100_000})
			if err != nil {
				b.Fatal(err)
			}
			<-job.Done()
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		grown = int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if err := m.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(grown)/jobs, "B/job")
}

// BenchmarkSpanWire measures the spans of one E1 batch — four cells at a
// 100 000-cycle horizon, as a worker answers them — crossing the
// worker-to-coordinator hop: marshalled into the response body and
// unmarshalled back into span snapshots. json carries them as a JSON
// array of snapshots; frozen in telemetry's frozen encoding, base64 in
// the JSON body, as cluster.CellResponse does. The benchgate baseline
// caps frozen's time as a fraction of json's.
func BenchmarkSpanWire(b *testing.B) {
	core.SetCheckingOff()
	defer core.SetChecking(false)
	w := &cluster.WorkerNode{Name: "bench"}
	resp, err := w.RunCells(context.Background(), cluster.CellRequest{
		Experiment: "e1", Horizon: 100_000, Grid: "e1", Cells: []int{0, 1, 2, 3}, Epoch: sim.DeterminismEpoch,
	})
	if err != nil {
		b.Fatal(err)
	}
	spans, err := telemetry.DecodeSpans(resp.Spans, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("json", func(b *testing.B) {
		type body struct {
			Spans []telemetry.SpanSnap `json:"spans"`
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			raw, err := json.Marshal(body{Spans: spans})
			if err != nil {
				b.Fatal(err)
			}
			var back body
			if err := json.Unmarshal(raw, &back); err != nil || len(back.Spans) != len(spans) {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(spans)), "spans")
	})
	b.Run("frozen", func(b *testing.B) {
		type body struct {
			Spans []byte `json:"spans"`
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			raw, err := json.Marshal(body{Spans: telemetry.EncodeSpans(spans)})
			if err != nil {
				b.Fatal(err)
			}
			var back body
			if err := json.Unmarshal(raw, &back); err != nil {
				b.Fatal(err)
			}
			got, err := telemetry.DecodeSpans(back.Spans, 0)
			if err != nil || len(got) != len(spans) {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(spans)), "spans")
	})
}

// BenchmarkE1MatrixParallel contrasts the serial and pooled harness on
// the same E1 grid as BenchmarkE1ProtectionMatrix. Tables are
// byte-identical either way; on a multi-core host the parallel variant
// shows the worker-pool speedup.
func BenchmarkE1MatrixParallel(b *testing.B) {
	for _, v := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := harness.WithRun(context.Background(), harness.Run{Workers: v.workers})
				_, err := harness.E1Matrix(ctx,
					[]string{"none", "trr", "subarray", "actremap", "swrefresh", "anvil"},
					12, harness.AttackOpts{Horizon: 2_000_000})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCellSetup measures what one E1 cell spends before its first
// simulated cycle: building the machine with its defense, allocating
// three tenants of 170 pages, and planning a double-sided attack (the
// many-sided case plans a 12-aggressor TRRespass pattern on an
// undefended machine instead). It runs with the invariant auditor off,
// as shipped binaries do, so it measures set-up and not the auditor's
// shadow model. Each iteration releases its tenants and machine, as
// harness cells do, so the next one builds on recycled arrays. The
// benchgate baseline pins the bank-partitioned, guard-row and
// subarray-isolated cells within a fixed ratio of the undefended one,
// so allocator or survey set-up that scales with DRAM size rather than
// with allocated pages fails CI; caps the bytes per op of the
// undefended, Graphene, BlockHammer and many-sided cells, so a
// per-machine array that stops being recycled, a tracker table sized
// for a whole refresh window, or per-row planner slices do; and caps
// the bank-partitioned cell's allocations, so a per-page allocation in
// the allocators' row-footprint checks does.
func BenchmarkCellSetup(b *testing.B) {
	core.SetCheckingOff()
	defer core.SetChecking(false)
	for _, c := range []struct {
		name, defense string
		sided         int
	}{
		{"none", "none", 2}, {"bankpart", "bankpart", 2}, {"zebram", "zebram", 2},
		{"subarray", "subarray", 2},
		{"graphene", "graphene", 2}, {"blockhammer", "blockhammer", 2},
		{"many-sided", "none", 12},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := defense.New(c.defense)
				if err != nil {
					b.Fatal(err)
				}
				m, err := core.BuildWithDefense(harness.E1Spec(), d)
				if err != nil {
					b.Fatal(err)
				}
				tenants, err := harness.SetupTenants(m, 3, 170)
				if err != nil {
					b.Fatal(err)
				}
				radius := m.Spec.Profile.BlastRadius
				if c.sided == 2 {
					_, err = attack.PlanDoubleSided(m.Kernel, m.Mapper, tenants[0].Domain.ID, 1, radius)
				} else {
					_, err = attack.PlanManySided(m.Kernel, m.Mapper, tenants[0].Domain.ID, c.sided, radius)
				}
				if err != nil {
					b.Fatal(err)
				}
				harness.ReleaseTenants(tenants)
				m.Release()
			}
		})
	}
}
