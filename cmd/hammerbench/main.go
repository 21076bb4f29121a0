// Command hammerbench regenerates every experiment table of the
// "Stop! Hammer Time" reproduction (E1-E10 in DESIGN.md): the protection
// matrix, the interleaving-throughput comparison, the density-scaling
// sweep, defense overheads, the TRRespass sweep, the ACT-interrupt
// comparison, the refresh-path micro-benchmark, the enclave semantics,
// the SECDED ECC outcome hierarchy and the Half-Double relay.
//
// Usage:
//
//	hammerbench [-experiment all|e1|..|e10|idle] [-horizon N] [-csv] [-parallel N]
//	            [-check] [-fail-soft] [-retries N] [-cell-timeout 30s] [-resume grid.ckpt]
//	            [-metrics-out bench.json] [-trace-events f -trace-format chrome]
//	            [-pprof-cpu f] [-pprof-http addr]
//
// -metrics-out emits a machine-readable performance report (the
// BENCH_harness.json shape): per-experiment and per-cell wall-clock plus
// simulated events/sec, as collected by the parallel harness.
// -trace-events records the simulator event stream of E1's cells (the
// sink is mutex-wrapped, so parallel cells interleave safely; use
// -parallel 1 for a single-machine-ordered trace).
//
// Experiments fan their independent (defense, attack, sweep-point) cells
// across a worker pool; -parallel caps the pool (0 = one worker per CPU,
// 1 = serial). Parallel and serial runs produce byte-identical tables —
// every cell simulates its own machine from a fixed seed — so -parallel
// only changes wall-clock time, which is reported per experiment on
// stderr to keep -csv output on stdout clean.
//
// -check attaches the online invariant auditor (internal/check) to every
// machine a grid cell builds: row-buffer legality, command ordering,
// refresh cadence/coverage and charge conservation are verified against
// an independent shadow model as each cell runs, plus an exact final
// state comparison. Observer-only (tables stay byte-identical); a
// violation fails the cell — combine with -fail-soft to render it as
// ERR(...) instead of aborting the grid.
//
// Long grids are fail-soft capable: -fail-soft records per-cell failures
// (panics included) and finishes the run with ERR(reason) placeholders
// in the affected cells; -retries and -cell-timeout bound flaky or hung
// cells. -resume names a checkpoint file to which completed cells are
// appended as they finish; a killed run restarted with the same flags
// skips the completed cells and produces byte-identical tables.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hammertime/internal/core"

	"hammertime/internal/cliutil"
	"hammertime/internal/harness"
	"hammertime/internal/report"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run (all, e1..e10)")
		horizon    = flag.Uint64("horizon", 0, "simulation horizon in cycles (0 = per-experiment default)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel   = flag.Int("parallel", 0, "worker goroutines per experiment (0 = GOMAXPROCS, 1 = serial)")
		obsFlags   cliutil.ObsFlags
		robust     cliutil.RobustFlags
	)
	obsFlags.Register()
	robust.Register()
	flag.Parse()
	ctx, stop := cliutil.ShutdownContext()
	defer stop()
	if err := run(ctx, strings.ToLower(*experiment), *horizon, *csv, *parallel, obsFlags, robust); err != nil {
		if errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "hammerbench: interrupted:", err)
		} else {
			fmt.Fprintln(os.Stderr, "hammerbench:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, experiment string, horizon uint64, csv bool, parallel int, obsFlags cliutil.ObsFlags, robust cliutil.RobustFlags) (err error) {
	// The recorder may serve many parallel cells; sync the sink.
	session, err := obsFlags.Start(true)
	if err != nil {
		return err
	}
	// Teardown errors (an unflushed trace, a checkpoint write that failed
	// mid-run) must reach the exit code, not just stderr.
	defer func() {
		if cerr := session.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close observability: %w", cerr)
		}
	}()
	hrun, err := robust.Apply(session.Recorder)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := hrun.Checkpoint.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("resume: %w", cerr)
		}
	}()
	hrun.Workers = parallel
	collector := harness.NewBenchCollector("hammerbench", hrun.WorkerCount())
	hrun.Bench = collector
	// With -trace-events the grids record spans (grid, cells, machine
	// phases) into the trace alongside the event stream.
	ctx = harness.WithRun(session.Context(ctx), hrun)

	recorder := session.Recorder

	type exp struct {
		id  string
		gen func(ctx context.Context) (*report.Table, error)
	}
	experiments := []exp{
		{"e1", func(ctx context.Context) (*report.Table, error) {
			return harness.E1Matrix(ctx, nil, 12, harness.AttackOpts{Horizon: horizon, Observer: recorder})
		}},
		{"e2", func(ctx context.Context) (*report.Table, error) {
			tb, _, err := harness.E2Interleaving(ctx, horizon)
			return tb, err
		}},
		{"e3", func(ctx context.Context) (*report.Table, error) { return harness.E3DensityScaling(ctx, horizon) }},
		{"e4", func(ctx context.Context) (*report.Table, error) { return harness.E4Overhead(ctx, horizon, nil) }},
		{"e5", func(ctx context.Context) (*report.Table, error) { return harness.E5TRRBypass(ctx, horizon, nil, nil) }},
		{"e6", func(ctx context.Context) (*report.Table, error) {
			tb, _, err := harness.E6ActInterrupt(ctx, horizon)
			return tb, err
		}},
		{"e7", func(ctx context.Context) (*report.Table, error) {
			tb, _, err := harness.E7RefreshPath(ctx)
			return tb, err
		}},
		{"e8", func(ctx context.Context) (*report.Table, error) { return harness.E8Enclave(ctx, horizon) }},
		{"e9", func(ctx context.Context) (*report.Table, error) {
			tb, _, err := harness.E9ECC(ctx, nil)
			return tb, err
		}},
		{"e10", func(ctx context.Context) (*report.Table, error) { return harness.E10HalfDouble(ctx, horizon) }},
		{"idle", func(ctx context.Context) (*report.Table, error) { return harness.IdleFastForward(ctx, horizon) }},
	}

	ran := false
	for _, e := range experiments {
		if experiment != "all" && experiment != e.id {
			continue
		}
		ran = true
		start := time.Now()
		collector.Begin(e.id)
		tb, err := e.gen(ctx)
		collector.End()
		if err != nil {
			err = fmt.Errorf("%s: %w", e.id, err)
			// An interrupted run still flushes what it measured: the
			// deferred teardown closes the trace and checkpoint, and the
			// partial performance report is written here so a SIGTERM'd
			// grid leaves analyzable artifacts behind its nonzero exit.
			if errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled) {
				if werr := session.WriteMetrics(collector.Report()); werr != nil {
					fmt.Fprintln(os.Stderr, "hammerbench: flush on interrupt:", werr)
				}
			}
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %v (%d workers)\n",
			e.id, time.Since(start).Round(time.Millisecond), hrun.WorkerCount())
		if tb.Degraded() {
			fmt.Fprintf(os.Stderr, "%s: DEGRADED: %d cells failed and render as ERR(...) (fail-soft)\n",
				e.id, tb.DegradedCells())
		}
		if csv {
			if err := tb.RenderCSV(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			continue
		}
		if err := tb.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want all, e1..e10 or idle)", experiment)
	}
	return session.WriteMetrics(collector.Report())
}
