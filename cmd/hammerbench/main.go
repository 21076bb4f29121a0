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
//	            [-faults cell.error=e7/3]
//	            [-metrics-out bench.json] [-trace-events f -trace-format chrome]
//	            [-pprof-cpu f] [-pprof-http addr]
//
// -metrics-out emits a machine-readable performance report (the
// BENCH_harness.json shape): per-experiment and per-cell wall-clock plus
// simulated events/sec. It is read from the run's spans — each
// experiment runs under one span, each computed cell under a cell span
// below it — and from the telemetry hub's simulated-event counter.
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
// -faults (or $HAMMERTIME_FAULTS) exercises that path: cell.error,
// cell.panic or cell.once=<grid>/<index> fails one cell (once: its
// first attempt only); a malformed or non-cell spec fails at startup.
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
	"hammertime/internal/telemetry"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run (all, e1..e10, idle)")
		horizon    = flag.Uint64("horizon", 0, "simulation horizon in cycles (0 = per-experiment default)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel   = flag.Int("parallel", 0, "worker goroutines per experiment (0 = GOMAXPROCS, 1 = serial)")
		obsFlags   cliutil.ObsFlags
		robust     cliutil.RobustFlags
	)
	obsFlags.Register()
	robust.Register(os.Getenv(cliutil.FaultsEnv))
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
	if experiment != "all" && !harness.ValidExperiment(experiment) {
		return fmt.Errorf("unknown experiment %q (want all, e1..e10 or idle)", experiment)
	}
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
	// With -trace-events or -metrics-out the grids record spans (grid,
	// cells, machine phases): into the trace alongside the event stream,
	// and as the source of the performance report.
	ctx = harness.WithRun(session.Context(ctx), hrun)
	var tracer *telemetry.Tracer
	if sc := telemetry.ScopeFrom(ctx); sc != nil {
		tracer = sc.Tracer
	}
	hub := telemetry.HubFrom(ctx)
	var runs []experimentRun
	report := func() BenchReport {
		return buildReport("hammerbench", hrun.WorkerCount(), runs, tracer.Snapshot())
	}

	for _, id := range harness.ExperimentIDs() {
		if experiment != "all" && experiment != id {
			continue
		}
		start := time.Now()
		ectx, span := telemetry.StartSpan(ctx, "experiment:"+id)
		events := hub.Events()
		tb, err := harness.Experiment(ectx, id, horizon, harness.AttackOpts{Observer: session.Recorder})
		span.End()
		runs = append(runs, experimentRun{id: id, span: span.ID(), events: hub.Events() - events})
		if err != nil {
			err = fmt.Errorf("%s: %w", id, err)
			// An interrupted run still flushes what it measured: the
			// deferred teardown closes the trace and checkpoint, and the
			// partial performance report is written here so a SIGTERM'd
			// grid leaves analyzable artifacts behind its nonzero exit.
			if errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled) {
				if werr := session.WriteMetrics(report()); werr != nil {
					fmt.Fprintln(os.Stderr, "hammerbench: flush on interrupt:", werr)
				}
			}
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %v (%d workers)\n",
			id, time.Since(start).Round(time.Millisecond), hrun.WorkerCount())
		if tb.Degraded() {
			fmt.Fprintf(os.Stderr, "%s: DEGRADED: %d cells failed and render as ERR(...) (fail-soft)\n",
				id, tb.DegradedCells())
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
	return session.WriteMetrics(report())
}
