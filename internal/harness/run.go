package harness

import (
	"context"
	"log/slog"
	"runtime"

	"hammertime/internal/obs"
)

// The experiment grids of E1-E10 are embarrassingly parallel: every
// (defense, attack, sweep-point) cell builds its own machine from a fixed
// seed, runs it, and yields one result. runGrid fans cells out across a
// bounded set of worker goroutines while keeping the output
// byte-identical to a serial run:
//
//   - each cell constructs everything it mutates (machine, defense,
//     workloads) inside the cell function — no state is shared between
//     in-flight cells;
//   - per-cell randomness comes from RNGs that are a pure function of the
//     cell's seed (sim.RNG.Fork / ForkAt), never from a stream consumed in
//     scheduling order;
//   - results land in a slice indexed by cell, and tables are assembled
//     from that slice in cell order after the pool drains.
//
// Fault containment, retries and fail-soft recording live in
// failsoft.go, checkpoint/resume in checkpoint.go, the cluster's
// delegate and capture in distrib.go.

// Run is everything that decides how the harness runs a grid, apart
// from the grid itself. Grids read it from their context once, when
// they start (WithRun), so two runs in one process — two hammerd jobs,
// two tests — never share settings. The zero value is a strict,
// silent, uncheckpointed, in-process run on GOMAXPROCS workers.
type Run struct {
	// Policy decides how failing and slow cells are treated.
	Policy Policy
	// Workers caps the grid's worker pool: 0 means GOMAXPROCS, 1 runs
	// serially. Parallel and serial runs produce byte-identical tables.
	Workers int
	// Checkpoint, when set, restores identified grids' completed cells
	// and records the cells they compute.
	Checkpoint *Checkpoint
	// Delegate, when set, computes identified grids out-of-process (the
	// cluster coordinator); anonymous grids always run locally.
	Delegate GridDelegate
	// Capture, when set, narrows the run to one grid's assigned cells
	// and collects their results (the cluster worker).
	Capture *CellCapture
	// Bench, when set, times every cell and counts simulated events.
	Bench *BenchCollector
	// Logger receives failed-cell and slow-cell warnings (nil = silent).
	Logger *slog.Logger
	// Events receives the grid's cell-retry and cell-failure events
	// (obs.KindCellRetry/KindCellFail), so traces show where a grid
	// degraded. It is not attached to machines: simulator events go to
	// AttackOpts.Observer or the telemetry scope's Observer.
	Events *obs.Recorder
}

// WorkerCount resolves Workers to the pool size grids use (>= 1).
func (r Run) WorkerCount() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

type runKey struct{}

// WithRun returns ctx carrying r; grids started under the returned
// context run as r says. It replaces any Run ctx already carried — to
// change one field, copy RunFrom(ctx) and set it.
func WithRun(ctx context.Context, r Run) context.Context {
	return context.WithValue(ctx, runKey{}, &r)
}

// RunFrom returns the Run carried by ctx (the zero Run when none is).
func RunFrom(ctx context.Context) Run {
	if r, ok := ctx.Value(runKey{}).(*Run); ok {
		return *r
	}
	return Run{}
}
